"""The package's exports: each module's ``__all__`` and the names that
``momentflow/__init__.py`` re-exports agree, so a deleted function leaves no
stale export behind."""

import ast
import importlib
import inspect
import pkgutil

import momentflow


def test_every_export_resolves_to_its_module_object():
    for info in pkgutil.iter_modules(momentflow.__path__):
        module = importlib.import_module(f"momentflow.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"momentflow.{info.name}.__all__ names a missing {name}"
    for node in ast.parse(inspect.getsource(momentflow)).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"momentflow.{node.module}")
            for alias in node.names:
                assert getattr(momentflow, alias.asname or alias.name) is getattr(module, alias.name)
                assert alias.name in getattr(module, "__all__", [alias.name]), (node.module, alias.name)
