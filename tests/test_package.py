"""The package's exports are each module's ``__all__``, republished by
``momentflow/__init__.py`` through wildcard imports, so a deleted function
leaves no stale export behind and a new one needs no second list."""

import importlib
import os
import pkgutil
import subprocess
import sys

import momentflow

#: modules that the package does not import: the oracle is loaded only by the
#: commands that need it, and the CLI is the entry point
UNEXPORTED = {"oracle", "cli"}


def _exports(module):
    """The names that ``from module import *`` binds."""
    return getattr(module, "__all__", None) or [
        name for name, obj in vars(module).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__]


def test_every_export_resolves_to_its_module_object():
    owner = {}
    for info in pkgutil.iter_modules(momentflow.__path__):
        module = importlib.import_module(f"momentflow.{info.name}")
        for name in _exports(module):
            assert hasattr(module, name), f"momentflow.{info.name}.__all__ names a missing {name}"
            assert name not in owner, f"{name} is exported by {owner.get(name)} and {info.name}"
            owner[name] = info.name
            if info.name not in UNEXPORTED:
                assert getattr(momentflow, name) is getattr(module, name), name


def test_package_import_leaves_the_oracle_and_cli_unloaded():
    code = ("import sys, momentflow; "
            "sys.exit(any(f'momentflow.{m}' in sys.modules for m in ('oracle', 'cli')))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(momentflow.__file__))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
