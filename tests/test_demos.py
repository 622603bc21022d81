"""Each script under demos/ runs to the end: exit 0 and nothing on stderr,
so no traceback and no warning."""

import os
import subprocess
import sys

import pytest

import momentflow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo):
    src = os.path.dirname(os.path.dirname(momentflow.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
