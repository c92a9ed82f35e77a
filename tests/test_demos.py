"""The demos in demos/ run with the arguments the README gives them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [
    ["staircase_sweep.py", "(10)", "48"],
    ["interval_atlas.py", "6"],
    ["critical_hole.py"],
])
def test_demo_runs(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / args[0])]
                         + args[1:], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
