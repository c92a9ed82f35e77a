"""The demos in demos/, the README's command lines and its Quick start
block run as the README gives them."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from betahole.cli import main

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


def readme_command_lines():
    """The `betahole ...` lines of the README's command-line block, each
    cut where its description (two or more spaces on) or a redirection
    starts."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [re.split(r"\s{2,}| > ", line)[0]
            for line in block.splitlines() if line.startswith("betahole ")]


def test_readme_lists_twelve_command_lines():
    assert len(readme_command_lines()) == 12


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_runs(line):
    r = CliRunner().invoke(main, shlex.split(line)[1:])
    assert r.exit_code == 0, r.stderr
    assert r.stdout.strip()


def test_readme_quick_start_runs():
    """The README's ```python Quick start block prints a dim bracket and
    an inside_farey_low TauReport."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Quick start", 1)[1].split("```python", 1)[1]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", block.split("```", 1)[0]],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    bracket, report = out.stdout.splitlines()
    lower, upper = map(float, bracket.split())
    assert 0 < lower <= upper < 1
    assert report.startswith("TauReport(")
    assert "regime='inside_farey_low'" in report
