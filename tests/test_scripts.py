"""Smoke test: each demo script runs to completion on tiny arguments."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("audit_demo.py", ["--trials", "5"]),
    ("doob_demo.py", ["--depth", "3"]),
    ("oracle_sweep.py", ["--instances", "3", "--max-selections", "500"]),
])
def test_script_runs(script, args):
    # The scripts import gtue from src/ relative to the working directory.
    result = subprocess.run([sys.executable, os.path.join("scripts", script)] + args,
                            cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
