"""Smoke tests: each script runs to completion on tiny arguments."""

import json
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


def test_bench_pairs_compares_a_checkout_with_itself():
    result = subprocess.run(
        [sys.executable, os.path.join("scripts", "bench_pairs.py"), ROOT, ROOT,
         "--workload", "eval-float", "--pairs", "1", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        names = [metric["name"] for metric in json.load(handle)["end_to_end"]]
    rows = {line.split()[0]: line for line in result.stdout.splitlines()
            if line.startswith("  ")}
    assert sorted(rows) == sorted(names)
    assert all(" parent " in row and " change " in row and "/1 " in row
               for row in rows.values())
    assert sum(line.startswith("pair 0 ") for line in result.stdout.splitlines()) == 2
