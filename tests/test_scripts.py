"""Smoke tests: each script runs to completion on tiny arguments."""

import importlib.util
import json
import os
import shutil
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


def test_ab_ops_compares_a_checkout_with_itself():
    result = subprocess.run(
        [sys.executable, os.path.join("scripts", "ab_ops.py"), ROOT, ROOT,
         "--workload", "small-mixed", "--tiny", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    rows = {line.split()[0]: line for line in result.stdout.splitlines()
            if line.startswith("  ")}
    assert sorted(rows) == ["axioms", "clamp", "oracle", "pass"]
    assert all(" parent " in row and " change " in row for row in rows.values())
    assert result.stdout.splitlines()[-1].startswith("per-round ratio parent/change: median ")


def test_ab_ops_refuses_to_time_a_changed_report(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "gtue" / "cli.py"
    cli.write_text(cli.read_text().replace("json.dumps(document, indent=2)",
                                           "json.dumps(document)"))
    result = subprocess.run(
        [sys.executable, os.path.join("scripts", "ab_ops.py"), ROOT, str(tmp_path),
         "--workload", "small-mixed", "--tiny", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1
    assert "ops differ, not timing" in result.stderr and not result.stdout


def test_line_coverage_counts_one_test_file():
    def run():
        return subprocess.run(
            [sys.executable, os.path.join("scripts", "line_coverage.py"),
             os.path.join("tests", "test_xreal.py"), "-q", "-p", "no:cacheprovider"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)

    result = run()
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    package = os.path.join(ROOT, "src", "gtue")
    unreached = {line.split(":")[0]: int(line.split()[1]) for line in lines
                 if line.startswith(os.path.join("src", "gtue", ""))}
    assert sorted(unreached) == sorted(os.path.join("src", "gtue", name)
                                       for name in os.listdir(package) if name.endswith(".py"))
    spec = importlib.util.spec_from_file_location(
        "line_coverage", os.path.join(ROOT, "scripts", "line_coverage.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    totals = {path: len(script.statements(os.path.join(ROOT, path))) for path in unreached}
    assert lines[-1] == (f"total: {sum(unreached.values())} of {sum(totals.values())} "
                         f"statements unreached")
    # The xreal tests reach part of xreal.py and none of audit.py's function bodies.
    xreal, audit = os.path.join("src", "gtue", "xreal.py"), os.path.join("src", "gtue", "audit.py")
    assert 0 < unreached[xreal] < totals[xreal]
    assert unreached[audit] == totals[audit]
    # Hypothesis draws the same examples each run, so the count repeats.
    assert run().stdout.splitlines()[-1] == lines[-1]
