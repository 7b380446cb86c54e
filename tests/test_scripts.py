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


def test_bench_pairs_gives_one_verdict_per_metric():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    parent = list(range(100, 110))  # median 104.5, interquartile range 4.5
    runs = {  # metric: (parent runs, change runs), pair by pair
        "gain": (parent, [v + 10 for v in parent]),
        "gain_lower": (parent, [v - 10 for v in parent]),
        "wins_within_spread": (parent, [v + 3 for v in parent]),
        "eight_wins": (parent, [v + 10 for v in parent[:8]] + parent[8:]),
        "worse": (parent, [v - 30 for v in parent]),
        "noisy": ([50, 150] * 5, [60, 140] * 5),
        # Wide parent spread, but every change run beats every parent run.
        "all_better": ([0] * 3 + [100] * 5 + [101] * 2, [102] * 10),
    }
    metrics = [{"name": name, "better": "lower" if name == "gain_lower" else "higher",
                "bound": 0.25} for name in runs]
    pairs = [tuple({"metrics": {name: {"value": sides[side][i]} for name, sides in runs.items()}}
                   for side in (0, 1)) for i in range(10)]
    verdicts = {row[0]: (row[4], row[5]) for row in script.summarise(pairs, metrics)}
    assert verdicts == {"gain": (10, "gain"), "gain_lower": (10, "gain"),
                        "wins_within_spread": (10, "within bound"),
                        "eight_wins": (8, "within bound"), "worse": (0, "worse past bound"),
                        "noisy": (5, "unresolved"), "all_better": (10, "within bound")}


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


def test_mutation_score_kills_and_keeps_mutants_in_a_copy(tmp_path):
    # A toy checkout: the test pins the sum but not the sign test's boundary at 0.
    (tmp_path / "src" / "gtue").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "pyproject.toml").write_text("")
    (tmp_path / "src" / "gtue" / "__init__.py").write_text("")
    toy = tmp_path / "src" / "gtue" / "toy.py"
    toy.write_text("def add(a, b):\n    return a + b\n\n\n"
                   "def is_negative(a):\n    return a < 0\n")
    (tmp_path / "tests" / "test_toy.py").write_text(
        "from gtue.toy import add, is_negative\n\n\n"
        "def test_toy():\n    assert add(2, 3) == 5\n"
        "    assert is_negative(-1) and not is_negative(1)\n")
    before = sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*"))
    result = subprocess.run(
        [sys.executable, os.path.join("scripts", "mutation_score.py"), "--root", str(tmp_path),
         "--module", "toy", "--tests", "tests/test_toy.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "toy.py:2: + -> -: killed (failed): return a + b",
        "toy.py:6: < -> <=: survived: return a < 0",
        "toy: 1 of 2 mutants killed"]
    assert toy.read_text().endswith("return a < 0\n")
    assert sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*")) == before
