"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that eval-float's reference values are finite although its
inputs hold +inf cells.  Runs every workload of BENCHMARK.json at tiny
size, untraced and traced, and checks that each metric BENCHMARK.json
names is printed with its unit.  Then corrupts real reports of every op kind and checks that the
checker rejects each one, that a run counts such an op as failed and
unexplained, and that an unchecked op stops the run.  Exits 1 on the
first failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import sys
from fractions import Fraction

import run
from workloads import FULL, TINY, eval_float

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def expect(condition: bool, message: str):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def check_metrics(spec: dict):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(workload, seed=1, seconds=0, trace=trace, scale=TINY, min_ops=1)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            named = {m["name"]: m["unit"] for m in spec[section]}
            expect(printed == named and all(isinstance(m["value"], float | int)
                                            for m in result["metrics"].values()),
                   f"{workload} --trace {int(trace)} prints every {section} metric with its unit")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{workload} --trace {int(trace)} checks {result['attempted']} ops, "
                   f"{result['failed']} failed, none unexplained")


def check_finite_references():
    """eval-float has +inf cells, yet every value it checks is finite, so a
    wrong finite sum in the kernel cannot hide behind an infinite root."""
    workdir = os.path.join(run.OUT, "selftest")
    try:
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            ops = eval_float(seed, workdir, FULL)
            infinite_cells = 0
            for op in ops:
                with open(op.argv[2], encoding="utf-8") as handle:
                    infinite_cells += json.load(handle)["values"].count("inf")
            expect(infinite_cells > 0 and all(math.isfinite(op.reference()) for op in ops),
                   f"eval-float seed {seed}: {infinite_cells} +inf cells, "
                   f"all {len(ops)} reference values finite")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bump(raw):
    """A different number in the same notation: exact strings stay strings."""
    if raw == "inf":
        return 0.0
    if isinstance(raw, str):
        return str(Fraction(raw) + 1)
    return raw + 1


def corruptions(report: dict):
    """Small edits that each make a correct report wrong."""
    if "value" in report:
        yield "value", {**report, "value": _bump(report["value"])}
    if "oracle_value" in report:
        yield "oracle value", {**report, "oracle_value": _bump(report["oracle_value"])}
    if "supermartingale" in report:
        entry = report["supermartingale"]
        yield "verdict", {**report, "supermartingale": {
            **entry, "is_supermartingale": not entry["is_supermartingale"]}}
    if "axioms" in report:
        audits = [dict(a) for a in report["axioms"]]
        audits[0].update(all_passed=False, failures=[{"axiom": "E1", "counterexample": "x"}])
        yield "audit", {**report, "axioms": audits}
    if "process" in report:
        values = dict(report["process"]["values"])
        values[""] = _bump(values[""])
        yield "transform root", {**report, "process": {**report["process"], "values": values}}
        # Raising every depth-1 value by 1000 leaves the root below its
        # local upper expectation, whatever the masses.
        values = dict(report["process"]["values"])
        for label in ("0", "1"):
            values[label] = str(Fraction(values[label]) + 1000)
        yield "supermartingale", {**report, "process": {**report["process"], "values": values}}
        summary = dict(report["summary"])
        summary["realized_checks"] = summary["realized_checks"][1:]
        yield "dropped check", {**report, "summary": summary}


def check_corruption(spec: dict):
    workdir = os.path.join(run.OUT, "selftest")
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            cli, ops, _ = run.set_up(workload, 1, workdir, TINY)
            runner = run.Runner(cli.main, ops)
            for index, op in enumerate(ops):
                (code, out), _ = runner.run_op(index)
                report = json.loads(out)
                for what, bad in corruptions(report):
                    verdict = op.verdict(code, json.dumps(bad))
                    expect(verdict.kind == "fail",
                           f"{workload} {op.label}: corrupted {what} is rejected")

            # A whole run counts the corrupted op as failed and unexplained.
            def corrupting_main(argv, real=cli.main):
                code = real(argv)
                if argv is ops[0].argv:
                    sys.stdout.write(" ")
                    sys.stdout.write("{}")
                return code
            runner = run.Runner(corrupting_main, ops)
            samples, _ = runner.replay(0, 1)
            verdicts = runner.verdicts(samples)
            expect(verdicts[0].kind == "fail" and
                   sum(v.kind == "fail" for v in verdicts) == 1,
                   f"{workload}: a run counts the corrupted op, and only it, as failed")

            unchecked = dataclasses.replace(ops[0], check=lambda code, out: None)
            runner = run.Runner(cli.main, [unchecked])
            samples, _ = runner.replay(0, 1)
            try:
                runner.verdicts(samples)
                bypassed = False
            except run.BenchmarkError:
                bypassed = True
            expect(bypassed, f"{workload}: an unchecked op stops the run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    check_finite_references()
    check_metrics(spec)
    check_corruption(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
