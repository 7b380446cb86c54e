"""gtue benchmark: drive ``gtue.cli.main`` in-process and check every report.

    python3 perfbench/run.py --workload eval-float --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gtue is imported from ``src/``.
One process, no threads, a closed loop with one client: each op is one
``main(argv)`` call with stdout captured, and the next op starts when it
returns.  A run sets up (fixture generation plus the gtue import),
replays the workload's op list once to warm up, then replays it in whole
passes until ``--seconds`` have passed and at least MIN_OPS ops have run,
setting up again at intervals; ``setup_s`` is the median set-up.  Every
report is checked against the independent reference in ``reference.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures half
the time untraced and half traced, prints the per-layer metrics (means
per op) and writes the spans to ``.bench_out/``.  The last stdout line
is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from tracing import Tracer  # noqa: E402
from workloads import FULL, KNOWN_DEFECTS, WORKLOADS, Scale  # noqa: E402

# A run makes at least MIN_OPS op runs, so ten or more lie beyond p90.
# It sets up SETUP_REPEATS times: once before the warm-up pass and once
# between each two of SETUP_REPEATS slices of the measured time.
MIN_OPS = 100
SETUP_REPEATS = 7
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001  # for confirming a claimed gain on a seed it was not tuned on

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "evaluate.busy_ms": "ms",
    "evaluate.nodes": "count",
    "evaluate.us_per_node": "us",
    "evaluate.limit_iterations": "count",
    "credal.local_upper_calls": "count",
    "credal.points_evaluated": "count",
    "xreal.add_calls": "count",
    "xreal.scale_calls": "count",
    "tree.unrank_calls": "count",
    "constructions.transform_ms": "ms",
    "constructions.checks_ms": "ms",
    "constructions.chain_state_calls": "count",
    "constructions.realized_checks": "count",
    "process.check_ms": "ms",
    "process.nodes_checked": "count",
    "jsonio.load_ms": "ms",
    "jsonio.bytes_in": "B",
    "jsonio.dump_ms": "ms",
    "jsonio.bytes_out": "B",
    "oracle.busy_ms": "ms",
    "oracle.selections": "count",
    "audit.busy_ms": "ms",
    "audit.functional_calls": "count",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Per-layer busy times: metric -> span names whose durations it sums.
BUSY_SPANS = {
    "evaluate.busy_ms": ("evaluate.backward_levels",),
    "constructions.transform_ms": ("constructions.transform",),
    "constructions.checks_ms": ("constructions.checks",),
    "process.check_ms": ("process.check",),
    "jsonio.load_ms": ("jsonio.load",),
    "jsonio.dump_ms": ("jsonio.dump",),
    "oracle.busy_ms": ("oracle.brute_force", "oracle.selection_count"),
    "audit.busy_ms": ("audit.audit",),
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def gtue_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "gtue" or n.startswith("gtue.")}


def import_gtue():
    """Import gtue afresh from this checkout's src/ and return gtue.cli."""
    if not os.path.isfile(os.path.join(SRC, "gtue", "__init__.py")):
        raise BenchmarkError(f"no gtue sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in gtue_modules():
        del sys.modules[name]
    cli = importlib.import_module("gtue.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"imported gtue from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: str, scale: Scale):
    """Import gtue and generate the fixtures; returns (gtue.cli, ops, seconds)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    gc.collect()
    start = perf_counter()
    cli = import_gtue()
    ops = WORKLOADS[workload](seed, workdir, scale)
    return cli, ops, perf_counter() - start


class Runner:
    """Runs ops, keeps each distinct (exit code, stdout) per op, checks them."""

    def __init__(self, main, ops):
        self.main = main
        self.ops = ops
        self.outputs = [dict() for _ in ops]  # (code, stdout) -> Verdict or None
        self.tracer = None

    def run_op(self, index: int):
        op = self.ops[index]
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        with redirect_stdout(out), redirect_stderr(err):
            span = tracer.begin(f"cli.{op.argv[0]}", op_id=index) if tracer else None
            start = perf_counter()
            try:
                code = self.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed op, not a failed benchmark
                code = -1
                err.write(traceback.format_exc())
            elapsed = perf_counter() - start
            if tracer:
                tracer.end(span)
        text = out.getvalue()
        if tracer:
            tracer.counters["jsonio.bytes_out"] += len(text)
        key = (code, text if code != -1 else err.getvalue())
        self.outputs[index].setdefault(key, None)
        return key, elapsed

    def replay(self, seconds: float, min_ops: int):
        """Whole passes over the op list until both limits are reached.

        Returns the samples (op index, key, seconds) and each pass's wall time.
        """
        samples, walls = [], []
        gc.collect()
        while True:
            start = perf_counter()
            for index in range(len(self.ops)):
                key, elapsed = self.run_op(index)
                samples.append((index, key, elapsed))
            walls.append(perf_counter() - start)
            if sum(walls) >= seconds and len(samples) >= min_ops:
                return samples, walls

    def verdicts(self, samples):
        """Check every distinct output once; one verdict per sample."""
        for index, seen in enumerate(self.outputs):
            for key in seen:
                if seen[key] is None:
                    seen[key] = self.ops[index].verdict(*key)
        verdicts = [self.outputs[index][key] for index, key, _ in samples]
        if not all(v is not None and (v.kind in ("ok", "fail") or
                                      v.kind == "known" and v.detail in KNOWN_DEFECTS)
                   for v in verdicts):
            raise BenchmarkError("an op went unchecked: the checker was bypassed")
        return verdicts


def end_to_end(samples, walls, verdicts, setup_s) -> dict:
    ms = [elapsed * 1000 for _, _, elapsed in samples]
    ok = sum(v.kind == "ok" for v in verdicts)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(samples) / sum(walls),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "ok_rate": ok / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, ops: int, overhead_ratio: float) -> dict:
    totals = tracer.layer_totals()
    busy, counters = totals["busy"], tracer.counters
    metrics = {name: sum(busy[s] for s in spans) / ops for name, spans in BUSY_SPANS.items()}
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("count", "B"):
            metrics[name] = counters[name] / ops
    nodes = counters["evaluate.nodes"]
    metrics["evaluate.us_per_node"] = \
        busy["evaluate.backward_levels"] * 1000 / nodes if nodes else 0.0
    metrics["cli.self_ms"] = totals["cli_self_ms"] / ops
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL,
        min_ops: int = MIN_OPS) -> dict:
    workdir = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    try:
        cli, ops, first_setup = set_up(workload, seed, workdir, scale)
        runner = Runner(cli.main, ops)
        warm_up, _ = runner.replay(0, 1)
        runner.verdicts(warm_up)
        if not trace:
            # Load from other work on the machine comes and goes over
            # seconds, so the set-ups are spread over the run like the ops.
            # Each one imports gtue afresh and rewrites the same fixtures,
            # and the ops go on with the fresh import.
            setups, samples, walls = [first_setup], [], []
            for part in range(SETUP_REPEATS):
                if part:
                    cli, _, elapsed = set_up(workload, seed, workdir, scale)
                    runner.main = cli.main
                    setups.append(elapsed)
                more, more_walls = runner.replay(seconds / SETUP_REPEATS,
                                                 -(-min_ops // SETUP_REPEATS))
                samples += more
                walls += more_walls
            verdicts = runner.verdicts(samples)
            metrics = end_to_end(samples, walls, verdicts, statistics.median(setups))
            units = END_TO_END_UNITS
        else:
            plain, plain_walls = runner.replay(seconds / 2, 1)
            runner.tracer = tracer = Tracer()
            tracer.install()
            try:
                samples, walls = runner.replay(seconds / 2, 1)
            finally:
                tracer.uninstall()
                runner.tracer = None
            verdicts = runner.verdicts(plain + samples)[len(plain):]
            ratio = (len(samples) / sum(walls)) / (len(plain) / sum(plain_walls))
            metrics, units = per_layer(tracer, len(samples), ratio), PER_LAYER_UNITS
            tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(ops[index].label, v) for (index, _, _), v in zip(samples, verdicts)
                if v.kind != "ok"]
    unknown = sorted({f"{label}: {v.detail}" for label, v in failures if v.kind == "fail"})
    known = sorted({v.detail for _, v in failures if v.kind == "known"})
    return {
        "correct": not unknown,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "passes": len(samples) // len(ops),
        "known": known,
        "unknown": unknown,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in result["unknown"]:
        print(f"WRONG OUTPUT {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['attempted']} ops in "
          f"{result['passes']} passes, {result['failed']} failed "
          f"(known defects: {', '.join(result['known']) or 'none'}; "
          f"unexplained: {len(result['unknown'])})")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
