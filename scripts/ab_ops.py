#!/usr/bin/env python3
"""Time two checkouts op by op in one process, alternating, to size a change.

Each checkout's ``src/gtue`` is copied under its own package name, so both
import side by side (gtue has only relative imports; the script checks
that no module named ``gtue`` is loaded).  The ops come from PARENT's
``perfbench/workloads.py``.  Every op runs once on each side first, and
the script refuses to time if any op's exit code or stdout differs.  Each
round then runs every op on both sides, the side that goes first
alternating from op to op.  The script prints, per op kind, the sum over
ops of each op's minimum time on each side, and the median and range of
the per-round ratios parent/change of the pass times.

This is a sizing aid: whole benchmark runs, as ``scripts/bench_pairs.py``
makes them, are what a gain is judged on.

Usage: python scripts/ab_ops.py PARENT CHANGE --workload W
                                [--seed 1] [--rounds 8] [--tiny]
"""

import argparse
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

SIDES = ("parent", "change")


def load_cli(root: str, scratch: str, side: str):
    """``cli.main`` of the checkout's src/gtue, imported as the package ``ab_<side>``."""
    package = f"ab_{side}"
    shutil.copytree(os.path.join(root, "src", "gtue"), os.path.join(scratch, package),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{package}.cli").main


def run_op(main, argv) -> tuple:
    """(exit code, stdout) of one command line."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def time_op(main, argv) -> float:
    start = perf_counter()
    run_op(main, argv)
    return perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--tiny", action="store_true", help="the self-test's small instances")
    args = parser.parse_args(argv)
    roots = [os.path.abspath(args.parent), os.path.abspath(args.change)]

    with tempfile.TemporaryDirectory() as scratch:
        sys.path[:0] = [scratch, os.path.join(roots[0], "perfbench")]
        mains = [load_cli(root, scratch, side) for root, side in zip(roots, SIDES)]
        from workloads import FULL, TINY, WORKLOADS
        loaded = [name for name in sys.modules if name == "gtue" or name.startswith("gtue.")]
        if loaded:
            sys.exit(f"a gtue module is loaded, so the sides may share code: {loaded}")
        work = os.path.join(scratch, "work")
        os.makedirs(work)
        ops = WORKLOADS[args.workload](args.seed, work, TINY if args.tiny else FULL)

        differ = [op.label for op in ops
                  if run_op(mains[0], op.argv) != run_op(mains[1], op.argv)]
        if differ:
            sys.exit(f"{len(differ)} of {len(ops)} ops differ, not timing: {differ}")

        best = [[float("inf")] * len(ops) for _ in SIDES]
        ratios = []
        for _ in range(args.rounds):
            passes = [0.0, 0.0]
            for index, op in enumerate(ops):
                for side in ((0, 1) if index % 2 == 0 else (1, 0)):
                    elapsed = time_op(mains[side], op.argv)
                    passes[side] += elapsed
                    best[side][index] = min(best[side][index], elapsed)
            ratios.append(passes[0] / passes[1])

    kinds = defaultdict(lambda: [0.0, 0.0])
    for index, op in enumerate(ops):
        kind = op.label.split("#")[0].split("-")[0]
        for side in (0, 1):
            kinds[kind][side] += best[side][index] * 1000
    print(f"{args.workload} seed {args.seed}, {len(ops)} ops, {args.rounds} rounds; "
          f"minimum-sum ms per op kind, parent/change")
    for kind, (before, after) in sorted(kinds.items()):
        print(f"  {kind:8s} parent {before:9.2f}  change {after:9.2f}  x{before / after:.3f}")
    total = [sum(row) * 1000 for row in best]
    print(f"  {'pass':8s} parent {total[0]:9.2f}  change {total[1]:9.2f}  "
          f"x{total[0] / total[1]:.3f}")
    print(f"per-round ratio parent/change: median {statistics.median(ratios):.3f}, "
          f"range {min(ratios):.3f}-{max(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
