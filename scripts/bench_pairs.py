#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload over alternating pairs of runs.

Each pair runs ``perfbench/run.py`` once in each checkout, and the side
that runs first alternates from pair to pair.  The result of a run is the
JSON object on the last line of its stdout.  For every end-to-end metric
the script prints each side's median and quartiles, the change's median
as a ratio of the parent's, and how many pairs the change won in the
direction ``BENCHMARK.json`` gives (a tie counts for neither side).  It
reads the checkouts and writes nothing in them but the benchmark's own
output.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W
                                     [--pairs 10] [--seconds 20] [--seed 1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root: str, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in a checkout: its JSON result."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seconds", str(seconds), "--seed", str(seed)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{root}: the benchmark run failed\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(pairs: list, better: dict) -> list:
    """One row per metric: name, parent and change quartiles, ratio, wins."""
    rows = []
    for name, direction in better.items():
        before = [parent["metrics"][name]["value"] for parent, _ in pairs]
        after = [change["metrics"][name]["value"] for _, change in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        base = quartiles(before)
        ratio = quartiles(after)[1] / base[1] if base[1] else float("nan")
        rows.append((name, base, quartiles(after), ratio, wins))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    roots = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    with open(os.path.join(roots[0], "BENCHMARK.json"), encoding="utf-8") as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}

    pairs = []
    for pair in range(args.pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        results = {side: run_once(roots[side], args.workload, args.seconds, args.seed)
                   for side in order}
        pairs.append((results[0], results[1]))
        for side, label in enumerate(("parent", "change")):
            result = results[side]
            values = " ".join(f"{name}={result['metrics'][name]['value']:.6g}"
                              for name in better)
            print(f"pair {pair} {label}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs; "
          f"median [q1, q3], change/parent ratio of medians, change wins")
    for name, base, new, ratio, wins in summarise(pairs, better):
        print(f"  {name:12s} parent {base[1]:.6g} [{base[0]:.6g}, {base[2]:.6g}]  "
              f"change {new[1]:.6g} [{new[0]:.6g}, {new[2]:.6g}]  "
              f"x{ratio:.3f}  wins {wins}/{len(pairs)} ({better[name]} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
