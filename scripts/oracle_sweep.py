#!/usr/bin/env python3
"""Random-instance sweep comparing the backward recursion to the brute-force oracle.

Samples small trees and bounded-below finitary variables (with occasional
+inf cells), evaluates both engines in exact rational arithmetic, and
reports agreement plus timing.

Usage: python scripts/oracle_sweep.py [--instances N] [--seed S] [--max-selections M]
"""

import argparse
import random
import sys
import time

sys.path.insert(0, "src")

from gtue import brute_force_upper, eval_finitary, selection_count, to_text
from gtue.testing import random_finitary, random_tree


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-selections", type=int, default=30_000)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    mismatches = 0
    selections_total = 0
    start = time.time()
    for i in range(args.instances):
        while True:
            size = rng.choice((2, 3))
            depth = rng.randint(1, 3)
            tree = random_tree(rng, size, depth)
            count = selection_count(tree, depth)
            if count <= args.max_selections:
                break
        f = random_finitary(rng, size, depth, inf_probability=0.15)
        engine = eval_finitary(tree, f)
        oracle = brute_force_upper(tree, f)
        selections_total += count
        marker = "ok " if oracle == engine else "XXX"
        if oracle != engine:
            mismatches += 1
        print(f"[{i:3d}] {marker} |X|={size} depth={depth} selections={count:6d} "
              f"engine={to_text(engine):>8} oracle={to_text(oracle):>8}")
    elapsed = time.time() - start
    print(f"\n{args.instances} instances, {selections_total} selections total, "
          f"{mismatches} mismatches, {elapsed:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
