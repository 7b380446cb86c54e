#!/usr/bin/env python3
"""Build a random supermartingale, transform it, and print the crossing ledger.

Draws a binary depth-6 tree and a non-negative supermartingale, applies
the upcrossing transform for a chosen window, verifies it exactly, and
prints the realized cuts with their telescoping gains.

Usage: python scripts/doob_demo.py [--seed S] [--a A --b B] [--depth D]
"""

import argparse
import random
import sys
from fractions import Fraction

sys.path.insert(0, "src")

from gtue import check_supermartingale, doob_gain_checks, doob_transform, to_text
from gtue.testing import random_supermartingale, random_tree


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--a", type=Fraction, default=Fraction(1))
    parser.add_argument("--b", type=Fraction, default=Fraction(2))
    parser.add_argument("--depth", type=int, default=6)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tree = random_tree(rng, 2, args.depth)
    M = random_supermartingale(tree, rng, args.depth,
                               leaf_high=4, slack_high=Fraction(1, 4))
    transform = doob_transform(tree, M, (), args.a, args.b)

    verdict = check_supermartingale(tree, transform.process, 0)
    print(f"window ({args.a}, {args.b}), root value {to_text(M.value_at(()))}")
    print(f"transform is a supermartingale: {verdict.is_supermartingale}")
    for k, (v_cut, u_cut) in enumerate(transform.cuts.pairs, start=1):
        print(f"  V_{k}: {sorted(v_cut.members)}")
        print(f"  U_{k}: {sorted(u_cut.members)}")
    checks = doob_gain_checks(M, transform)
    if not checks:
        print("no completed upcrossings realized within the horizon "
              "(try another --seed)")
    for check in checks:
        print(f"  post-U node {check.situation}: k={check.upcrossings} "
              f"gain={to_text(check.gain)} telescoped={to_text(check.telescoped)} "
              f"identity={check.identity_ok} bound={check.bound_ok}")
    return 0 if verdict.is_supermartingale and all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
