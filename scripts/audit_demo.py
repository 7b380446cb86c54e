#!/usr/bin/env python3
"""Audit the axioms on a credal envelope and on the two documented broken functionals.

The three functionals are audited in one call, on one shared probe stream.

Usage: python scripts/audit_demo.py [--trials N] [--seed S]
"""

import argparse
import sys
from fractions import Fraction

sys.path.insert(0, "src")

from gtue import CredalSet, StateSpace
from gtue.audit import (
    audit_axioms,
    broken_point_spread_bonus,
    broken_sup_plus_one,
    upper_envelope,
)


def show(name, report):
    flag = "coherent" if report.all_passed else "VIOLATIONS"
    print(f"{name}: {flag} (E10 branches: {report.e10_branches})")
    for result in report.failures():
        print(f"  {result.name}: {result.counterexample}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    space = StateSpace(("0", "1", "2"))
    model = CredalSet([(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                       (Fraction(1, 10), Fraction(1, 2), Fraction(2, 5))])
    functionals = {"credal upper envelope": upper_envelope(model),
                   "sup + 1 (planted: sup bound)": broken_sup_plus_one(),
                   "point mass + spread bonus (planted: monotonicity)":
                       broken_point_spread_bonus()}
    reports = audit_axioms(functionals.values(), space, args.trials, args.seed)
    for name, report in zip(functionals, reports):
        show(name, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
