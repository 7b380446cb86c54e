"""Golden audit reports: every axiom's (passed, counterexample), the E10 branch counts
and the number of calls each functional got.

The perfbench audits all pass, so a counterexample's text is seen by no
byte-identity check; these reports pin it.  ``audit_golden.json`` was
recorded by ``golden_reports()`` from the audit whose derived probes,
noise and local envelope were still built by ``Fraction`` arithmetic, so
the integer forms must reproduce them exactly.  A changed call count shows
a changed clamp ladder that the reports of coherent functionals miss.
Each setting runs the five functionals as one joint audit, which gives
each the report an audit of it alone gives
(``test_joint_audit_equals_one_audit_per_functional``).
"""

import json
import os
from fractions import Fraction

from gtue import CredalSet, StateSpace
from gtue.audit import (audit_axioms, broken_point_spread_bonus, broken_sup_plus_one,
                        upper_envelope, vacuous_functional)

GOLDEN = os.path.join(os.path.dirname(__file__), "audit_golden.json")
TRIALS = 30

# One exact and one float envelope per arity; the exact arity-3 set has a zero mass,
# so E10's finite branch runs, and the arity-2 one has int masses and thirds.
ENVELOPES = {
    2: (CredalSet([(Fraction(1, 3), Fraction(2, 3)), (1, 0)]),
        CredalSet([(0.3, 0.7), (0.6, 0.4)])),
    3: (CredalSet([(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                   (Fraction(1, 10), Fraction(9, 10), 0)]),
        CredalSet([(0.5, 0.25, 0.25), (0.1, 0.5, 0.4)])),
}
NAMES = ("broken_sup_plus_one", "broken_point_spread_bonus", "vacuous_functional",
         "exact_envelope", "float_envelope")


def _counted(functional, calls: list, index: int):
    def counted(h):
        calls[index] += 1
        return functional(h)
    return counted


def golden_reports() -> list:
    """One JSON-ready record per (arity, seed, tol, functional)."""
    records = []
    for arity, (exact, flt) in ENVELOPES.items():
        space = StateSpace(tuple(map(str, range(arity))))
        functionals = [broken_sup_plus_one(), broken_point_spread_bonus(),
                       vacuous_functional(), upper_envelope(exact), upper_envelope(flt)]
        for seed in range(3):
            for tol in (0, 1e-9):
                calls = [0] * len(functionals)
                reports = audit_axioms([_counted(f, calls, i) for i, f in enumerate(functionals)],
                                       space, trials=TRIALS, seed=seed, tol=tol)
                for name, report, count in zip(NAMES, reports, calls):
                    records.append({
                        "arity": arity, "seed": seed, "tol": repr(tol), "functional": name,
                        "results": {axiom: [r.passed, r.counterexample]
                                    for axiom, r in report.results.items()},
                        "e10_branches": report.e10_branches, "calls": count})
    return records


def test_audit_reports_match_the_golden_file():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    got = golden_reports()
    assert len(got) == len(golden) == 60
    for record, want in zip(got, golden):
        assert record == want, {key: record[key] for key in ("arity", "seed", "tol",
                                                              "functional")}
    # The file pins failures of every broken functional, and the float envelope's at tol 0.
    failing = {record["functional"] for record in golden
               if not all(passed for passed, _ in record["results"].values())}
    assert {"broken_sup_plus_one", "broken_point_spread_bonus", "float_envelope"} <= failing
