from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gtue import CredalSet, StateSpace
from gtue.audit import (
    audit_axioms,
    broken_point_spread_bonus,
    broken_sup_plus_one,
    upper_envelope,
    vacuous_functional,
)
from gtue.errors import NotBoundedBelow
from gtue.xreal import raw_add, raw_scale


def test_credal_functional_passes_everything():
    space = StateSpace(("0", "1", "2"))
    model = CredalSet([(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                       (Fraction(1, 10), Fraction(1, 2), Fraction(2, 5))])
    report = audit_axioms(upper_envelope(model), space, trials=200, seed=7)
    assert report.all_passed, [r.counterexample for r in report.failures()]
    assert report.alt_characterisation_consistent


def test_e10_exercises_both_branches():
    space = StateSpace(("0", "1", "2"))
    # State 2 carries zero mass under every extreme point, so +inf cells
    # confined to it have zero upper probability: the finite branch.
    model = CredalSet([(Fraction(1, 2), Fraction(1, 2), 0),
                       (Fraction(1, 10), Fraction(9, 10), 0)])
    report = audit_axioms(upper_envelope(model), space, trials=200, seed=3)
    assert report.all_passed, [r.counterexample for r in report.failures()]
    assert report.e10_branches["finite"] > 0
    assert report.e10_branches["divergent"] > 0


def test_vacuous_functional_is_coherent():
    space = StateSpace(("0", "1"))
    report = audit_axioms(vacuous_functional(), space, trials=150, seed=2)
    assert report.all_passed, [r.counterexample for r in report.failures()]


def test_sup_plus_one_fails_the_sup_bound():
    space = StateSpace(("0", "1", "2"))
    report = audit_axioms(broken_sup_plus_one(), space, trials=200, seed=11)
    assert not report.results["E5"].passed
    assert report.results["E5"].counterexample is not None
    assert not report.results["C1"].passed
    assert not report.results["E1"].passed
    # Sub-additivity and monotonicity survive: sup is well behaved there.
    assert report.results["E2"].passed
    assert report.results["E4"].passed


def test_sup_plus_one_keeps_e10():
    # min(h, L) + 1 rises to F(h) = +inf: the functional is continuous along
    # non-decreasing sequences although it breaks E7.
    space = StateSpace(("0", "1", "2"))
    report = audit_axioms(broken_sup_plus_one(), space, trials=200, seed=11)
    assert not report.results["E7"].passed
    assert report.e10_branches["divergent"] > 0
    assert report.results["E10"].passed, report.results["E10"].counterexample


def test_divergent_bound_failures_are_charged_to_e8():
    # The lower envelope of a credal set is super-additive, so the E8 lower
    # bound on the divergent clamps fails, yet every clamp sequence rises to
    # F(h) = +inf because each point gives the +inf cells positive mass.
    points = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 5), Fraction(4, 5))]

    def lower_envelope(h):
        a, b = h
        return min(raw_add(raw_scale(p, a), raw_scale(q, b)) for p, q in points)

    report = audit_axioms(lower_envelope, StateSpace(("0", "1")), trials=100, seed=4)
    assert not report.results["E8"].passed
    assert report.e10_branches["divergent"] > 0
    assert report.results["E10"].passed, report.results["E10"].counterexample


@pytest.mark.parametrize("cell", [float("-inf"), -1e308 * 10], ids=["literal", "overflow"])
def test_upper_envelope_refuses_any_neg_inf_float(cell):
    envelope = upper_envelope(CredalSet([(Fraction(1, 2), Fraction(1, 2))]))
    with pytest.raises(NotBoundedBelow):
        envelope((cell, 1))


def test_point_spread_bonus_fails_monotonicity():
    space = StateSpace(("0", "1", "2"))
    report = audit_axioms(broken_point_spread_bonus(), space, trials=500, seed=11)
    assert not report.results["E4"].passed
    assert report.results["E4"].counterexample is not None
    # Constants and sub-additivity still hold for this functional.
    assert report.results["E1"].passed
    assert report.results["E2"].passed


def test_report_shape():
    space = StateSpace(("0", "1"))
    model = CredalSet([(Fraction(1, 2), Fraction(1, 2))])
    report = audit_axioms(upper_envelope(model), space, trials=40, seed=0)
    assert set(report.results) >= {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                                   "E9", "E10", "C1", "C2", "C3",
                                   "countable_subadditivity"}
    assert report.trials == 40
    assert report.failures() == []


def test_tiny_charge_on_the_inf_cells_is_audited_exactly():
    # The upper probability 1/10^400 of the +inf cell underflows a float to 0.0.
    tiny = Fraction(1, 10**400)
    model = CredalSet([(tiny, 1 - tiny)])
    report = audit_axioms(upper_envelope(model), StateSpace(("0", "1")), trials=30,
                          seed=0, tol=0)
    assert report.all_passed, [r.counterexample for r in report.failures()]
    assert report.e10_branches["divergent"] > 0


# Functional calls of this audit at the commit before the exact divergent
# E10 branch, whose clamp ladder climbed past a ceiling of 1e12.
CLAMP_LADDER_CALLS = 1702


def test_audit_calls_stay_well_below_the_clamp_ladder():
    model = CredalSet([(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                       (Fraction(1, 10), Fraction(1, 2), Fraction(2, 5))])
    envelope = upper_envelope(model)
    calls = 0

    def counted(h):
        nonlocal calls
        calls += 1
        return envelope(h)

    report = audit_axioms(counted, StateSpace(("0", "1", "2")), trials=20, seed=1, tol=0)
    assert report.all_passed
    assert report.e10_branches["divergent"] == 20
    assert calls <= 0.6 * CLAMP_LADDER_CALLS, calls


@st.composite
def _exact_credal_sets(draw):
    arity = draw(st.integers(2, 4))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(st.integers(0, 5), min_size=arity, max_size=arity)
                       .filter(any))
        points.append(tuple(Fraction(w, sum(weights)) for w in weights))
    return arity, CredalSet(points)


@settings(max_examples=25, deadline=None)
@given(case=_exact_credal_sets(), seed=st.integers(0, 2**16))
def test_exact_credal_sets_pass_every_axiom_with_zero_tolerance(case, seed):
    arity, model = case
    space = StateSpace(tuple(str(i) for i in range(arity)))
    report = audit_axioms(upper_envelope(model), space, trials=10, seed=seed, tol=0)
    assert report.all_passed, [r.counterexample for r in report.failures()]
