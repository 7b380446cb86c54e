"""Planted faults: inputs built to fail a check that valid inputs never fail.

A check that no test has seen fail could break silently, for example by a
typo that makes it always pass.  Each test here builds an input that the
named check must refuse and asserts that it does.
"""

from fractions import Fraction

import pytest

from gtue import (POS_INF, Cut, CutSystem, StateSpace, Transform, audit_axioms,
                  doob_gain_checks, from_values, payload)

F = Fraction


def test_a_window_passage_no_wider_than_the_window_fails_the_term_check():
    """U_1's member sits exactly b - a above its V_1 member: not strictly wider."""
    a, b = F(1), F(2)
    base = from_values(2, 2, lambda s: {(): F(3, 2), (0,): F(1, 2), (0, 0): F(3, 2)}.get(s, 1))
    # The transform gains exactly the telescoped 1 at (0, 0), so only the width check fails.
    process = from_values(2, 2, lambda s: F(5, 2) if s == (0, 0) else F(3, 2))
    cuts = CutSystem((), ((Cut(frozenset({(0,)})), Cut(frozenset({(0, 0)}))),))
    checks = doob_gain_checks(base, Transform(process, cuts, (a, b)))
    assert [c.situation for c in checks] == [(0, 0)]
    check = checks[0]
    assert check.identity_ok and check.bound_ok
    assert check.telescoped == b - a
    assert not check.terms_exceed_width
    assert not check.passed


@pytest.mark.parametrize("value", [None, [1], object(), 1j])
def test_payload_refuses_a_non_number(value):
    with pytest.raises(TypeError, match="cannot build an extended real"):
        payload(value)


def test_a_functional_blind_to_infinity_fails_e6_and_divergent_e10():
    """h -> max of h's finite cells (0 if none) ignores a +inf shift and stays finite on a
    +inf cell of positive charge, while E7 and E8 hold: E10 charges its divergent branch."""

    def finite_max(h):
        return max((v for v in h if v is not POS_INF), default=0)

    [report] = audit_axioms([finite_max], StateSpace(("0", "1", "2")), trials=20, seed=0)
    results = report.results
    assert results["E6"].counterexample == "f=(2.94, -7.53, 3.69), mu=inf: F(f+mu)=0 != F(f)+mu"
    assert results["E7"].passed and results["E8"].passed
    assert results["E10"].counterexample == \
        "h=(inf, 6.45, 6.44): clamp sequence diverges but F(h)=6.45"


def test_a_functional_that_falls_along_the_clamp_ladder_fails_e10():
    """h -> sup h below 2, else 0: the clamps min(h, 1) and min(h, 2) of a variable with a
    +inf cell read 1, then 0."""

    def drop_at_two(h):
        return max(h) if max(h) < 2 else 0

    [report] = audit_axioms([drop_at_two], StateSpace(("0", "1")), trials=20, seed=0)
    assert report.results["E10"].counterexample == \
        "h=(inf, 6.48): clamped values decreased (1 -> 0)"


def test_a_functional_deaf_to_clamps_fails_zero_charge_e10():
    """h -> +inf on a +inf cell, else 0: the +inf cells carry no charge (F of their
    indicator is 0), so E10 takes its finite branch, where the clamps all read 0
    but F(h) is +inf."""

    def inf_or_zero(h):
        return POS_INF if any(v is POS_INF for v in h) else 0

    [report] = audit_axioms([inf_or_zero], StateSpace(("0", "1", "2")), trials=20, seed=0,
                            tol=0)
    assert report.e10_branches["finite"] > 0
    assert report.results["E10"].counterexample == \
        "h=(inf, 6.45, 6.44): zero charge on the +inf cells but the clamp sequence " \
        "stops at 0 != inf"
