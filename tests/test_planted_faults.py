"""Planted faults: inputs built to fail a check that valid inputs never fail.

A check that no test has seen fail could break silently, for example by a
typo that makes it always pass.  Each test here builds an input that the
named check must refuse and asserts that it does.
"""

from fractions import Fraction

import pytest

from gtue import Cut, CutSystem, Transform, doob_gain_checks, from_values, payload

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
