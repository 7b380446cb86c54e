import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from gtue import NEG_INF, POS_INF, add, neg, payload, scale, to_text
from gtue.errors import UndefinedProduct
from gtue.xreal import (
    close_within,
    le_within,
    raw_add,
    raw_close_within,
    raw_le_within,
    raw_neg,
    raw_scale,
)

finite_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
anything = st.one_of(finite_floats, st.just(POS_INF), st.just(NEG_INF))


def test_convention_sums():
    assert add(POS_INF, NEG_INF) is POS_INF
    assert add(NEG_INF, POS_INF) is POS_INF
    assert add(3.0, NEG_INF) is NEG_INF
    assert add(NEG_INF, NEG_INF) is NEG_INF
    assert add(5, POS_INF) is POS_INF
    assert add(POS_INF, POS_INF) is POS_INF
    assert add(2.5, 4.0) == 6.5


def test_convention_products():
    assert scale(0, POS_INF) == 0
    assert scale(0, NEG_INF) == 0
    assert scale(POS_INF, 0) == 0
    assert scale(-2, POS_INF) is NEG_INF
    assert scale(-2, NEG_INF) is POS_INF
    assert scale(Fraction(1, 2), POS_INF) is POS_INF
    assert scale(POS_INF, 3) is POS_INF
    assert scale(POS_INF, POS_INF) is POS_INF


def test_undefined_products():
    with pytest.raises(UndefinedProduct):
        scale(POS_INF, -1)
    with pytest.raises(UndefinedProduct):
        scale(POS_INF, NEG_INF)
    with pytest.raises(UndefinedProduct):
        scale(NEG_INF, 1)


def test_neg():
    assert neg(POS_INF) is NEG_INF
    assert neg(NEG_INF) is POS_INF
    assert neg(0) == 0
    assert neg(-3.5) == 3.5


def test_public_conventions_normalise_their_operands():
    """A caller's own float("inf") or "inf" is not the canonical object the
    raw bodies test by identity; the public forms must still apply the conventions."""
    assert add(float("inf"), float("-inf")) is POS_INF
    assert neg(float("inf")) is NEG_INF
    with pytest.raises(UndefinedProduct):
        scale(float("inf"), -1)
    assert add("inf", 1) is POS_INF


def test_no_nan():
    with pytest.raises(ValueError):
        payload(float("nan"))


def test_total_order():
    assert payload(NEG_INF) < payload(-1e308) < payload(0) < payload(1e308) < payload(POS_INF)
    assert payload(Fraction(1, 2)) == payload(0.5)
    assert payload(Fraction(1, 3)) < payload(0.34)


@given(a=finite_floats, b=finite_floats)
def test_finite_addition_is_plain_addition(a, b):
    assert add(a, b) == a + b


@given(a=anything)
def test_pos_inf_absorbs(a):
    assert add(a, POS_INF) is POS_INF


@given(lam=st.fractions(0, 10), mu=st.fractions(0, 10),
       a=st.one_of(st.fractions(0, 100), st.just(POS_INF)))
def test_scale_composition_nonnegative(lam, mu, a):
    assert scale(lam, scale(mu, a)) == scale(lam * mu, a)


@given(a=anything, b=anything, c=anything)
def test_order_compatible_with_addition(a, b, c):
    if a <= b:
        assert add(a, c) <= add(b, c)


@given(x=st.one_of(st.fractions(-100, 100), st.integers(-10**9, 10**9)))
def test_text_round_trip_exact(x):
    back = payload(to_text(x))
    assert back == x
    # Exact in, exact out: the text never goes through a float.
    assert isinstance(back, (int, Fraction)) and not isinstance(back, bool)


def test_text_infinities_and_ratios():
    assert to_text(POS_INF) == "inf"
    assert to_text(NEG_INF) == "-inf"
    assert to_text(Fraction(1, 3)) == "1/3"
    assert payload("1/3") == Fraction(1, 3)
    assert to_text(Fraction(49, 100)) == "0.49"


def test_neg_is_involutive():
    for value in (POS_INF, NEG_INF, 2, Fraction(-3, 7)):
        assert neg(neg(value)) == value


def test_sum_and_tolerant_compare():
    assert le_within(1.0, 1.0 - 1e-12, 1e-9)
    assert not le_within(2, 1, 0.5)
    assert le_within(POS_INF, POS_INF, 0)


def test_exactness_preserved_for_fractions():
    out = add(Fraction(1, 3), Fraction(1, 6))
    assert isinstance(out, Fraction) and out == Fraction(1, 2)
    out = scale(Fraction(2, 5), Fraction(5, 2))
    assert isinstance(out, Fraction) and out == 1


def test_float_payloads_stay_floats():
    assert isinstance(add(0.1, 0.2), float)
    assert math.isclose(add(0.1, 0.2), 0.3)


# Raw payloads as payload() gives them: the infinities are its canonical objects.
payloads = st.one_of(
    st.integers(-10**6, 10**6), st.fractions(-100, 100),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((math.inf, -math.inf))).map(payload)


# Operands as a caller may pass them: payloads, plus infinities that are
# not the canonical objects: float("inf") is not math.inf.
operands = st.one_of(payloads, st.sampled_from((float("inf"), float("-inf"))))


def _outcome(fn, *args):
    """(type, value) of fn's result, or the UndefinedProduct it raises."""
    try:
        result = fn(*args)
    except UndefinedProduct:
        return UndefinedProduct
    # An infinity must be payload()'s own object, so callers may test it by identity.
    assert result is payload(result)
    return type(result), result


@given(a=operands, b=operands, tol=payloads.filter(lambda t: t >= 0))
def test_public_forms_mirror_the_raw_forms(a, b, tol):
    x, y = payload(a), payload(b)
    assert _outcome(add, a, b) == _outcome(raw_add, x, y)
    assert _outcome(neg, a) == _outcome(raw_neg, x)
    assert _outcome(scale, a, b) == _outcome(raw_scale, x, y)
    assert le_within(a, b, tol) == raw_le_within(x, y, tol)
    assert close_within(a, b, tol) == raw_close_within(x, y, tol)


def test_an_exact_zero_tolerance_compares_exactly():
    third = Fraction(1, 3)
    assert raw_le_within(third, third, 0)
    assert raw_le_within(third, third, Fraction(0))
    # A float 0.0 keeps the add, which turns the exact 1/3 into the float below it.
    assert not raw_le_within(third, third, 0.0)
    assert raw_le_within(third, third + Fraction(1, 10**20), 0)
    assert not raw_le_within(third + Fraction(1, 10**20), third, Fraction(0))


@given(a=payloads, b=payloads, zero=st.sampled_from((0, Fraction(0), 0.0, -0.0)))
def test_a_zero_tolerance_agrees_with_the_add_path(a, b, zero):
    expected = not a > raw_add(b, zero)
    if isinstance(zero, float):
        assert raw_le_within(a, b, zero) == expected
    else:
        # An int or Fraction zero compares a > b with no add: b + 0 is b.
        with mock.patch("gtue.xreal.raw_add", side_effect=AssertionError("added")):
            assert raw_le_within(a, b, zero) == expected


@pytest.mark.parametrize("refused, match", [
    (lambda: payload("--inf"), "could not convert"),
], ids=["doubled-sign"])
def test_refuses_invalid_input(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()


def test_a_subclass_of_int_or_fraction_is_kept():
    class Count(int):
        pass

    class Exact(Fraction):
        pass

    for value in (Count(3), Exact(1, 3)):
        assert payload(value) is value
