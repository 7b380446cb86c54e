import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gtue import NEG_INF, POS_INF, XR, add, neg, scale
from gtue.errors import UndefinedProduct
from gtue.xreal import (
    close_within,
    le_within,
    payload,
    raw_add,
    raw_close_within,
    raw_le_within,
    raw_neg,
    raw_scale,
)

finite_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
anything = st.one_of(finite_floats.map(XR), st.just(POS_INF), st.just(NEG_INF))


def test_convention_sums():
    assert add(POS_INF, NEG_INF) == POS_INF
    assert add(NEG_INF, POS_INF) == POS_INF
    assert add(XR(3.0), NEG_INF) == NEG_INF
    assert add(NEG_INF, NEG_INF) == NEG_INF
    assert add(XR(5), POS_INF) == POS_INF
    assert add(POS_INF, POS_INF) == POS_INF
    assert add(XR(2.5), XR(4.0)) == XR(6.5)


def test_convention_products():
    assert scale(0, POS_INF) == XR(0)
    assert scale(0, NEG_INF) == XR(0)
    assert scale(POS_INF, XR(0)) == XR(0)
    assert scale(-2, POS_INF) == NEG_INF
    assert scale(-2, NEG_INF) == POS_INF
    assert scale(Fraction(1, 2), POS_INF) == POS_INF
    assert scale(POS_INF, XR(3)) == POS_INF
    assert scale(POS_INF, POS_INF) == POS_INF


def test_undefined_products():
    with pytest.raises(UndefinedProduct):
        scale(POS_INF, XR(-1))
    with pytest.raises(UndefinedProduct):
        scale(POS_INF, NEG_INF)
    with pytest.raises(UndefinedProduct):
        scale(NEG_INF, XR(1))


def test_neg():
    assert neg(POS_INF) == NEG_INF
    assert neg(NEG_INF) == POS_INF
    assert neg(XR(0)) == XR(0)
    assert neg(XR(-3.5)) == XR(3.5)


def test_no_nan():
    with pytest.raises(ValueError):
        XR(float("nan"))


def test_total_order():
    assert NEG_INF < XR(-1e308) < XR(0) < XR(1e308) < POS_INF
    assert XR(Fraction(1, 2)) == XR(0.5)
    assert XR(Fraction(1, 3)) < XR(0.34)


@given(a=finite_floats, b=finite_floats)
def test_finite_addition_is_plain_addition(a, b):
    assert add(XR(a), XR(b)).v == a + b


@given(a=anything)
def test_pos_inf_absorbs(a):
    assert add(a, POS_INF) == POS_INF


@given(lam=st.fractions(0, 10), mu=st.fractions(0, 10),
       a=st.one_of(st.fractions(0, 100).map(XR), st.just(POS_INF)))
def test_scale_composition_nonnegative(lam, mu, a):
    assert scale(lam, scale(mu, a)) == scale(lam * mu, a)


@given(a=anything, b=anything, c=anything)
def test_order_compatible_with_addition(a, b, c):
    if a <= b:
        assert add(a, c) <= add(b, c)


@given(x=st.one_of(st.fractions(-100, 100), st.integers(-10**9, 10**9)))
def test_text_round_trip_exact(x):
    value = XR(x)
    assert XR(value.to_text()) == value


def test_text_infinities_and_ratios():
    assert POS_INF.to_text() == "inf"
    assert NEG_INF.to_text() == "-inf"
    assert XR(Fraction(1, 3)).to_text() == "1/3"
    assert XR("1/3") == XR(Fraction(1, 3))
    assert XR(Fraction(49, 100)).to_text() == "0.49"


def test_neg_is_involutive():
    for value in (POS_INF, NEG_INF, XR(2), XR(Fraction(-3, 7))):
        assert neg(neg(value)) == value


def test_sum_and_tolerant_compare():
    assert le_within(XR(1.0), XR(1.0 - 1e-12), 1e-9)
    assert not le_within(XR(2), XR(1), 0.5)
    assert le_within(POS_INF, POS_INF, 0)


def test_exactness_preserved_for_fractions():
    out = add(XR(Fraction(1, 3)), XR(Fraction(1, 6)))
    assert isinstance(out.v, Fraction) and out.v == Fraction(1, 2)
    out = scale(Fraction(2, 5), XR(Fraction(5, 2)))
    assert isinstance(out.v, Fraction) and out.v == 1


def test_float_payloads_stay_floats():
    assert isinstance(add(XR(0.1), XR(0.2)).v, float)
    assert math.isclose(add(XR(0.1), XR(0.2)).v, 0.3)


# Raw payloads as payload() gives them: the infinities are its canonical objects.
payloads = st.one_of(
    st.integers(-10**6, 10**6), st.fractions(-100, 100),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((math.inf, -math.inf))).map(payload)


def _outcome(fn, *args):
    """(type, value) of fn's result as a payload, or the UndefinedProduct it raises."""
    try:
        result = fn(*args)
    except UndefinedProduct:
        return UndefinedProduct
    if isinstance(result, XR):
        result = result.v
    # An infinity must be payload()'s own object, so callers may test it by identity.
    assert result is payload(result)
    return type(result), result


@given(a=payloads, b=payloads, tol=payloads.filter(lambda t: t >= 0))
def test_raw_forms_mirror_the_xr_functions(a, b, tol):
    assert _outcome(raw_add, a, b) == _outcome(add, XR(a), XR(b))
    assert _outcome(raw_neg, a) == _outcome(neg, XR(a))
    assert _outcome(raw_scale, a, b) == _outcome(scale, XR(a), XR(b))
    assert raw_le_within(a, b, tol) == le_within(XR(a), XR(b), tol)
    assert raw_close_within(a, b, tol) == close_within(XR(a), XR(b), tol)
