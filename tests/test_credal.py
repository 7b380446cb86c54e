import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gtue import (
    CredalSet,
    POS_INF,
    NEG_INF,
    StateSpace,
    local_lower,
    local_upper,
    upper_row,
    vacuous,
)
from gtue.credal import raw_upper
from gtue.errors import NotBoundedAbove, NotBoundedBelow
from tests.conftest import same, seeded

_MAX = sys.float_info.max
# Small exact and float values tie often.  The float extremes make sums
# that overflow to a non-canonical inf, which a row below may already hold
# (2 * _MAX), and NaN where two of opposite signs meet.
_CELLS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    st.floats(-5, 5),
    st.sampled_from((-0.0, 0.5, 2.0, _MAX, -_MAX, 2 * _MAX, -2 * _MAX)))


@st.composite
def _points(draw, arity):
    """1-5 extreme points: degenerate ints, Fractions or floats, often with zero masses."""
    points = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("int", "fraction", "float")))
        if kind == "int":
            state = draw(st.integers(0, arity - 1))
            points.append(tuple(int(i == state) for i in range(arity)))
            continue
        weights = draw(st.lists(st.integers(0, 4), min_size=arity, max_size=arity)
                       .filter(any))
        total = sum(weights)
        if kind == "fraction":
            points.append(tuple(Fraction(w, total) for w in weights))
            continue
        masses = [w / total for w in weights]
        if draw(st.booleans()):
            # Inside PMF_SUM_TOL: two _MAX cells now overflow the sum.
            masses[masses.index(max(masses))] += 4e-13
        points.append(tuple(masses))
    return CredalSet(points)


@st.composite
def _rows(draw):
    arity = draw(st.integers(2, 5))
    model = draw(_points(arity))
    size = arity * draw(st.integers(1, 40))
    row = draw(st.lists(_CELLS, min_size=size, max_size=size))
    # A few canonical +inf cells, in zero-mass or supported columns alike.
    for at in draw(st.lists(st.integers(0, len(row) - 1), max_size=3)):
        row[at] = POS_INF
    if draw(st.integers(0, 9)) == 5:
        # Times a float mass it raises OverflowError; beside +inf, it must not.
        row[draw(st.integers(0, len(row) - 1))] = 10**400
    return model, row


def _blocks_by_loop(model, row):
    """upper_row one block at a time: the one-block loop's answer for each block."""
    size = model.size
    return [upper_row(model, row[base:base + size])[0] for base in range(0, len(row), size)]


class TestLocalEnvelopes:
    def test_upper_hand_example(self, model_a):
        assert local_upper(model_a, (0, 1)) == Fraction(7, 10)

    def test_lower_hand_example(self, model_a):
        assert local_lower(model_a, (0, 1)) == Fraction(3, 10)

    def test_constants(self, model_a):
        rng = seeded(5)
        for _ in range(100):
            c = Fraction(rng.randint(-900, 900), 100)
            assert local_upper(model_a, (c, c)) == c
            assert local_lower(model_a, (c, c)) == c

    def test_zero_mass_times_infinity(self):
        point = CredalSet([(1, 0)])
        assert local_upper(point, (0, POS_INF)) == 0
        assert local_lower(point, (0, NEG_INF)) == 0

    def test_infinity_next_to_extreme_rationals(self):
        # Float arithmetic would give tiny * inf = nan and huge + inf = OverflowError.
        tiny = Fraction(1, 10**400)
        assert local_upper(CredalSet([(tiny, 1 - tiny)]), (POS_INF, 0)) == POS_INF
        half = Fraction(1, 2)
        assert local_upper(CredalSet([(half, half)]), (10**400, POS_INF)) == POS_INF

    def test_unbounded_inputs_rejected(self, model_a):
        with pytest.raises(NotBoundedBelow):
            local_upper(model_a, (0, NEG_INF))
        with pytest.raises(NotBoundedAbove):
            local_lower(model_a, (0, POS_INF))

    def test_lower_never_exceeds_upper(self, model_a):
        rng = seeded(9)
        for _ in range(200):
            h = tuple(Fraction(rng.randint(-50, 50), 10) for _ in range(2))
            assert local_lower(model_a, h) <= local_upper(model_a, h)

    def test_vacuous_is_sup(self):
        model = vacuous(3)
        h = (1, -2, 5)
        assert local_upper(model, h) == 5
        assert local_lower(model, h) == -2

    def test_front_ends_take_any_sequence_of_numbers(self, model_a):
        assert local_upper(model_a, [0, 1]) == Fraction(7, 10)
        assert local_upper(model_a, ("0", 1)) == Fraction(7, 10)
        assert local_lower(model_a, iter((0.0, 1.0))) == 0.3
        with pytest.raises(NotBoundedBelow):
            local_upper(model_a, [0, float("-inf")])
        with pytest.raises(ValueError, match="length"):
            local_upper(model_a, [0, 1, 2])


class TestRowKernel:
    @settings(max_examples=300, deadline=None)
    @given(_rows())
    @example((CredalSet([(1, 0, 0), (0.5, 0.5, 0)]), [1, 2, POS_INF] * 5))
    @example((CredalSet([(1, 0), (Fraction(1, 2), Fraction(1, 2))]), [1, 2, 3, POS_INF, 5, 6]))
    @example((CredalSet([(0.5, 0.5 + 4e-13)]), [_MAX, _MAX, 1.0, 2.0]))
    # Four one-cell points; arity five.
    @example((vacuous(4), [1, 2.5, Fraction(1, 3), -2, 0, -1, 2, 2.0]))
    @example((CredalSet([(0.2,) * 5, (0, 0, 1, 0, 0)]), list(range(-4, 6))))
    # A tie between an int and a float sum keeps the first point's type.
    @example((CredalSet([(1, 0), (1.0, 0.0)]), [2, 5, 3, 7]))
    @example((CredalSet([(1.0, 0.0), (1, 0)]), [2, 5, 3, 7]))
    # Every product is -0.0, and 0 + (-0.0) is 0.0.
    @example((CredalSet([(0.5, 0.5), (1, 0)]), [-0.0, -0.0] * 3))
    # Fraction masses on int cells give integral Fractions.
    @example((CredalSet([(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))]),
              [1, 3, 3, 3, 0, 6]))
    def test_a_row_matches_the_one_block_loop(self, case):
        model, row = case
        try:
            got = upper_row(model, row)
        except OverflowError:  # a huge int against a float mass
            got = None
        try:
            want = _blocks_by_loop(model, row)
        except OverflowError:
            want = None
        if got is None or want is None:
            assert got is want
            return
        assert len(got) == len(want)
        for block, (g, w) in enumerate(zip(got, want)):
            assert same(g, w), (block, g, w)
            assert (g is POS_INF) == (w is POS_INF), block


    def test_models_of_one_shape_share_the_code_not_the_masses(self):
        a, b = CredalSet([(0.25, 0.75), (1, 0)]), CredalSet([(0.5, 0.5), (1, 0)])
        row = [4, 8, 0, 2]
        assert upper_row(a, row) == [7.0, 1.5]
        assert upper_row(b, row) == [6.0, 1.0]
        assert a._kernel[1].__code__ is b._kernel[1].__code__

    def test_a_model_pickles_after_a_row(self):
        model = CredalSet([(0.5, 0.5), (1, 0)])
        assert upper_row(model, [1, 2, 3, 4]) == [1.5, 3.5]
        copy = pickle.loads(pickle.dumps(model))
        assert copy == model and upper_row(copy, [1, 2, 3, 4]) == [1.5, 3.5]


class TestOverflowBesidePlusInf:
    """A block where some point reads +inf is +inf in either state order, even
    where a product before the +inf overflows a float; without a supported
    +inf the overflow still raises."""

    HALVES = CredalSet([(0.5, 0.5)])

    @pytest.mark.parametrize("h", [(10**400, POS_INF), (POS_INF, 10**400)])
    def test_plus_inf_absorbs_an_overflowing_product(self, h):
        assert upper_row(self.HALVES, list(h))[0] is POS_INF
        assert all(v is POS_INF for v in upper_row(self.HALVES, list(h) * 3))
        assert local_upper(self.HALVES, h) is POS_INF

    def test_a_zero_mass_plus_inf_does_not_absorb(self):
        model = CredalSet([(0.5, 0.5, 0)])
        for h in ((10**400, 1, POS_INF), (10**400, 1, 2)):
            with pytest.raises(OverflowError):
                upper_row(model, list(h))
            with pytest.raises(OverflowError):
                local_upper(model, h)


def _checked_loop(model, h):
    """``raw_upper``'s contract: refuse a wrong length, then a -inf cell, then run
    ``upper_row``'s one-block loop."""
    if len(h) != model.size:
        raise ValueError("variable length does not match the credal set")
    if any(isinstance(v, float) and v == NEG_INF for v in h):
        raise NotBoundedBelow("local upper expectation needs a bounded-below argument")
    return upper_row(model, h)[0]


def _result(evaluate, model, h):
    """Type, exact value (a float by its bits) and whether it is the canonical +inf;
    or the exception's type and message."""
    try:
        value = evaluate(model, h)
    except (ArithmeticError, ValueError, NotBoundedBelow) as exc:
        return type(exc), str(exc)
    return type(value), value.hex() if isinstance(value, float) else value, value is POS_INF


_BLOCK_CELLS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    st.floats(-5, 5),
    st.sampled_from((-0.0, POS_INF, NEG_INF, -2 * _MAX, _MAX, -_MAX, 2 * _MAX, 10**400,
                     Fraction(10**400, 3))))


@st.composite
def _block_cases(draw):
    """A variable on an exact, float or mixed credal set, often with zero masses (int or
    float zeros in a float point), degenerate points of an int or a Fraction mass 1, and
    sometimes a repeated point, of the other type of mass 1 where it is degenerate: a tie."""
    arity = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("exact", "float", "mixed")))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(st.integers(0, 4), min_size=arity, max_size=arity)
                       .filter(any))
        total = sum(weights)
        point_kind = kind if kind != "mixed" else draw(st.sampled_from(("exact", "float")))
        if point_kind == "float":
            zero = draw(st.sampled_from((0, 0.0)))
            masses = [w / total if w else zero for w in weights]
            if draw(st.booleans()):
                # Inside PMF_SUM_TOL: two _MAX cells now overflow the sum.
                masses[masses.index(max(masses))] += 4e-13
            points.append(tuple(masses))
        elif draw(st.booleans()):
            one = draw(st.sampled_from((1, Fraction(1))))
            points.append(tuple(one if i == weights.index(max(weights)) else 0
                                for i in range(arity)))
        else:
            points.append(tuple(Fraction(w, total) for w in weights))
    if draw(st.booleans()):
        tie = draw(st.sampled_from(points))
        points.append(tuple(Fraction(m) if m == 1 and type(m) is int else
                            1 if m == 1 and type(m) is Fraction else m for m in tie))
    # Mostly the model's length; one more or one fewer cell now and then.
    size = arity + draw(st.sampled_from((0, 0, 0, 0, 1, -1)))
    return CredalSet(points), tuple(draw(st.lists(_BLOCK_CELLS, min_size=size, max_size=size)))


class TestBlockForm:
    """``raw_upper``'s compiled block form against its reference, ``upper_row``."""

    @settings(max_examples=400, deadline=None)
    @given(_block_cases())
    # The first maximiser wins a tie, and its type with it.
    @example((CredalSet([(1, 0), (Fraction(1), 0)]), (2, 5)))
    @example((CredalSet([(Fraction(1), 0), (1, 0)]), (2, 5)))
    # An overflowing float sum ties the +inf a later point reads, and is kept.
    @example((CredalSet([(0.5 + 4e-13, 0.5, 0), (0, 0, 1.0)]), (_MAX, _MAX, POS_INF)))
    def test_matches_upper_row(self, case):
        model, h = case
        assert _result(raw_upper, model, h) == _result(_checked_loop, model, h)

    @pytest.mark.parametrize("model, h, want", [
        # The int-result rule: an int-mass winner on an int cell is an int.
        (CredalSet([(1, 0), (Fraction(1, 2), Fraction(1, 2))]), (3, 1), 3),
        (CredalSet([(1, 0), (Fraction(1, 2), Fraction(1, 2))]), (Fraction(3), 1), Fraction(3)),
        (CredalSet([(1, 0), (Fraction(1, 2), Fraction(1, 2))]), (1, 3), Fraction(2)),
        (CredalSet([(1, 0), (Fraction(1), 0)]), (2, 5), 2),
        (CredalSet([(Fraction(1), 0), (1, 0)]), (2, 5), Fraction(2)),
        (CredalSet([(Fraction(1, 3), Fraction(2, 3), 0)]), (Fraction(1, 2), 2, -7),
         Fraction(3, 2)),
        (CredalSet([(Fraction(1, 3), Fraction(2, 3))]), (POS_INF, Fraction(1, 2)), POS_INF),
        (CredalSet([(0.25, 0.75), (1.0, 0.0)]), (4, Fraction(1, 2)), 4.0),
        (CredalSet([(0.25, 0.75, 0.0)]), (-0.0, -0.0, -_MAX), 0.0),
        (CredalSet([(0.25, 0.75), (1.0, 0.0)]), (8, POS_INF), POS_INF),
        (CredalSet([(Fraction(1),)]), (3,), Fraction(3)),
        (CredalSet([(1.0,)]), (Fraction(1, 2),), 0.5),
    ])
    def test_the_block_form_runs_without_upper_row(self, model, h, want, monkeypatch):
        monkeypatch.setattr("gtue.credal.upper_row", None)
        got = raw_upper(model, h)
        assert same(got, want) and (got is POS_INF) == (want is POS_INF)


class TestCredalValidation:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            CredalSet([(-0.1, 1.1)])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            CredalSet([(0.5, 0.6)])

    def test_exact_masses_must_sum_to_exactly_one(self):
        with pytest.raises(ValueError):
            CredalSet([(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**13))])
        CredalSet([(Fraction(1, 3), Fraction(2, 3)), (1, 0)])

    def test_float_masses_keep_the_sum_tolerance(self):
        CredalSet([(0.1, 0.2, 0.7)])
        CredalSet([(0.5, 0.5 + 1e-13)])

    def test_rejects_tiny_negative_float_mass(self):
        # Accepted, it would give the upper expectation of (inf, 0) as -inf.
        with pytest.raises(ValueError):
            CredalSet([(-1e-13, 1 + 1e-13)])

    def test_rejects_nan_mass(self):
        with pytest.raises(ValueError):
            CredalSet([(float("nan"), 1.0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CredalSet([])

    def test_state_space_validation(self):
        with pytest.raises(ValueError):
            StateSpace(())
        with pytest.raises(ValueError):
            StateSpace(("a", "a"))
        sp = StateSpace(("a", "b"))
        assert sp.index("b") == 1
        with pytest.raises(ValueError):
            sp.index("c")


@pytest.mark.parametrize("refused, match", [
    (lambda: CredalSet([(0.5, 0.5), (1, 0, 0)]), "extreme points must share one length"),
], ids=["point-lengths"])
def test_refuses_invalid_input(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()
