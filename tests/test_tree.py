import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import gtue.xreal
from gtue import (
    NEG_INF,
    POS_INF,
    Cut,
    FinitaryVariable,
    Monotonicity,
    constant,
    explicit_sequence,
    is_complete,
    lift,
)
from gtue.errors import MonotonicityViolated
from gtue.tree import rank, situations_at, subtree_block, unrank
from gtue.xreal import payload


class TestRanking:
    @given(depth=st.integers(0, 4), arity=st.integers(1, 3), data=st.data())
    def test_rank_unrank_round_trip(self, depth, arity, data):
        i = data.draw(st.integers(0, arity**depth - 1))
        assert rank(unrank(i, depth, arity), arity) == i

    def test_lexicographic_layout(self):
        assert list(situations_at(2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_situations_at_is_unrank_order(self, arity):
        for depth in range(6):
            assert list(situations_at(depth, arity)) == \
                [unrank(i, depth, arity) for i in range(arity**depth)]

    @given(arity=st.integers(2, 4), depth=st.integers(0, 5), data=st.data())
    def test_subtree_block_is_the_prefix_filter(self, arity, depth, data):
        s = tuple(data.draw(st.lists(st.integers(0, arity - 1), max_size=depth)))
        below = [i for i, t in enumerate(situations_at(depth, arity)) if t[:len(s)] == s]
        assert list(subtree_block(s, depth, arity)) == below

    def test_subtree_block_rejects_shallower_depths(self):
        with pytest.raises(ValueError):
            subtree_block((0, 1), 1, 2)

    @pytest.mark.parametrize("s", [(0, 2), (0, 5), (-1,), (2,)])
    def test_subtree_block_rejects_states_off_the_tree(self, s):
        with pytest.raises(ValueError, match="leaves the tree"):
            subtree_block(s, 2, 2)


class TestLift:
    def test_constant_lift(self):
        f = constant(2, 3)
        lifted = lift(f, 2)
        assert lifted.values == (3,) * 4

    def test_depth_one_lift(self):
        f = FinitaryVariable(2, 1, (0, 1))
        assert lift(f, 2).values == (0, 0, 1, 1)

    def test_lift_is_identity_at_own_depth(self):
        f = FinitaryVariable(2, 1, (0, 1))
        assert lift(f, 1) is f

    @given(depth=st.integers(0, 2), extra=st.integers(0, 2), data=st.data())
    def test_lift_preserves_prefix_values(self, depth, extra, data):
        values = data.draw(st.lists(st.integers(-5, 5), min_size=2**depth,
                                    max_size=2**depth))
        f = FinitaryVariable(2, depth, tuple(values))
        lifted = lift(f, depth + extra)
        for s in situations_at(depth + extra, 2):
            assert lifted.value_at(s) == f.value_at(s)


class TestCuts:
    def test_level_cut_is_complete(self, space2):
        assert is_complete(Cut(frozenset(situations_at(2, 2))), space2.size)

    def test_mixed_depth_complete(self, space2):
        assert is_complete(Cut(frozenset({(0,), (1, 0), (1, 1)})), space2.size)

    def test_partial_cut(self, space2):
        assert not is_complete(Cut(frozenset({(0,)})), space2.size)

    def test_comparable_members_rejected(self):
        with pytest.raises(ValueError):
            Cut(frozenset({(0,), (0, 1)}))

    def test_member_before(self):
        cut = Cut(frozenset({(0,), (1, 0), (1, 1)}))
        assert cut.member_before((0, 1, 1)) == (0,)
        assert cut.member_before((1,)) is None

    def test_completeness_agrees_with_path_enumeration(self):
        from tests.conftest import seeded

        rng = seeded(13)
        for _ in range(60):
            size = rng.choice((2, 3))

            members = []

            def grow(s):
                if len(s) == 4 or (s and rng.random() < 0.5):
                    members.append(s)
                    return
                for x in range(size):
                    grow(s + (x,))

            grow(())
            if rng.random() < 0.5 and len(members) > 1:
                members.pop(rng.randrange(len(members)))
            cut = Cut(frozenset(members))
            exhaustive = all(
                any(path[:len(m)] == m for m in cut.members)
                for path in situations_at(4, size))
            assert is_complete(cut, size) == exhaustive


@st.composite
def _split_cuts(draw):
    """(arity, cut): an antichain grown from {()} by splitting members into their children.

    Every split keeps the cut complete; dropping members afterwards (which
    from {()} leaves the empty cut) makes it incomplete.
    """
    arity = draw(st.integers(1, 3))
    members = [()]
    for choice in draw(st.lists(st.integers(0, 10**6), max_size=8)):
        m = members[choice % len(members)]
        if len(m) < 5:
            members.remove(m)
            members.extend(m + (x,) for x in range(arity))
    for choice in draw(st.lists(st.integers(0, 10**6), max_size=3)):
        if members:
            members.pop(choice % len(members))
    return arity, Cut(frozenset(members))


@given(_split_cuts())
@example((2, Cut(frozenset())))
@example((3, Cut(frozenset({()}))))
def test_int_completeness_equals_the_fraction_leaf_measure(case):
    arity, cut = case
    measure = sum((Fraction(1, arity ** len(m)) for m in cut.members), Fraction(0))
    assert is_complete(cut, arity) == (measure == 1)


class TestTables:
    def test_finite_floats_are_taken_without_payload(self, monkeypatch):
        rng = random.Random(7)
        floats = [-0.0] + [rng.uniform(-5, 5) for _ in range(4095)]
        mixed = [rng.choice((1.5, 2, "inf", Fraction(1, 3), 10**400)) for _ in range(81)]
        calls = []
        monkeypatch.setattr(gtue.xreal, "payload", lambda v: calls.append(v) or payload(v))
        f = FinitaryVariable(2, 12, floats)
        g = FinitaryVariable(3, 4, mixed)
        monkeypatch.undo()
        assert calls == []
        assert list(f.values) == floats and all(map(float.__instancecheck__, f.values))
        assert all(got is POS_INF if raw == "inf" else got is raw
                   for got, raw in zip(g.values, mixed))

    @pytest.mark.parametrize("nan", [math.nan, float("nan")], ids=["math.nan", "fresh"])
    def test_nan_is_refused(self, nan):
        with pytest.raises(ValueError, match="NaN"):
            FinitaryVariable(2, 1, (0.5, nan))

    def test_cells_that_need_payload_get_it(self):
        f = FinitaryVariable(2, 2, (float("inf"), True, 10**400, " 1/4 "))
        assert f.values[0] is POS_INF
        assert [type(v) for v in f.values] == [float, int, int, Fraction]
        assert f.values[1:] == (1, 10**400, Fraction(1, 4))
        g = FinitaryVariable(2, 1, (2.5, -float("inf")))
        assert g.values[1] is NEG_INF


class TestSequences:
    def test_spot_check_catches_lies(self):
        f = constant(2, 1)
        g = constant(2, 0)
        with pytest.raises(MonotonicityViolated):
            explicit_sequence([f, g], Monotonicity.NON_DECREASING)


@pytest.mark.parametrize("refused, match", [
    (lambda: FinitaryVariable(2, 1, (0,)), "table has 1 entries, expected 2"),
    (lambda: FinitaryVariable(2, 2, (0,) * 4).value_at((0,)), "shallower than depth 2"),
    (lambda: constant(2, 0).combine(constant(3, 0), max), "different state spaces"),
    (lambda: lift(constant(2, 0, 2), 1), "greater or equal depth"),
    (lambda: explicit_sequence([]), "at least one element"),
], ids=["table-length", "value-too-shallow", "combine-spaces", "lift-shallower",
        "explicit-empty"])
def test_refuses_invalid_input(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()
