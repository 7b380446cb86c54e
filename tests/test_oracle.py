import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gtue import (
    CredalSet,
    FinitaryVariable,
    POS_INF,
    StateSpace,
    TreeModel,
    brute_force_upper,
    constant,
    eval_finitary,
    indicator,
    selection_count,
)
from gtue.errors import CapExceeded, DepthExceeded, SpaceMismatch
from gtue.testing import random_finitary, random_tree
from gtue.tree import rank, situations_at, unrank
from gtue.xreal import raw_add, raw_scale
from tests.conftest import seeded

F = Fraction


class TestSelectionCount:
    def test_binary_depth_two(self, space2, model_a):
        tree = TreeModel.stationary(space2, model_a, 2)
        assert selection_count(tree, 2) == 8

    def test_ternary_depth_two(self):
        space = StateSpace(("a", "b", "c"))
        model = CredalSet([(F(1, 3),) * 3, (F(1, 2), F(1, 2), 0)])
        tree = TreeModel.stationary(space, model, 2)
        assert selection_count(tree, 2) == 16

    def test_depth_zero(self, tree_a):
        assert selection_count(tree_a, 0) == 1

    @pytest.mark.parametrize("s", [(), (1,)])
    def test_refuses_depths_past_the_tree(self, space2, model_a, s):
        # As eval_finitary does: a depth-2 tree has no models for depth-3 variables.
        tree = TreeModel.stationary(space2, model_a, 2)
        for n in (3, 5):
            with pytest.raises(DepthExceeded):
                selection_count(tree, n, s)
            with pytest.raises(DepthExceeded):
                eval_finitary(tree, FinitaryVariable(2, n, (0,) * 2**n), s)

    def test_table_models_multiply_per_node(self, space2, model_a):
        single = CredalSet([(F(1, 2), F(1, 2))])
        tree = TreeModel.table(space2, {(): model_a, (0,): single, (1,): model_a}, 2)
        assert selection_count(tree, 2) == 4

    def test_deep_query_counts_its_subtree_only(self):
        model = CredalSet([(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(1, 4), F(3, 4))])
        tree = TreeModel.stationary(StateSpace(("0", "1")), model, 4)
        f = FinitaryVariable(2, 4, tuple(range(16)))
        s = (0, 1, 1)
        assert selection_count(tree, 4) == 3**15
        assert selection_count(tree, 4, s) == 3
        assert brute_force_upper(tree, f, s) == eval_finitary(tree, f, s) == F(27, 4)


    def test_table_subtree_count_is_the_product_below_s(self):
        rng = seeded(557)
        for _ in range(20):
            size = rng.choice((2, 3))
            tree = random_tree(rng, size, 4, kind="table")
            s = tuple(rng.randrange(size) for _ in range(rng.randint(1, 3)))
            want = 1
            for depth in range(len(s), 4):
                for t in situations_at(depth, size):
                    if t[:len(s)] == s:
                        want *= len(tree.local_model_at(t).extreme_points)
            assert selection_count(tree, 4, s) == want


class TestBruteForce:
    def test_hand_example(self, tree_a):
        assert brute_force_upper(tree_a, indicator(2, 2, [(1, 1)])) == F(49, 100)

    def test_constants(self, tree_a):
        for depth in (0, 1, 2):
            assert brute_force_upper(tree_a, constant(2, F(7, 3), depth)) == F(7, 3)

    def test_depth_one_reduces_to_local_upper(self, tree_a, model_a):
        from gtue import local_upper

        f = indicator(2, 1, [(1,)])
        expected = local_upper(model_a, (0, 1))
        assert brute_force_upper(tree_a, f) == expected

    def test_conditioning(self, tree_a):
        f = indicator(2, 2, [(1, 1)])
        assert brute_force_upper(tree_a, f, (1,)) == F(7, 10)
        assert brute_force_upper(tree_a, f, (0,)) == 0

    def test_cap_refusal(self, tree_a):
        f = indicator(2, 2, [(1, 1)])
        with pytest.raises(CapExceeded):
            brute_force_upper(tree_a, f, cap=7)
        assert selection_count(tree_a, 2) == 8
        # A cap equal to the count runs.
        assert brute_force_upper(tree_a, f, cap=8) == eval_finitary(tree_a, f)

    def test_refusal_stops_counting_past_the_cap(self, space2):
        """At depth 40 the exact count 3**(2**40 - 1) would take about 2 * 10**12 bits."""

        class DeepVariable:  # a real depth-40 table would hold 2**40 cells
            arity, depth = 2, 40

            def on_subtree(self, s):
                return ()

        model = CredalSet([(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(1, 4), F(3, 4))])
        tree = TreeModel.stationary(space2, model, 40)
        with pytest.raises(CapExceeded, match=r"^at least \d+ selections exceed the cap 10000000$"):
            brute_force_upper(tree, DeepVariable())
        assert selection_count(tree, 12) == 3**(2**12 - 1)

    def test_table_refusal_stops_within_a_level(self, space2, model_a):
        single = CredalSet([(F(1, 2), F(1, 2))])
        tree = TreeModel.table(space2, {(): single, (0,): model_a, (1,): model_a}, 2)
        with pytest.raises(CapExceeded, match="at least 2 selections exceed the cap 1"):
            brute_force_upper(tree, indicator(2, 2, [(1, 1)]), cap=1)

    def test_refuses_a_variable_the_tree_does_not_cover(self, space2, model_a):
        """Another arity or a depth past max_depth is refused as eval_finitary refuses it,
        on a stationary tree too, whose one model would fit any depth and any arity."""
        ternary = FinitaryVariable(3, 1, [1, 2, 3])
        deep = FinitaryVariable(2, 3, list(range(8)))
        for tree, f, error in ((TreeModel.stationary(space2, model_a, 1), ternary, SpaceMismatch),
                               (TreeModel.stationary(space2, model_a, 2), deep, DepthExceeded),
                               (TreeModel.by_depth(space2, [model_a] * 2, 2), deep, DepthExceeded)):
            with pytest.raises(error):
                eval_finitary(tree, f)
            with pytest.raises(error):
                brute_force_upper(tree, f)

    def test_a_query_at_the_leaves_is_the_cell_itself(self, tree_a):
        f = FinitaryVariable(2, 2, (1, F(5, 2), 3, POS_INF))
        for s, want in (((1, 0), 3), ((0, 1), F(5, 2)), ((1, 1), POS_INF)):
            got = brute_force_upper(tree_a, f, s)
            assert (type(got), got) == (type(want), want)

    def test_safe_float_sums_run_in_plain_arithmetic(self, tree_a, monkeypatch):
        def refused(*args):
            raise AssertionError("raw_add or raw_scale ran")

        f = FinitaryVariable(2, 2, (0.5, -0.0, POS_INF, 2.0**999))
        for tree in (tree_a.map_masses(float), tree_a):
            want = _outcome(_reference_upper, tree, f)
            with monkeypatch.context() as patch:
                patch.setattr("gtue.oracle.raw_add", refused)
                patch.setattr("gtue.oracle.raw_scale", refused)
                assert _outcome(brute_force_upper, tree, f) == want

    def test_zero_probability_infinity(self, tree_b):
        f = constant(2, 0, 1).combine(indicator(2, 1, [(1,)]),
                                      lambda a, b: POS_INF if b == 1 else a)
        assert brute_force_upper(tree_b, f) == 0

    def test_matches_engine_small_sweep(self):
        rng = seeded(555)
        for _ in range(60):
            size = rng.choice((2, 3))
            depth = rng.randint(1, 3)
            tree = random_tree(rng, size, depth)
            if selection_count(tree, depth) > 4000:
                continue
            f = random_finitary(rng, size, depth, inf_probability=0.15)
            assert brute_force_upper(tree, f) == eval_finitary(tree, f)

    def test_monotone_in_extreme_points(self):
        rng = seeded(556)
        space = StateSpace(("0", "1"))
        for _ in range(30):
            small = CredalSet([(F(7, 10), F(3, 10))])
            big = CredalSet([(F(7, 10), F(3, 10)), (F(1, 5), F(4, 5))])
            tree_small = TreeModel.stationary(space, small, 2)
            tree_big = TreeModel.stationary(space, big, 2)
            f = random_finitary(rng, 2, 2, inf_probability=0.1)
            assert brute_force_upper(tree_small, f) <= brute_force_upper(tree_big, f)


def _reference_upper(tree, f):
    """The enumeration through ``raw_scale`` and ``raw_add`` from the int 0, at the root:
    the reference for every form of ``brute_force_upper``'s sums."""

    def expectations(s):
        if len(s) == f.depth:
            return [f.values[rank(s, f.arity)]]
        child_tables = [expectations(s + (x,)) for x in range(f.arity)]
        out = []
        for p in tree.local_model_at(s).extreme_points:
            partial = [0]
            for mass, table in zip(p, child_tables):
                scaled = [raw_scale(mass, v) for v in table]
                partial = [raw_add(acc, sv) for acc in partial for sv in scaled]
            out.extend(partial)
        return out

    return max(expectations(()))


def _outcome(upper, tree, f):
    """Type, exact value (a float by its bits) and whether it is the canonical +inf;
    or the exception's type and message."""
    try:
        value = upper(tree, f)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return type(value), value.hex() if isinstance(value, float) else value, value is POS_INF


_MAX = sys.float_info.max
# Near the float range a sum can overflow, and a huge exact cell cannot meet a float.
_HUGE = (_MAX, -_MAX, 10**400, Fraction(-10**400, 3), 2.0**999, -(2**1000 - 1))


@st.composite
def _oracle_cases(draw):
    """A table tree of exact, float or mixed credal sets, often with zero masses, and a
    variable of the same mode with +inf cells (and -0.0 ones in float mode), sometimes
    one near the float range."""
    arity = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 3 if arity < 3 else 2))
    rational = draw(st.booleans())
    mixed = draw(st.integers(0, 3)) == 0

    def pmf():
        weights = draw(st.lists(st.integers(0, 3), min_size=arity, max_size=arity).filter(any))
        total = sum(weights)
        if rational != (mixed and draw(st.booleans())):
            if draw(st.integers(0, 5)) == 0:  # an int mass 1: int sums where cells are ints
                return tuple(int(x == weights.index(max(weights))) for x in range(arity))
            return tuple(Fraction(w, total) if w else draw(st.sampled_from((0, Fraction(0))))
                         for w in weights)
        masses = [w / total if w else draw(st.sampled_from((0, 0.0))) for w in weights]
        if draw(st.integers(0, 3)) == 0:
            masses[masses.index(max(masses))] += 4e-13  # inside PMF_SUM_TOL
        return tuple(masses)

    models = {unrank(i, d, arity): CredalSet([pmf() for _ in range(draw(st.integers(1, 2)))])
              for d in range(depth) for i in range(arity**d)}
    tree = TreeModel.table(StateSpace(tuple(str(x) for x in range(arity))), models, depth)
    if rational:
        cell = st.one_of(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                         st.integers(-3, 3), st.just(POS_INF))
    else:
        finite = st.floats(-5, 5, allow_nan=False)
        cell = st.one_of(finite, finite, st.just(POS_INF), st.just(-0.0))
    values = draw(st.lists(cell, min_size=arity**depth, max_size=arity**depth))
    if draw(st.integers(0, 4)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(_HUGE))
    return tree, FinitaryVariable(arity, depth, values)


def _halves_tree(float_node):
    """Exact halves at the root; under it, state 0 has ``float_node`` and state 1 a point mass."""
    space = StateSpace(("0", "1"))
    return TreeModel.table(space, {(): CredalSet([(Fraction(1, 2), Fraction(1, 2))]),
                                   (0,): float_node, (1,): CredalSet([(1, 0)])}, 2)


@settings(max_examples=300, deadline=None)
@given(_oracle_cases())
# A float sum overflows to +inf beside a 10**400 exact cell: +inf, not OverflowError.
@example((_halves_tree(CredalSet([(0.5 + 4e-13, 0.5)])),
          FinitaryVariable(2, 2, (_MAX, _MAX, 10**400, 0))))
# The same float node below the bound, and -0.0 cells that sum to 0.0.
@example((_halves_tree(CredalSet([(0.5 + 4e-13, 0.5)])),
          FinitaryVariable(2, 2, (2.0**999, 2.0**999, -0.0, 0))))
@example((_halves_tree(CredalSet([(0.5, 0.5), (0.0, 1.0)])),
          FinitaryVariable(2, 2, (-0.0, -0.0, -0.0, POS_INF))))
def test_brute_force_matches_the_raw_enumeration(case):
    tree, f = case
    assert _outcome(brute_force_upper, tree, f) == _outcome(_reference_upper, tree, f)
