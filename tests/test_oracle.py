from fractions import Fraction

import pytest

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
from gtue.tree import situations_at
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
        with pytest.raises(CapExceeded):
            brute_force_upper(tree_a, indicator(2, 2, [(1, 1)]), cap=7)

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
