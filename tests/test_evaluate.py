from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gtue.credal
from gtue import (
    CredalSet,
    FinitaryVariable,
    Monotonicity,
    NEG_INF,
    POS_INF,
    StateSpace,
    TreeModel,
    add,
    certificate_bound,
    check_supermartingale,
    clamp_above_sequence,
    clamp_below_sequence,
    constant,
    constant_process,
    eval_finitary,
    eval_limit,
    eval_lower_finitary,
    eval_process,
    explicit_sequence,
    indicator,
    level_cut,
    lift,
    local_upper,
    scale,
    shift,
)
from gtue.errors import (
    DepthExceeded,
    DominanceFailed,
    MonotonicityViolated,
    NotASupermartingale,
    NotBoundedAbove,
    NotBoundedBelow,
    NotTerminal,
    SpaceMismatch,
)
from gtue.constructions import doob_transform, levy_transform
from gtue.evaluate import backward_levels
from gtue.oracle import brute_force_upper, selection_count
from gtue.testing import random_finitary, random_gamble, random_tree
from gtue.tree import situations_at, unrank
from tests.conftest import same, seeded

F = Fraction


class TestEvalFinitary:
    def test_two_step_indicator(self, tree_a):
        assert eval_finitary(tree_a, indicator(2, 2, [(1, 1)])) == F(49, 100)

    def test_conditioning(self, tree_a):
        f = indicator(2, 2, [(1, 1)])
        assert eval_finitary(tree_a, f, (1,)) == F(7, 10)
        assert eval_finitary(tree_a, f, (0,)) == 0
        assert eval_finitary(tree_a, f, (1, 1)) == 1

    def test_constants_skip_the_models(self, tree_a):
        for depth in range(4):
            assert eval_finitary(tree_a, constant(2, F(5, 2), depth)) == F(5, 2)

    def test_zero_mass_infinity(self, tree_b):
        f = FinitaryVariable(2, 1, (0, POS_INF))
        assert eval_finitary(tree_b, f) == 0

    def test_depth_cap(self, tree_a):
        with pytest.raises(DepthExceeded):
            eval_finitary(tree_a, constant(2, 1, depth=5))

    def test_bounded_below_required(self, tree_a):
        bad = FinitaryVariable(2, 1, (0, float("-inf")))
        with pytest.raises(NotBoundedBelow):
            eval_finitary(tree_a, bad)

    def test_space_mismatch(self, tree_a):
        with pytest.raises(SpaceMismatch):
            eval_finitary(tree_a, constant(3, 1, depth=1))

    def test_lift_invariance(self):
        rng = seeded(41)
        for _ in range(30):
            tree = random_tree(rng, 2, 4)
            f = random_finitary(rng, 2, rng.randint(0, 2), inf_probability=0.1)
            deeper = lift(f, f.depth + rng.randint(1, 2))
            assert eval_finitary(tree, f) == eval_finitary(tree, deeper)


class TestSituationsOffTheTree:
    """Every subtree walk inherits rank's refusal of a state >= arity or < 0."""

    @pytest.mark.parametrize("s", [(0, 2), (0, 5), (-1,)])
    def test_every_walk_refuses(self, tree_a, s):
        # (0, 2) used to read the cell of (1, 0); the others raised IndexError.
        f = FinitaryVariable(2, 2, (1, 2, 3, 4))
        walks = [
            lambda: eval_finitary(tree_a, f, s),
            lambda: eval_lower_finitary(tree_a, f, s),
            lambda: eval_limit(tree_a, clamp_above_sequence(f), s),
            lambda: eval_limit(tree_a, explicit_sequence([f], Monotonicity.NON_DECREASING), s),
            lambda: selection_count(tree_a, 2, s),
            lambda: brute_force_upper(tree_a, f, s),
            lambda: doob_transform(tree_a, eval_process(tree_a, f), s, 1, 2),
            lambda: levy_transform(tree_a, f, s, "5/4", "7/4", 1),
        ]
        for walk in walks:
            with pytest.raises(ValueError, match="leaves the tree"):
                walk()


class TestBoundednessOnTheQueriedSubtree:
    """Only the cells of s's subtree must be bounded: the value at s ignores the rest."""

    def test_neg_inf_outside_the_subtree(self, tree_a):
        f = FinitaryVariable(2, 2, (1, 2, float("-inf"), 4))
        assert eval_finitary(tree_a, f, (0,)) == F(17, 10)
        assert brute_force_upper(tree_a, f, (0,)) == F(17, 10)
        for walk in (eval_finitary, brute_force_upper):
            for s in ((), (1,), (1, 0)):
                with pytest.raises(NotBoundedBelow):
                    walk(tree_a, f, s)

    @pytest.mark.parametrize("template", [clamp_above_sequence, clamp_below_sequence])
    def test_clamp_template_with_neg_inf_outside_the_subtree(self, tree_a, template):
        seq = template(FinitaryVariable(2, 2, (1, 2, float("-inf"), 4)))
        out = eval_limit(tree_a, seq, (0,))
        assert (out.value, out.method) == (F(17, 10), "continuity")
        for s in ((), (1,), (1, 0)):
            with pytest.raises(NotBoundedBelow):
                eval_limit(tree_a, seq, s)

    def test_pos_inf_outside_the_subtree_of_a_lower_query(self, tree_a):
        f = FinitaryVariable(2, 2, (1, 2, POS_INF, 4))
        assert eval_lower_finitary(tree_a, f, (0,)) == F(13, 10)
        for s in ((), (1,), (1, 0)):
            with pytest.raises(NotBoundedAbove):
                eval_lower_finitary(tree_a, f, s)


class TestEvalProcess:
    def test_recursion_trace(self, tree_a):
        M = eval_process(tree_a, indicator(2, 2, [(1, 1)]))
        assert M.value_at(()) == F(49, 100)
        assert M.value_at((1,)) == F(7, 10)
        assert M.value_at((0,)) == 0
        assert M.value_at((1, 1)) == 1
        assert M.terminal_cut == level_cut(2, 2)

    def test_constant_gives_constant_process(self, tree_a):
        M = eval_process(tree_a, constant(2, 3, depth=2))
        assert all(v == 3 for level in M.levels for v in level)

    def test_is_supermartingale(self):
        rng = seeded(43)
        for _ in range(30):
            tree = random_tree(rng, rng.choice((2, 3)), 3)
            f = random_finitary(rng, tree.space.size, rng.randint(1, 3),
                                inf_probability=0.15)
            M = eval_process(tree, f)
            assert check_supermartingale(tree, M, 0).is_supermartingale


class TestEvalLower:
    def test_depth_one(self, tree_a):
        assert eval_lower_finitary(tree_a, indicator(2, 1, [(1,)])) == F(3, 10)

    def test_two_step(self, tree_a):
        assert eval_lower_finitary(tree_a, indicator(2, 2, [(1, 1)])) == F(9, 100)

    def test_constant(self, tree_a):
        assert eval_lower_finitary(tree_a, constant(2, F(5, 2), 1)) == F(5, 2)

    def test_bounded_above_required(self, tree_a):
        bad = FinitaryVariable(2, 1, (0, POS_INF))
        with pytest.raises(NotBoundedAbove):
            eval_lower_finitary(tree_a, bad)

    def test_sandwich(self, tree_a):
        rng = seeded(47)
        for _ in range(100):
            f = random_gamble(rng, 2, 2)
            assert eval_lower_finitary(tree_a, f) <= eval_finitary(tree_a, f)


class TestGlobalProperties:
    """Sup bound, sub-additivity, homogeneity, monotonicity, constant shift."""

    def test_sup_bound_over_cylinder(self):
        rng = seeded(53)
        for _ in range(100):
            tree = random_tree(rng, 2, 3)
            f = random_finitary(rng, 2, 2, inf_probability=0.1)
            s = (rng.randint(0, 1),)
            block = [f.value_at(s + (x,)) for x in (0, 1)]
            assert eval_finitary(tree, f, s) <= max(block)

    def test_subadditivity(self):
        rng = seeded(59)
        for _ in range(100):
            tree = random_tree(rng, 2, 3)
            f = random_finitary(rng, 2, 2, inf_probability=0.1)
            g = random_finitary(rng, 2, 2, inf_probability=0.1)
            lhs = eval_finitary(tree, f.combine(g, add))
            rhs = add(eval_finitary(tree, f), eval_finitary(tree, g))
            assert lhs <= rhs

    def test_homogeneity(self):
        rng = seeded(61)
        for _ in range(100):
            tree = random_tree(rng, 2, 3)
            f = random_finitary(rng, 2, 2)
            for lam in (F(0), F(1, 2), F(2)):
                lhs = eval_finitary(tree, f.map(lambda v: scale(lam, v)))
                assert lhs == scale(lam, eval_finitary(tree, f))

    def test_monotonicity(self):
        rng = seeded(67)
        for _ in range(100):
            tree = random_tree(rng, 2, 3)
            f = random_finitary(rng, 2, 2)
            bump = random_finitary(rng, 2, 2, low=0, high=3, inf_probability=0.05)
            g = f.combine(bump, add)
            assert eval_finitary(tree, f) <= eval_finitary(tree, g)

    def test_constant_additivity(self):
        rng = seeded(71)
        for _ in range(100):
            tree = random_tree(rng, 2, 3)
            f = random_finitary(rng, 2, 2)
            mu = F(rng.randint(-50, 50), 10)
            lhs = eval_finitary(tree, f.map(lambda v: add(v, mu)))
            assert lhs == add(eval_finitary(tree, f), mu)


class TestIteratedLaw:
    def test_exact_iteration(self):
        rng = seeded(73)
        for _ in range(50):
            tree = random_tree(rng, 2, 4)
            f = random_finitary(rng, 2, rng.randint(1, 4), inf_probability=0.1)
            for depth in range(f.depth):
                for i in range(2**depth):
                    s = tuple(int(b) for b in format(i, f"0{depth}b")) if depth else ()
                    children = tuple(eval_finitary(tree, f, s + (x,)) for x in (0, 1))
                    outer = local_upper(tree.local_model_at(s), children)
                    assert outer == eval_finitary(tree, f, s)

    def test_local_compatibility(self):
        rng = seeded(79)
        for _ in range(50):
            tree = random_tree(rng, 2, 4)
            depth = rng.randint(1, 4)
            f = random_finitary(rng, 2, depth, inf_probability=0.1)
            s = tuple(rng.randint(0, 1) for _ in range(depth - 1))
            children = tuple(f.value_at(s + (x,)) for x in (0, 1))
            assert eval_finitary(tree, f, s) == local_upper(tree.local_model_at(s), children)


@st.composite
def _limit_instances(draw):
    """A rational tree with zero masses, a bounded-below base with +inf cells, a situation."""
    arity = draw(st.integers(2, 3))
    depth = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(("stationary", "by_depth", "table")))
    space = StateSpace(tuple(str(i) for i in range(arity)))
    weights = st.lists(st.integers(0, 3), min_size=arity, max_size=arity).filter(any)

    def credal():
        points = draw(st.lists(weights, min_size=1, max_size=3))
        return CredalSet([tuple(F(w, sum(p)) for w in p) for p in points])

    if kind == "stationary":
        tree = TreeModel.stationary(space, credal(), depth)
    elif kind == "by_depth":
        tree = TreeModel.by_depth(space, [credal() for _ in range(depth)], depth)
    else:
        tree = TreeModel.table(space, {unrank(i, d, arity): credal()
                                       for d in range(depth) for i in range(arity**d)}, depth)
    value = st.one_of(st.just(POS_INF), st.fractions(-20, 20, max_denominator=6))
    values = draw(st.lists(value, min_size=arity**depth, max_size=arity**depth))
    s = draw(st.lists(st.integers(0, arity - 1), max_size=depth))
    return tree, FinitaryVariable(arity, depth, tuple(values)), tuple(s)


class TestEvalLimit:
    def test_zero_mass_clamp_converges_to_zero(self, tree_b):
        seq = clamp_above_sequence(FinitaryVariable(2, 1, (0, POS_INF)))
        out = eval_limit(tree_b, seq)
        assert out.status == "converged"
        assert out.value == 0

    def test_positive_mass_clamp_diverges(self, tree_a):
        seq = clamp_above_sequence(FinitaryVariable(2, 1, (0, POS_INF)))
        out = eval_limit(tree_a, seq)
        assert out.status == "converged"
        assert out.value == POS_INF
        assert out.iterations <= 64

    def test_stationary_sequence(self, tree_a):
        f = indicator(2, 2, [(1, 1)])
        seq = explicit_sequence([f], Monotonicity.NON_DECREASING)
        out = eval_limit(tree_a, seq)
        assert out.status == "converged"
        assert out.iterations == 1
        assert out.value == F(49, 100)

    @pytest.mark.parametrize("number", [float, F])
    @pytest.mark.parametrize("depth, items, want", [
        (1, [[0, 0], [0, 0], [5, 5]], 5),
        (0, [[0], ["1e-10"], [7]], 7)])
    def test_explicit_list_is_answered_by_its_last_item(self, number, depth, items, want):
        # However close two items' values are, the limit is the last item's.
        tree = TreeModel.stationary(StateSpace(("0", "1")),
                                    CredalSet([(number("0.5"), number("0.5"))]), 2)
        seq = explicit_sequence([FinitaryVariable(2, depth, tuple(map(number, item)))
                                 for item in items], Monotonicity.NON_DECREASING)
        out = eval_limit(tree, seq)
        assert (out.value, out.status, out.iterations, out.method) == \
            (number(want), "converged", 1, "continuity")

    def test_only_the_last_item_must_be_bounded_below(self, tree_a):
        seq = explicit_sequence([FinitaryVariable(2, 1, (NEG_INF, 0)), constant(2, 0),
                                 constant(2, 3)], Monotonicity.NON_DECREASING)
        assert eval_limit(tree_a, seq).value == 3

    def test_monotonicity_declaration_required(self, tree_a):
        seq = explicit_sequence([constant(2, 1)], Monotonicity.NONE)
        with pytest.raises(MonotonicityViolated):
            eval_limit(tree_a, seq)

    def test_lying_generator_caught_mid_run(self, tree_a):
        items = [constant(2, n) for n in range(20)] + [constant(2, 0)]
        with pytest.raises(MonotonicityViolated):
            seq = explicit_sequence(items, Monotonicity.NON_DECREASING)
            eval_limit(tree_a, seq)

    def test_up_down_consistency(self):
        rng = seeded(83)
        tol = 1e-9
        for _ in range(20):
            tree = random_tree(rng, 2, 3)
            g = random_gamble(rng, 2, 2)
            up = explicit_sequence(
                [g.map(lambda v: add(v, -F(1, 2**n))) for n in range(40)],
                Monotonicity.NON_DECREASING)
            down = explicit_sequence(
                [g.map(lambda v: add(v, F(1, 2**n))) for n in range(40)],
                Monotonicity.NON_INCREASING)
            lo = eval_limit(tree, up)
            hi = eval_limit(tree, down)
            assert lo.status == hi.status == "converged"
            assert abs(lo.value - hi.value) <= 2 * tol

    def test_plateau_before_divergence_is_inf(self):
        # min(g, 2^n) has upper expectation 2^n * 1e-24, so successive rungs
        # agree within tol for dozens of rungs although the limit is +inf.
        tree = TreeModel.stationary(StateSpace(("0", "1")),
                                    CredalSet([(1 - 1e-12, 1e-12)]), 2)
        g = FinitaryVariable(2, 2, (0, 0, 0, POS_INF))
        out = eval_limit(tree, clamp_above_sequence(g))
        assert (out.value, out.status, out.iterations, out.method) == \
            (POS_INF, "converged", 1, "continuity")

    def test_large_constant_is_not_divergent(self, tree_a):
        out = eval_limit(tree_a, clamp_above_sequence(constant(2, 2e12)))
        assert out.value == 2e12
        assert out.status == "converged"

    def test_large_explicit_item_is_not_divergent(self, tree_a):
        seq = explicit_sequence([constant(2, 0), constant(2, 1e13)],
                                Monotonicity.NON_DECREASING)
        out = eval_limit(tree_a, seq)
        assert (out.value, out.status, out.method) == (1e13, "converged", "continuity")

    def test_order_broken_past_the_budget_is_caught(self, tree_a):
        items = [constant(2, n) for n in range(20)] + [constant(2, 0)]
        with pytest.raises(MonotonicityViolated):
            seq = explicit_sequence(items, Monotonicity.NON_DECREASING)
            eval_limit(tree_a, seq)

    @settings(deadline=None)
    @given(instance=_limit_instances())
    def test_templates_answer_by_continuity(self, instance):
        tree, base, s = instance
        want = eval_finitary(tree, base, s)
        for seq in (clamp_above_sequence(base), clamp_below_sequence(base)):
            out = eval_limit(tree, seq, s)
            assert (out.value, out.status, out.iterations, out.method) == \
                (want, "converged", 1, "continuity")
        if want is not POS_INF:
            # The rung of the ladder min(base, 2^N) above every finite entry
            # already has the limit's value: +inf cells it clamps carry no
            # upper mass.
            level = 1
            while any(v != POS_INF and not v < level for v in base.values):
                level = 2 * level
            rung = base.map(lambda v: min(v, level))
            assert eval_finitary(tree, rung, s) == want



class TestLowerCuts:
    def test_sweep_constant_below_min(self):
        rng = seeded(89)
        for _ in range(100):
            tree = random_tree(rng, 2, 3)
            f = random_gamble(rng, 2, 2)
            base = eval_finitary(tree, f)
            for alpha in (f.inf(), add(f.inf(), -1), add(f.inf(), -100)):
                clamped = f.map(lambda v: v if v > alpha else alpha)
                assert eval_finitary(tree, clamped) == base

    def test_clamp_below_sequence_converges(self, tree_a):
        f = FinitaryVariable(2, 2, (-40, 3, -7, 5))
        out = eval_limit(tree_a, clamp_below_sequence(f))
        assert out.status == "converged"
        assert out.value == eval_finitary(tree_a, f)


class TestFatouFinitary:
    def test_eventually_constant_sequences(self):
        rng = seeded(97)
        for _ in range(100):
            tree = random_tree(rng, 2, 3)
            g = random_gamble(rng, 2, 2)
            cutoff = rng.randint(1, 4)
            noise = [random_gamble(rng, 2, 2, low=-2, high=2) for _ in range(cutoff)]
            items = [g.combine(n, add) for n in noise] + [g]
            # The tail is constant, so both the pointwise liminf (= g) and
            # the liminf of the values are exactly computable.
            liminf_evals = eval_finitary(tree, items[-1])
            assert eval_finitary(tree, g) <= liminf_evals

    def test_periodic_tail_gives_strict_content(self):
        rng = seeded(98)
        for _ in range(100):
            tree = random_tree(rng, 2, 3)
            g1 = random_gamble(rng, 2, 2)
            g2 = random_gamble(rng, 2, 2)
            pointwise_liminf = g1.combine(g2, min)
            liminf_evals = min(eval_finitary(tree, g1), eval_finitary(tree, g2))
            assert eval_finitary(tree, pointwise_liminf) <= liminf_evals


class TestHomogeneityAtInfinity:
    def test_clamp_ladder_matches_scaled_value(self):
        rng = seeded(101)
        for _ in range(50):
            zero_state = 1 if rng.random() < 0.4 else None
            tree = random_tree(rng, 2, 3, zero_state=zero_state)
            depth = rng.randint(1, 2)
            cells = [unrank(i, depth, 2) for i in range(2**depth) if rng.random() < 0.45]
            f = indicator(2, depth, cells)
            target = scale(POS_INF, eval_finitary(tree, f))
            blown = f.map(lambda v: scale(POS_INF, v))
            out = eval_limit(tree, clamp_above_sequence(blown))
            assert out.status == "converged"
            assert out.value == target


class TestCertificates:
    def test_tight_certificate(self, tree_a):
        f = indicator(2, 2, [(1, 1)])
        M = eval_process(tree_a, f)
        assert certificate_bound(tree_a, M, f) == eval_finitary(tree_a, f)

    def test_constant_sup_certificate(self, tree_a):
        f = indicator(2, 2, [(1, 1)])
        from gtue import constant_process

        M = constant_process(2, 2, 1, level_cut(2, 2))
        assert certificate_bound(tree_a, M, f) == 1

    def test_shifted_certificate(self, tree_a):
        f = indicator(2, 2, [(1, 1)])
        base = eval_finitary(tree_a, f)
        for c in (F(1, 10), F(1)):
            M = shift(eval_process(tree_a, f), c)
            assert certificate_bound(tree_a, M, f) == add(base, c)

    def test_dominance_failure_reports_witness(self, tree_a):
        f = indicator(2, 2, [(1, 1)])
        from gtue import constant_process

        M = constant_process(2, 2, F(1, 2), level_cut(2, 2))
        with pytest.raises(DominanceFailed) as err:
            certificate_bound(tree_a, M, f)
        assert err.value.witness == (1, 1)

    def test_non_supermartingale_rejected(self, tree_a):
        f = indicator(2, 1, [(1,)])
        from gtue import from_values

        M = from_values(2, 1, lambda s: 1 if len(s) else 0,
                        level_cut(2, 1))
        with pytest.raises(NotASupermartingale):
            certificate_bound(tree_a, M, f)


class TestTreeLayout:
    """Rank-ordered model levels and backward levels over the queried subtree."""

    def test_backward_levels_cover_the_subtree_only(self):
        rng = seeded(223)
        for trial in range(60):
            arity = rng.choice((2, 3))
            depth = rng.randint(0, 4)
            kind = ("stationary", "by_depth", "table")[trial % 3]
            tree = _mixed_tree(rng, arity, depth, kind)
            f = FinitaryVariable(arity, depth,
                                 tuple(_mixed_value(rng) for _ in range(arity**depth)))
            s = tuple(rng.randrange(arity) for _ in range(rng.randint(0, depth)))
            levels = backward_levels(tree, f, s=s)
            whole = backward_levels(tree, f)
            for d in range(depth + 1):
                if d < len(s):
                    assert levels[d] is None
                    continue
                assert len(levels[d]) == arity ** (d - len(s))
                below = [i for i in range(arity**d) if unrank(i, d, arity)[:len(s)] == s]
                assert levels[d] == [whole[d][i] for i in below]

    def test_constructor_errors(self, space2, model_a):
        with pytest.raises(ValueError, match="max_depth must be non-negative"):
            TreeModel.stationary(space2, model_a, -1)
        with pytest.raises(ValueError, match="by_depth assignment needs 3 levels, got 2"):
            TreeModel.by_depth(space2, [model_a, model_a], 3)
        with pytest.raises(ValueError, match=r"table assignment misses situation \(1,\)"):
            TreeModel.table(space2, {(): model_a, (0,): model_a}, 2)
        wide = CredalSet([(1, 0, 0)])
        with pytest.raises(SpaceMismatch):
            TreeModel.by_depth(space2, [model_a, wide], 1)
        with pytest.raises(SpaceMismatch):
            TreeModel.table(space2, {(): model_a, (0, 0): wide}, 1)

    def test_local_models_and_distinct_models_in_rank_order(self, space2, model_a):
        a, b = model_a, CredalSet([(1, 0)])
        c = CredalSet([(0, 1)])
        tree = TreeModel.table(space2, {(1,): a, (0,): b, (): c}, 2)
        assert [tree.local_model_at(s) for s in ((), (0,), (1,))] == [c, b, a]
        assert tree.distinct_models() == (c, b, a)
        with pytest.raises(DepthExceeded):
            tree.local_model_at((0, 0))
        assert TreeModel.by_depth(space2, [b, a, c], 2).distinct_models() == (b, a)

    @pytest.mark.parametrize("extra, message", [
        (((5,), (0, 0, 0)), r"situation \(5,\) leaves the tree: states run from 0 to 1"),
        (((0, 0),), r"table assignment has situation \(0, 0\) at or past max_depth 2"),
        (((1, 0, 1),), r"table assignment has situation \(1, 0, 1\) at or past max_depth 2"),
    ], ids=["off-the-tree", "at-max-depth", "past-max-depth"])
    def test_table_refuses_a_key_it_would_not_read(self, space2, model_a, extra, message):
        models = {(): model_a, (0,): model_a, (1,): model_a} | dict.fromkeys(extra, model_a)
        with pytest.raises(ValueError, match=message):
            TreeModel.table(space2, models, 2)

    @pytest.mark.parametrize("kind, s", [("table", (0, 3)), ("table", (2,)),
                                         ("stationary", (5,))],
                             ids=["table-rank-of-1.1", "table-index-error", "stationary"])
    def test_local_model_at_refuses_a_state_off_the_tree(self, space2, model_a, kind, s):
        if kind == "table":
            tree = TreeModel.table(space2, {u: CredalSet([(1, 0)]) if u == (1, 1) else model_a
                                            for d in range(3) for u in situations_at(d, 2)}, 3)
        else:
            tree = TreeModel.stationary(space2, model_a, 3)
        with pytest.raises(ValueError, match="leaves the tree: states run from 0 to 1"):
            tree.local_model_at(s)
        with pytest.raises(DepthExceeded):  # a situation too deep is refused by its depth first
            tree.local_model_at(s + (7,) * 3)

    def test_models_at_pairs_each_model_with_its_node_count(self, space2, model_a):
        b = CredalSet([(1, 0)])
        shared = TreeModel.by_depth(space2, [b, model_a], 2)
        assert list(shared.models_at(1, range(0, 2))) == [(model_a, 2)]
        table = TreeModel.table(space2, {(): b, (0,): model_a, (1,): b}, 2)
        assert list(table.models_at(1, range(1, 2))) == [(b, 1)]
        assert list(table.models_at(1, range(0, 2))) == [(model_a, 1), (b, 1)]

    def test_stationary_depth_is_not_materialised(self, space2, model_a):
        tree = TreeModel.stationary(space2, model_a, 10**12)
        assert tree.local_model_at((1,) * 50) == model_a
        # Still bounded by max_depth, as the other kinds are.
        for shallow in (TreeModel.stationary(space2, model_a, 2),
                        TreeModel.by_depth(space2, [model_a] * 2, 2)):
            with pytest.raises(DepthExceeded):
                shallow.local_model_at((0, 0))
            with pytest.raises(DepthExceeded):
                shallow.upper_level(2, [0] * 8)
        assert tree.map_masses(float).distinct_models() == \
            (CredalSet([(0.7, 0.3), (0.3, 0.7)]),)


def _reference_upper(model, children):
    """The per-node convention formula: max over points of sum add(scale(m, v))."""
    best = None
    for p in model.extreme_points:
        total = 0
        for mass, value in zip(p, children):
            total = add(total, scale(mass, value))
        if best is None or total > best:
            best = total
    return best


def _reference_levels(tree, f):
    arity = f.arity
    levels = {f.depth: list(f.values)}
    for depth in range(f.depth - 1, -1, -1):
        below = levels[depth + 1]
        levels[depth] = [_reference_upper(tree.local_model_at(unrank(i, depth, arity)),
                                          below[i * arity:(i + 1) * arity])
                         for i in range(arity**depth)]
    return levels


def _mixed_pmf(rng, size):
    """A PMF with int, Fraction or float masses and, often, zero masses."""
    kind = rng.choice(("int", "fraction", "float"))
    if kind == "int":
        state = rng.randrange(size)
        return tuple(int(i == state) for i in range(size))
    weights = [0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = 1
    total = sum(weights)
    if kind == "fraction":
        return tuple(F(w, total) for w in weights)
    return tuple(w / total for w in weights)


def _mixed_tree(rng, arity, depth, kind):
    space = StateSpace(tuple(str(i) for i in range(arity)))

    def credal():
        return CredalSet([_mixed_pmf(rng, arity) for _ in range(rng.randint(1, 3))])

    if kind == "stationary":
        return TreeModel.stationary(space, credal(), depth)
    if kind == "by_depth":
        return TreeModel.by_depth(space, [credal() for _ in range(depth)], depth)
    return TreeModel.table(space, {unrank(i, d, arity): credal()
                                   for d in range(depth) for i in range(arity**d)}, depth)


def _mixed_value(rng):
    kind = rng.choices(("inf", "int", "fraction", "float"), weights=(1, 2, 2, 4))[0]
    if kind == "inf":
        return POS_INF
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "fraction":
        return F(rng.randint(-50, 50), rng.randint(1, 12))
    return rng.uniform(-5, 5)


class TestKernelEquivalence:
    """The raw-payload kernel against the per-node formula, on every situation."""

    def test_matches_the_per_node_formula(self):
        rng = seeded(211)
        inf_at_zero_mass = inf_at_positive_mass = 0
        for trial in range(180):
            arity = rng.choice((2, 3))
            depth = rng.randint(0, 4)
            kind = ("stationary", "by_depth", "table")[trial % 3]
            tree = _mixed_tree(rng, arity, depth, kind)
            f = FinitaryVariable(arity, depth,
                                 tuple(_mixed_value(rng) for _ in range(arity**depth)))
            reference = _reference_levels(tree, f)
            for d in range(depth + 1):
                for i in range(arity**d):
                    s = unrank(i, d, arity)
                    assert same(eval_finitary(tree, f, s), reference[d][i]), (trial, s)
            process = eval_process(tree, f)
            assert all(same(got, want) for d in range(depth + 1)
                       for got, want in zip(process.levels[d], reference[d]))
            for i, value in enumerate(f.values if depth else ()):
                if value == POS_INF:
                    masses = [p[i % arity] for p in
                              tree.local_model_at(unrank(i // arity, depth - 1, arity))
                              .extreme_points]
                    inf_at_zero_mass += any(m == 0 for m in masses)
                    inf_at_positive_mass += any(m > 0 for m in masses)
        assert inf_at_zero_mass > 20 and inf_at_positive_mass > 20

    def test_deep_trees_match_level_by_level(self, monkeypatch):
        # Depth 5-7 rows hold many blocks, so whole levels run column by column.
        # Odd trials have no +inf; in even ones a few +inf cells send the rows
        # where they sit at a positive mass through the one-block loop.
        finite_columns = gtue.credal._finite_columns
        column_rows = []

        def counting(support, row, size):
            columns = finite_columns(support, row, size)
            column_rows.append(columns is not None)
            return columns

        monkeypatch.setattr(gtue.credal, "_finite_columns", counting)
        rng = seeded(223)
        for trial in range(36):
            arity = rng.choice((2, 3))
            depth = rng.randint(5, 7)
            kind = ("stationary", "by_depth", "table")[trial % 3]
            tree = _mixed_tree(rng, arity, depth, kind)
            values = [_mixed_value(rng) for _ in range(arity**depth)]
            for i, value in enumerate(values):
                if value is POS_INF and (trial % 2 or rng.random() < 0.9):
                    values[i] = rng.randint(-5, 5)
            f = FinitaryVariable(arity, depth, tuple(values))
            reference = _reference_levels(tree, f)
            process = eval_process(tree, f)
            for d in range(depth + 1):
                assert len(process.levels[d]) == len(reference[d])
                assert all(same(got, want) and (got is POS_INF) == (want is POS_INF)
                           for got, want in zip(process.levels[d], reference[d])), (trial, d)
            assert same(eval_finitary(tree, f), reference[0][0])
        assert column_rows.count(True) > 60 and column_rows.count(False) > 10, column_rows

    def test_negative_zeros_and_fractions_under_float_masses(self):
        """A float point's sums start at 0.0 in the kernel, where the formula starts at the
        int 0: -0.0 payoffs (and products that underflow to -0.0) must still sum to 0.0,
        and Fraction cells times float masses must give the formula's bits."""
        rng = seeded(227)
        for trial in range(24):
            arity = rng.choice((2, 3))
            depth = rng.randint(2, 5)
            tree = _mixed_tree(rng, arity, depth, ("stationary", "by_depth", "table")[trial % 3])
            values = tuple(rng.choice((-0.0, -0.0, -5e-324, F(rng.randint(-9, 9), 7)))
                           for _ in range(arity**depth))
            f = FinitaryVariable(arity, depth, values)
            reference = _reference_levels(tree, f)
            process = eval_process(tree, f)
            for d in range(depth + 1):
                assert all(same(got, want)
                           for got, want in zip(process.levels[d], reference[d])), (trial, d)


@pytest.mark.parametrize("refused, error, match", [
    (lambda tree: certificate_bound(tree, constant_process(2, 2, 1), indicator(2, 2, [(1, 1)])),
     NotTerminal, "certificates must be terminal processes"),
    (lambda tree: certificate_bound(tree, constant_process(2, 1, 1, level_cut(2, 1)),
                                    indicator(2, 2, [(1, 1)])),
     ValueError, r"terminal member \(0,\) is shallower than the variable depth 2"),
], ids=["certificate-not-terminal", "certificate-member-shallow"])
def test_refuses_invalid_input(tree_a, refused, error, match):
    with pytest.raises(error, match=match):
        refused(tree_a)
