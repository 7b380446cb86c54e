import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from gtue import (
    NEG_INF,
    POS_INF,
    CredalSet,
    Cut,
    FinitaryVariable,
    Process,
    StateSpace,
    TreeModel,
    add,
    certificate_bound,
    check_supermartingale,
    constant,
    constant_process,
    from_values,
    indicator,
    eval_process,
    level_cut,
    local_upper,
    min_tail,
    mix,
    neg,
    path_liminf,
    shift,
    truncate,
    vacuous,
)
from gtue.errors import (
    HorizonMismatch,
    NegativeWeight,
    NotTerminal,
    SpaceMismatch,
)
from gtue.testing import random_supermartingale, random_tree
from gtue.tree import situations_at
from gtue.xreal import le_within
from tests.conftest import seeded


def leafy(values, horizon=2, cut=True):
    table = dict(values)
    return Process(2, horizon,
                   tuple(tuple(table[s] for s in _level(d)) for d in range(horizon + 1)),
                   level_cut(2, horizon) if cut else None)


def _level(depth):
    return situations_at(depth, 2)


class TestCheck:
    def test_constant_is_supermartingale(self, tree_a):
        verdict = check_supermartingale(tree_a, constant_process(2, 3, 5), 0)
        assert verdict.is_supermartingale
        assert verdict.worst_violation is None

    def test_gap_fixture(self, tree_a):
        M = from_values(2, 1, lambda s: 1 if s == () else 2)
        verdict = check_supermartingale(tree_a, M, 0)
        assert not verdict.is_supermartingale
        assert verdict.worst_violation == ((), 1)

    def test_eval_process_is_supermartingale(self, tree_a):
        M = eval_process(tree_a, indicator(2, 2, [(1, 1)]))
        assert check_supermartingale(tree_a, M, 0).is_supermartingale

    def test_horizon_mismatch(self, tree_a):
        deep = constant_process(2, 5, 1)
        with pytest.raises(HorizonMismatch):
            check_supermartingale(tree_a, deep, 0)

    def test_shallower_horizon_is_fine(self, tree_a):
        verdict = check_supermartingale(tree_a, constant_process(2, 2, 1), 0)
        assert verdict.is_supermartingale

    def test_infinite_plateau_verifies(self, tree_a):
        always_inf = constant_process(2, 2, POS_INF)
        assert check_supermartingale(tree_a, always_inf, 0).is_supermartingale


@st.composite
def _checked_processes(draw):
    """A tree, a process on it with +inf cells and planted violations, and a tolerance.

    Half the processes are random supermartingales with some cells set to
    +inf, lowered (a violation) or replaced from a small grid; the other
    half are drawn from the grid alone, where equal gaps are common.
    """
    arity = draw(st.integers(2, 3))
    horizon = draw(st.integers(0, 3))
    rational = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("stationary", "by_depth", "table")))
    tree = random_tree(rng, arity, horizon + draw(st.integers(0, 1)), rational=rational,
                       kind=kind)
    grid = [0, 1, 2, POS_INF] if rational else [0.0, 0.5, 2.0, POS_INF]
    if draw(st.booleans()):
        base = random_supermartingale(tree, rng, horizon, rational=rational, terminal=False)
        lowering = Fraction(1, 2) if rational else 0.5

        def edit(v):
            choice = draw(st.sampled_from(("keep",) * 5 + ("inf", "lower", "grid")))
            if choice == "inf":
                return POS_INF
            if choice == "lower":
                return add(v, -lowering)  # a planted violation
            return draw(st.sampled_from(grid)) if choice == "grid" else v

        levels = [[edit(v) for v in level] for level in base.levels]
    else:
        levels = [[draw(st.sampled_from(grid)) for _ in range(arity**d)]
                  for d in range(horizon + 1)]
    tol = draw(st.sampled_from((0, Fraction(1, 2)) if rational else (0, 1e-9, 0.5)))
    return tree, Process(arity, horizon, tuple(levels)), tol


def _check_node_by_node(tree, M, tol):
    """The per-node definition: local_upper of the children against M(s), in rank order."""
    worst, ok = None, True
    for depth in range(M.horizon):
        for s in situations_at(depth, M.arity):
            children = tuple(M.value_at(s + (x,)) for x in range(M.arity))
            q = local_upper(tree.local_model_at(s), children)
            m = M.value_at(s)
            if not le_within(q, m, tol):
                ok = False
                gap = add(q, neg(m))
                if worst is not None and gap == worst[1]:
                    event("tie for the worst gap")
                if worst is None or gap > worst[1]:
                    worst = (s, gap)
    return ok, worst


@settings(max_examples=150, deadline=None)
@given(case=_checked_processes())
def test_row_check_matches_the_node_by_node_definition(case):
    tree, M, tol = case
    verdict = check_supermartingale(tree, M, tol)
    ok, worst = _check_node_by_node(tree, M, tol)
    assert verdict.is_supermartingale == ok
    if worst is None:
        assert verdict.worst_violation is None
    else:
        s, gap = verdict.worst_violation
        assert (s, gap, type(gap)) == (worst[0], worst[1], type(worst[1]))


class TestTruncate:
    def test_min_with_bound(self):
        M = constant_process(2, 2, POS_INF)
        assert truncate(M, 5).value_at((0, 1)) == 5

    def test_inactive_clamp(self, tree_a):
        rng = seeded(3)
        M = random_supermartingale(tree_a, rng, 3)
        top = max(v for level in M.levels for v in level)
        assert truncate(M, top + 1).levels == M.levels

    def test_truncation_preserves_supermartingale(self):
        rng = seeded(17)
        for _ in range(100):
            tree = random_tree(rng, 2, 3)
            M = random_supermartingale(tree, rng, 3)
            bound = Fraction(rng.randint(0, 60), 10)
            verdict = check_supermartingale(tree, truncate(M, bound), 0)
            assert verdict.is_supermartingale

    def test_output_is_real_valued(self):
        M = constant_process(2, 1, POS_INF)
        out = truncate(M, 2)
        assert all(v is not POS_INF and v is not NEG_INF for level in out.levels for v in level)


class TestMix:
    def test_identity(self, tree_a):
        M = random_supermartingale(tree_a, seeded(1), 2)
        assert mix([M], [1]).levels == M.levels

    def test_affine_combination(self):
        out = mix([constant_process(2, 2, 1), constant_process(2, 2, 3)],
                  [Fraction(1, 4), Fraction(3, 4)])
        assert out.value_at(()) == Fraction(5, 2)

    def test_mixture_of_supermartingales_verifies(self):
        rng = seeded(23)
        for _ in range(30):
            tree = random_tree(rng, 2, 3)
            a = random_supermartingale(tree, rng, 3)
            b = random_supermartingale(tree, rng, 3)
            out = mix([a, b], [Fraction(1, 2), Fraction(1, 2)])
            assert check_supermartingale(tree, out, 0).is_supermartingale

    def test_negative_weight_rejected(self):
        M = constant_process(2, 1, 1)
        with pytest.raises(NegativeWeight):
            mix([M], [-1])

    def test_nonnegativity_preserved(self, tree_a):
        rng = seeded(4)
        a = random_supermartingale(tree_a, rng, 2)
        b = random_supermartingale(tree_a, rng, 2)
        out = mix([a, b], [Fraction(1, 3), Fraction(2, 3)])
        assert out.min_value() >= 0

    def test_a_zero_weight_is_accepted(self):
        p = from_values(2, 2, lambda s: len(s))
        q = from_values(2, 2, lambda s: sum(s) + 1)
        assert mix([p, q], [0, 1]).levels == q.levels

    def test_a_terminal_cut_is_kept_only_when_all_share_it(self):
        p = constant_process(2, 2, 1, level_cut(2, 2))
        q = constant_process(2, 2, 3, level_cut(2, 2))
        r = constant_process(2, 2, 5, level_cut(2, 1))
        assert mix([p, q], [1, 1]).terminal_cut == level_cut(2, 2)
        assert mix([p, r], [1, 1]).terminal_cut is None


class TestPathLiminf:
    def test_constant_tail(self):
        M = leafy({(): 1, (0,): 4, (1,): 2,
                   (0, 0): 4, (0, 1): 4, (1, 0): 2, (1, 1): 2},
                  horizon=2)
        cut = M.terminal_cut
        assert cut is not None
        assert path_liminf(M, (0, 0)) == 4

    def test_constant_process_everywhere(self):
        M = constant_process(2, 2, 7, level_cut(2, 2))
        for leaf in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert path_liminf(M, leaf) == 7

    def test_refuses_without_terminal_cut(self):
        M = constant_process(2, 2, 7)
        with pytest.raises(NotTerminal):
            path_liminf(M, (0, 0))

    def test_root_cut_answers_past_the_horizon(self):
        """{()} is a complete terminal cut: every situation past the horizon follows ()."""
        M = constant_process(2, 2, 7, Cut(frozenset({()})))
        tree = TreeModel.stationary(StateSpace(("0", "1")), CredalSet([(1, 0), (0, 1)]), 3)
        assert path_liminf(M, (0, 1, 1)) == 7
        assert M.value_at((0, 1, 1)) == 7
        assert certificate_bound(tree, M, constant(2, 5), (0, 1, 1)) == 7
        with pytest.raises(ValueError, match="beyond horizon"):
            constant_process(2, 2, 7).value_at((0, 1, 1))

    @pytest.mark.parametrize("s", [(0, 3), (-1,), (2,), (0, 0, 2)],
                             ids=["rank-of-1.1", "negative", "index-error", "past-horizon"])
    def test_value_at_refuses_a_state_off_the_tree(self, s):
        """(0, 3) shares its rank with (1, 1) and (-1,) indexes from the end: no value is right."""
        M = from_values(2, 2, lambda s: sum(s) * 10 + len(s), level_cut(2, 2))
        with pytest.raises(ValueError, match="leaves the tree: states run from 0 to 1"):
            M.value_at(s)
        tree = TreeModel.stationary(StateSpace(("0", "1")), CredalSet([(1, 0), (0, 1)]), 3)
        bound = constant_process(2, 2, 7, level_cut(2, 2))
        with pytest.raises(ValueError, match="leaves the tree"):
            certificate_bound(tree, bound, constant(2, 5), s)

    @pytest.mark.parametrize("s", [(0, 3), (0, -1, 9), (0, 5), (2,)])
    def test_path_queries_refuse_a_state_off_the_tree(self, s):
        """(0, 3) and (0, -1, 9) follow the member (0,) by their first state, but no
        situation has them, so no value is right."""
        M = from_values(2, 2, lambda s: 4 if s[:1] == (0,) else sum(s) + len(s),
                        Cut(frozenset({(0,), (1, 0), (1, 1)})))
        for query in (path_liminf, min_tail):
            with pytest.raises(ValueError, match="leaves the tree: states run from 0 to 1"):
                query(M, s)

    def test_min_liminf_switch_exact(self):
        rng = seeded(31)
        for _ in range(50):
            tree = random_tree(rng, 2, 3)
            M = random_supermartingale(tree, rng, 3)
            bound = Fraction(rng.randint(-10, 40), 10)
            truncated = truncate(M, bound)
            for leaf in _level(3):
                lhs = min(bound, path_liminf(M, leaf))
                rhs = path_liminf(truncated, leaf)
                assert lhs == rhs


class TestInfimaOfSupermartingales:
    def test_value_dominates_min_tail(self):
        rng = seeded(37)
        for _ in range(100):
            tree = random_tree(rng, 2, 3)
            M = random_supermartingale(tree, rng, 3)
            for depth in range(3):
                for s in _level(depth):
                    assert M.value_at(s) >= min_tail(M, s)


class TestShift:
    def test_shift_adds_constant(self, tree_a):
        M = eval_process(tree_a, indicator(2, 2, [(1, 1)]))
        out = shift(M, Fraction(1, 10))
        assert out.value_at(()) == Fraction(49, 100) + Fraction(1, 10)
        assert check_supermartingale(tree_a, out, 0).is_supermartingale


class TestProcessValidation:
    def test_rejects_minus_infinity(self):
        with pytest.raises(ValueError):
            from_values(2, 1, lambda s: float("-inf") if s == (0,) else 0)

    def test_levels_hold_canonical_payloads(self):
        # float("inf") is a fresh object, not math.inf.
        M = Process(2, 2, ((Fraction(1, 3),), (POS_INF, Fraction(1, 2)),
                           (float("inf"), 0, 2.5, Fraction(3))))
        top, (left, right), leaves = M.levels
        assert (type(top[0]), top[0]) == (Fraction, Fraction(1, 3))
        assert left is math.inf and leaves[0] is math.inf
        assert (type(right), type(leaves[1]), type(leaves[2])) == (Fraction, int, float)
        assert (M.value_at((1,)), M.min_value()) == (Fraction(1, 2), 0)
        assert type(M.value_at((1,))) is Fraction and type(M.min_value()) is int
        with pytest.raises(ValueError, match="bounded below"):
            Process(2, 0, ((float("-inf"),),))

    def test_terminal_cut_must_be_complete(self):
        from gtue import Cut

        with pytest.raises(ValueError):
            Process(2, 1, ((0,), (0, 0)), Cut(frozenset({(0,)})))

    @pytest.mark.parametrize("members", [
        {(0,), (2,)}, {(0, 0), (0, 1), (1, 0), (2, 0)}, {(0,), (1, -1), (1, 1)}],
        ids=["short-member", "at-the-horizon", "negative-state"])
    def test_terminal_cut_members_stay_on_the_tree(self, members):
        # Each cut is complete by its measure, yet some member leaves the binary tree.
        with pytest.raises(ValueError, match="leaves the tree"):
            constant_process(2, 2, 1, Cut(frozenset(members)))

    def test_terminal_constancy_enforced(self):
        from gtue import Cut

        with pytest.raises(ValueError):
            Process(2, 2,
                    ((0,), (0, 0), (0, 1, 0, 0)),
                    Cut(frozenset({(0,), (1,)})))


_ONE = constant_process(2, 1, 1)
# M(root) = 0 lies 5 below the expectation of its children under masses 1/2, 1/2.
_HALVES = TreeModel.stationary(StateSpace(("0", "1")),
                               CredalSet([(Fraction(1, 2), Fraction(1, 2))]), 1)
_RISING = Process(2, 1, ((0,), (5, 5)), level_cut(2, 1))
# Complete by its measure, but the member (2,) leaves the binary tree.
_OFF_TREE_CUT = Cut(frozenset({(0,), (2,)}))


@pytest.mark.parametrize("refused, error, match", [
    (lambda: Process(2, 1, ((0,),)), ValueError, "expected 2 levels, got 1"),
    (lambda: Process(2, 1, ((0,), (0,))), ValueError, "level 1 has 1 entries"),
    (lambda: constant_process(2, 1, 0, level_cut(2, 2)), ValueError, "beyond the horizon"),
    (lambda: check_supermartingale(
        TreeModel.stationary(StateSpace(("0", "1", "2")), vacuous(3), 2), _ONE),
     SpaceMismatch, "state space"),
    (lambda: truncate(_ONE, POS_INF), ValueError, "truncation level must be finite"),
    (lambda: shift(_ONE, NEG_INF), ValueError, "shift constant must be finite"),
    (lambda: mix([_ONE], [1, 1]), ValueError, "one weight per process"),
    (lambda: mix([], []), ValueError, "cannot mix zero processes"),
    (lambda: mix([_ONE], [POS_INF]), ValueError, "weights must be finite"),
    (lambda: mix([_ONE, constant_process(2, 2, 1)], [1, 1]), HorizonMismatch, "horizon"),
    (lambda: mix([_ONE, constant_process(3, 1, 1)], [1, 1]), SpaceMismatch, "state space"),
    (lambda: path_liminf(constant_process(2, 2, 1, level_cut(2, 2)), (0,)), ValueError,
     "does not reach the terminal cut"),
    (lambda: min_tail(_ONE, ()), NotTerminal, "terminal process"),
    (lambda: constant_process(2, 1, 1, _OFF_TREE_CUT), ValueError,
     r"situation \(2,\) leaves the tree"),
    (lambda: constant_process(2, 2, 1, Cut(frozenset({(2,), (0, 5)}))), ValueError,
     r"situation \(0, 5\) leaves the tree"),
    (lambda: constant_process(2, 1, 1, Cut(frozenset({(3,)}))), ValueError,
     r"situation \(3,\) leaves the tree"),
    (lambda: check_supermartingale(_HALVES, _RISING, tol=POS_INF), ValueError,
     "tol must be finite"),
    (lambda: certificate_bound(_HALVES, _RISING, FinitaryVariable(2, 1, (5, 5)), tol=math.inf),
     ValueError, "tol must be finite"),
    (lambda: check_supermartingale(_HALVES, _ONE, tol=-1), ValueError,
     "tol must be non-negative"),
], ids=["level-count", "level-length", "cut-past-horizon", "check-space", "truncate-inf",
        "shift-inf", "mix-lengths", "mix-empty", "mix-inf-weight", "mix-horizon",
        "mix-space", "liminf-short-prefix", "tail-not-terminal", "cut-off-the-tree",
        "cut-first-member-off-the-tree", "cut-off-the-tree-and-incomplete",
        "check-tol-inf", "certificate-tol-inf", "check-tol-negative"])
def test_refuses_invalid_input(refused, error, match):
    with pytest.raises(error, match=match):
        refused()
