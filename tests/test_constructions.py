import math
from fractions import Fraction

import pytest

from gtue import (
    CredalSet,
    CutSystem,
    POS_INF,
    StateSpace,
    Transform,
    TreeModel,
    check_supermartingale,
    constant,
    constant_process,
    doob_gain_checks,
    doob_mixture,
    doob_transform,
    eval_process,
    from_values,
    indicator,
    level_cut,
    levy_bound_checks,
    levy_transform,
    vacuous,
)
from gtue.errors import (
    BadWindow,
    HorizonMismatch,
    NonFiniteRoot,
    SpaceMismatch,
    WeightSumMismatch,
    WindowOutsideRange,
)
from gtue.testing import random_gamble, random_supermartingale, random_tree
from gtue.tree import situations_at, unrank
from tests.conftest import seeded

F = Fraction


@pytest.fixture
def right_copy_tree(space2):
    """Single extreme (0, 1): the local upper expectation reads the 1-child."""
    return TreeModel.stationary(space2, CredalSet([(0, 1)]), 6)


def oscillator(values_on_zero_path, horizon):
    """Process following a given value sequence down the 0-path.

    Every 1-child copies its parent's value, which makes the process a
    supermartingale for the right-copy tree whatever the 0-path does.
    """

    def value_of(s):
        steps = 0
        for x in s:
            if x == 1:
                break
            steps += 1
        return values_on_zero_path[min(steps, len(values_on_zero_path) - 1)]

    return from_values(2, horizon, value_of)


class TestDoobTransform:
    def test_three_node_fixture(self, right_copy_tree):
        M = from_values(2, 2, lambda s: {
            (): F(3, 2), (0,): F(1, 2), (1,): F(3, 2),
            (0, 0): F(5, 2), (0, 1): F(1, 2),
            (1, 0): 0, (1, 1): F(3, 2)}[s])
        tree = TreeModel.stationary(StateSpace(("0", "1")), CredalSet([(0, 1)]), 2)
        assert check_supermartingale(tree, M, 0).is_supermartingale
        transform = doob_transform(tree, M, (), 1, 2)
        assert transform.process.value_at((0, 0)) == F(7, 2)
        v1, u1 = transform.cuts.pairs[0]
        assert (0,) in v1.members
        assert u1.members == frozenset({(0, 0)})
        checks = doob_gain_checks(M, transform)
        gains = {c.situation: c for c in checks}
        assert gains[(0, 0)].upcrossings == 1
        assert gains[(0, 0)].gain == 2
        assert gains[(0, 0)].passed
        assert check_supermartingale(tree, transform.process, 0).is_supermartingale

    def test_constant_process_transform_is_constant(self, tree_a):
        M = constant_process(2, 3, F(7, 2), level_cut(2, 3))
        transform = doob_transform(tree_a, M, (), 1, 2)
        assert all(v == F(7, 2) for level in transform.process.levels for v in level)
        assert transform.cuts.pairs == ()

    def test_window_validation(self, tree_a):
        M = constant_process(2, 2, 1)
        with pytest.raises(BadWindow):
            doob_transform(tree_a, M, (), 2, 1)
        with pytest.raises(BadWindow):
            doob_transform(tree_a, M, (), 0, 1)

    def test_infinite_window_is_a_bad_window_in_any_form(self, tree_a):
        # math.inf once raised OverflowError and "inf" a Fraction parse error.
        M = constant_process(2, 2, 1)
        for b in (math.inf, "inf", float("inf"), POS_INF):
            with pytest.raises(BadWindow):
                doob_transform(tree_a, M, (), 1, b)
        for a in (-math.inf, "-inf"):
            with pytest.raises(BadWindow):
                doob_transform(tree_a, M, (), a, 1)
        with pytest.raises(BadWindow):
            levy_transform(tree_a, indicator(2, 2, [(1, 1)]), (), F(1, 2), 1, "inf")

    def test_infinite_root_rejected(self, tree_a):
        M = constant_process(2, 2, POS_INF)
        with pytest.raises(NonFiniteRoot):
            doob_transform(tree_a, M, (), 1, 2)

    def test_negative_process_rejected(self, tree_a):
        M = constant_process(2, 2, -1)
        with pytest.raises(ValueError):
            doob_transform(tree_a, M, (), 1, 2)

    def test_rooted_away_from_initial_situation(self, right_copy_tree):
        M = oscillator([F(3, 2), F(1, 2), F(5, 2), F(5, 2)], 3)
        transform = doob_transform(right_copy_tree, M, (0,), 1, 2)
        # Off the subtree of (0,) the transform is pinned at M((0,)).
        assert transform.process.value_at((1,)) == F(1, 2)
        assert transform.process.value_at(()) == F(1, 2)
        # (0,) itself is below a, so it opens the first window.
        assert (0,) in transform.cuts.pairs[0][0].members

    def test_sticky_infinity_inside_active_region(self, right_copy_tree):
        tree = TreeModel.stationary(StateSpace(("0", "1")), CredalSet([(0, 1)]), 3)
        values = {
            (): F(3, 2), (0,): F(1, 2), (1,): F(3, 2),
            (0, 0): POS_INF, (0, 1): F(1, 2), (1, 0): F(3, 2), (1, 1): F(3, 2)}

        def value_of(s):
            if len(s) < 3:
                return values[s]
            return values[s[:2]]

        M = from_values(2, 3, value_of)
        assert check_supermartingale(tree, M, 0).is_supermartingale
        transform = doob_transform(tree, M, (), 1, 2)
        assert transform.process.value_at((0, 0)) == POS_INF
        assert transform.process.value_at((0, 0, 1)) == POS_INF
        check = {c.situation: c for c in doob_gain_checks(M, transform)}[(0, 0)]
        assert check.gain == POS_INF and check.telescoped == POS_INF
        assert check.passed
        assert check_supermartingale(tree, transform.process, 0).is_supermartingale

    def test_random_supermartingales_exact(self):
        rng = seeded(2024)
        seen_upcrossing = False
        for _ in range(60):
            tree = random_tree(rng, 2, 6)
            M = random_supermartingale(tree, rng, 6, leaf_high=4, slack_high=F(1, 4))
            for window in ((F(1), F(2)), (F(1, 2), F(3, 2))):
                transform = doob_transform(tree, M, (), *window)
                assert check_supermartingale(tree, transform.process, 0).is_supermartingale
                assert transform.process.min_value() >= 0
                for check in doob_gain_checks(M, transform):
                    assert check.passed
                    if check.upcrossings >= 1:
                        seen_upcrossing = True
        assert seen_upcrossing

    def test_terminal_input_gives_terminal_transform_with_real_tail(self):
        from gtue import path_liminf

        rng = seeded(63)
        for _ in range(20):
            tree = random_tree(rng, 2, 4)
            M = random_supermartingale(tree, rng, 4, terminal=True)
            transform = doob_transform(tree, M, (), 1, 2)
            assert transform.process.terminal_cut == M.terminal_cut
            for leaf in transform.process.terminal_cut:
                assert path_liminf(transform.process, leaf) is not POS_INF


class TestUpcrossingCount:
    def test_constant_process_has_none(self, tree_a):
        M = constant_process(2, 3, 1, level_cut(2, 3))
        transform = doob_transform(tree_a, M, (), 1, 2)
        assert transform.cuts.chain_state((0, 0, 0))[0] == 0

    def test_single_pass(self, right_copy_tree):
        tree = TreeModel.stationary(StateSpace(("0", "1")), CredalSet([(0, 1)]), 2)
        M = from_values(2, 2, lambda s: {
            (): F(3, 2), (0,): F(1, 2), (1,): F(3, 2),
            (0, 0): F(5, 2), (0, 1): F(1, 2),
            (1, 0): 0, (1, 1): F(3, 2)}[s])
        transform = doob_transform(tree, M, (), 1, 2)
        assert transform.cuts.chain_state((0, 0))[0] == 1
        assert transform.cuts.chain_state((0,))[0] == 0
        assert transform.cuts.chain_state((1, 1))[0] == 0

    def test_double_pass_with_mixture(self, right_copy_tree):
        path = [F(3, 2), F(1, 2), F(5, 2), F(4, 5), F(11, 5), F(3, 5), F(3, 5)]
        M = oscillator(path, 6)
        assert check_supermartingale(right_copy_tree, M, 0).is_supermartingale
        transform = doob_transform(right_copy_tree, M, (), 1, 2)
        node = (0, 0, 0, 0)
        assert transform.cuts.chain_state(node)[0] == 2
        expected_gain = (F(5, 2) - F(1, 2)) + (F(11, 5) - F(4, 5))
        assert transform.process.value_at(node) == F(3, 2) + expected_gain

        weights = (F(1, 2), F(1, 2))
        mixture = doob_mixture(right_copy_tree, M, (),
                               ((F(1), F(2)), (F(1, 2), F(3, 2))), weights)
        assert mixture.value_at(()) == 1
        assert check_supermartingale(right_copy_tree, mixture, 0).is_supermartingale
        assert mixture.min_value() >= 0
        # The (1, 2) component alone already pushes the normalized value
        # past its share of 1 + 2(b - a) / M(root); the rest is non-negative.
        floor = F(1, 2) * (F(3, 2) + expected_gain) / F(3, 2)
        assert mixture.value_at(node) >= floor


class TestDoobMixture:
    def test_single_window_is_the_transform(self, tree_a):
        rng = seeded(5)
        M = random_supermartingale(tree_a, rng, 3)
        root = M.value_at(())
        transform = doob_transform(tree_a, M, (), 1, 2)
        mixture = doob_mixture(tree_a, M, (), ((F(1), F(2)),), (F(1),))
        for depth in range(4):
            for i in range(2**depth):
                assert mixture.levels[depth][i] == \
                    transform.process.levels[depth][i] / root

    def test_two_windows_on_constant(self, tree_a):
        M = constant_process(2, 3, 3, level_cut(2, 3))
        mixture = doob_mixture(tree_a, M, (), ((F(1), F(2)), (F(2), F(3))),
                               (F(1, 2), F(1, 2)))
        assert all(v == 1 for level in mixture.levels for v in level)

    def test_weight_validation(self, tree_a):
        from gtue.errors import WeightSumMismatch

        M = constant_process(2, 2, 1)
        with pytest.raises(WeightSumMismatch):
            doob_mixture(tree_a, M, (), ((F(1), F(2)),), (F(1, 2),))


_TERNARY = TreeModel.stationary(StateSpace(("0", "1", "2")), vacuous(3), 3)


@pytest.mark.parametrize("refused, error, match", [
    (lambda tree: doob_transform(_TERNARY, constant_process(2, 2, 1), (), 1, 2),
     SpaceMismatch, "state space"),
    (lambda tree: doob_transform(tree, constant_process(2, 5, 1), (), 1, 2),
     HorizonMismatch, "depth bound"),
    (lambda tree: doob_mixture(tree, constant_process(2, 2, 1), (), ((1, 2),), (F(1, 2),) * 2),
     ValueError, "one weight per window"),
    (lambda tree: doob_mixture(tree, constant_process(2, 2, 1), (), ((1, 2), (2, 3)), (0, 1)),
     WeightSumMismatch, "must be positive"),
    (lambda tree: doob_mixture(tree, constant_process(2, 2, 0), (), ((1, 2),), (1,)),
     ValueError, "finite positive value at the root"),
], ids=["doob-space", "doob-horizon", "mixture-weight-count", "mixture-zero-weight",
        "mixture-zero-root"])
def test_refuses_invalid_input(tree_a, refused, error, match):
    with pytest.raises(error, match=match):
        refused(tree_a)


class TestLevyTransform:
    def test_constant_target_is_trivial(self, tree_a):
        transform = levy_transform(tree_a, constant(2, 3, depth=1), (), F(1, 2), F(3, 4), 1)
        assert all(v == 1 for level in transform.process.levels for v in level)
        assert transform.cuts.pairs == ()

    def test_spec_trace_no_upcrossing_possible(self, tree_a):
        f = indicator(2, 2, [(1, 1)])
        transform = levy_transform(tree_a, f, (), F(12, 10), F(16, 10), 1)
        v1 = transform.cuts.pairs[0][0]
        u1 = transform.cuts.pairs[0][1]
        assert (0,) in v1.members
        assert len(u1) == 0
        assert all(v == 1 for level in transform.process.levels for v in level)
        assert transform.process.value_at(()) == 1
        assert check_supermartingale(tree_a, transform.process, 0).is_supermartingale

    def test_completed_upcrossing_fixture(self, space2):
        tree = TreeModel.stationary(space2, CredalSet([(F(1, 2), F(1, 2))]), 2)
        f = FinitaryVariableFixture()
        transform = levy_transform(tree, f, (), F(12, 10), F(16, 10), F(1, 5))
        v1, u1 = transform.cuts.pairs[0]
        assert v1.members == frozenset({(0,)})
        assert u1.members == frozenset({(0, 1)})
        # Multiplicative identity: T at the U node is the certificate ratio.
        assert transform.process.value_at((0, 1)) == F(9, 5)
        check = {c.situation: c for c in levy_bound_checks(transform)}[(0, 1)]
        assert check.upcrossings == 1
        assert check.threshold == F(4, 3)
        assert check.passed
        assert check_supermartingale(tree, transform.process, 0).is_supermartingale
        assert transform.process.min_value() > 0

    def test_root_opens_no_window(self, tree_a):
        # The shifted conditional value at the root is 1.49 < a, but the
        # transform is pinned at one there: windows open only below it, and
        # (1, 1), the one node above b, is reached by no open window.
        f = indicator(2, 2, [(1, 1)])
        transform = levy_transform(tree_a, f, (), F(8, 5), F(9, 5), 1)
        assert [v.members for v, _ in transform.cuts.pairs] == [frozenset({(0,), (1, 0)})]
        assert levy_bound_checks(transform) == []

    def test_window_outside_range(self, tree_a):
        f = indicator(2, 2, [(1, 1)])
        with pytest.raises(WindowOutsideRange):
            levy_transform(tree_a, f, (), F(1, 2), F(16, 10), 1)  # a below inf f'
        with pytest.raises(WindowOutsideRange):
            levy_transform(tree_a, f, (), F(12, 10), F(5, 2), 1)  # b above sup f'

    def test_gamble_required(self, tree_a):
        blown = indicator(2, 1, [(1,)]).map(lambda v: v if v == 0 else POS_INF)
        with pytest.raises(ValueError):
            levy_transform(tree_a, blown, (), F(1, 2), F(3, 4), 1)

    def test_random_feasible_windows(self):
        rng = seeded(777)
        seen_upcrossing = False
        for _ in range(40):
            depth = rng.randint(2, 4)
            tree = random_tree(rng, 2, depth)
            f = random_gamble(rng, 2, depth)
            if f.sup() == f.inf():
                continue
            delta = F(1, 2)
            lo, hi = delta, f.sup() - f.inf() + delta
            a = lo + (hi - lo) * F(1, 3)
            b = lo + (hi - lo) * F(2, 3)
            transform = levy_transform(tree, f, (), a, b, delta)
            assert transform.process.value_at(()) == 1
            assert transform.process.min_value() > 0
            assert check_supermartingale(tree, transform.process, 0).is_supermartingale
            for check in levy_bound_checks(transform):
                assert check.passed
                if check.upcrossings >= 1:
                    seen_upcrossing = True
        assert seen_upcrossing


def FinitaryVariableFixture():
    """Conditional values dip to 1 at (0), then the certificate hits 1.8."""
    from gtue import FinitaryVariable

    return FinitaryVariable(2, 2, (0, F(8, 5), F(9, 5), F(9, 5)))


class TestCutSystem:
    def test_interleaving_enforced(self):
        from gtue import Cut

        with pytest.raises(ValueError):
            CutSystem((), ((Cut(frozenset({(0,)})), Cut(frozenset({(1,)}))),))

    def test_chain_state(self):
        path = [F(3, 2), F(1, 2), F(5, 2), F(4, 5), F(11, 5)]
        M = oscillator(path, 4)
        transform = doob_transform(right_copy_tree_model(), M, (), 1, 2)
        cuts = transform.cuts
        assert cuts.chain_state(()) == (0, False)
        assert cuts.chain_state((0,)) == (0, True)
        assert cuts.chain_state((0, 0)) == (1, False)
        assert cuts.chain_state((0, 0, 0)) == (1, True)
        assert cuts.chain_state((0, 0, 0, 0)) == (2, False)

    def test_a_situation_off_the_root_has_no_chain(self):
        cuts = CutSystem((0,), ())
        assert (cuts.chain_state((1, 0)), cuts.hits_along((1,))) == (None, [])


def right_copy_tree_model():
    return TreeModel.stationary(StateSpace(("0", "1")), CredalSet([(0, 1)]), 6)


class TestReplay:
    """The top-down replay agrees with the per-situation one at every node."""

    @staticmethod
    def transforms():
        rng = seeded(4242)
        for n in range(16):
            # A state with zero mass everywhere frees its child's value from
            # the supermartingale condition, so paths oscillate more.
            tree = random_tree(rng, 2, 6, zero_state=n % 2 or None)
            M = random_supermartingale(tree, rng, 6, leaf_high=4, slack_high=F(1, 4))
            f = random_gamble(rng, 2, 6)
            for root in ((), (rng.randrange(2),), (rng.randrange(2), rng.randrange(2))):
                for a, b in ((F(1), F(2)), (F(1, 2), F(3, 2))):
                    yield M, doob_transform(tree, M, root, a, b)
                top = f.sup() - f.inf() + 1
                try:
                    levy = levy_transform(tree, f, root, 1 + top / 4, top * 3 / 4, F(1))
                except WindowOutsideRange:
                    continue
                yield None, levy

    def test_realized_matches_chain_replay(self):
        seen = {"doob": 0, "levy": 0, "hits": 0, "deep root": 0}
        for M, transform in self.transforms():
            cuts, process = transform.cuts, transform.process
            seen["doob" if M is not None else "levy"] += 1
            seen["deep root"] += len(cuts.root) > 0
            visited = []
            for depth, i, hits, active in cuts.realized(process.arity, process.horizon):
                s = unrank(i, depth, 2)
                assert (len(hits), active) == cuts.chain_state(s)
                assert [tuple(unrank(r, d, 2) for d, r in pair) for pair in hits] \
                    == cuts.hits_along(s)
                assert process.levels[depth][i] == process.value_at(s)
                seen["hits"] += len(hits)
                visited.append(s)
            below = [s for d in range(process.horizon + 1) for s in situations_at(d, 2)
                     if s[:len(cuts.root)] == cuts.root]
            assert visited == below

            replayed = [(s, cuts.chain_state(s)[0]) for s in below
                        if cuts.chain_state(s)[0] >= 1 and not cuts.chain_state(s)[1]]
            checks = doob_gain_checks(M, transform) if M is not None \
                else levy_bound_checks(transform)
            assert [(c.situation, c.upcrossings) for c in checks] == replayed
            for c in checks:
                assert c.passed
        assert all(seen.values()), seen

    def test_pairs_equal_a_first_hit_walk_on_situations(self):
        """Both transforms' cuts equal those of a recursive walk over situation tuples."""
        rng = seeded(777)
        compared = {"doob": 0, "levy": 0, "pairs": 0}
        for n in range(12):
            size = 2 + n % 2
            tree = random_tree(rng, size, 5, zero_state=n % 3 or None)
            M = random_supermartingale(tree, rng, 5, leaf_high=4, slack_high=F(1, 4))
            f = random_gamble(rng, size, 5)
            delta = F(1)
            shifted = f.map(lambda v: v - f.inf() + delta)
            conditional = eval_process(tree, shifted)
            for root in ((), (rng.randrange(size),)):
                for a, b in ((F(1), F(2)), (F(1, 2), F(3, 2))):
                    transform = doob_transform(tree, M, root, a, b)
                    want = first_hit_pairs(M.value_at, size, M.horizon, root, a, b, True)
                    assert [(v.members, u.members) for v, u in transform.cuts.pairs] == want
                    compared["doob"] += 1
                    compared["pairs"] += len(want)
                top = shifted.sup()
                a, b = 1 + (top - 1) / 4, top * 3 / 4
                try:
                    transform = levy_transform(tree, f, root, a, b, delta)
                except WindowOutsideRange:
                    continue
                want = first_hit_pairs(conditional.value_at, size, f.depth, root, a, b, False)
                assert [(v.members, u.members) for v, u in transform.cuts.pairs] == want
                compared["levy"] += 1
                compared["pairs"] += len(want)
        assert all(compared.values()), compared

    def test_cuts_that_disagree_with_the_process_fail(self):
        """The checkers take the realized nodes from the cuts, not from the process."""
        forged_checks = 0
        for M, transform in self.transforms():
            if M is None:
                continue
            root_value = transform.process.value_at(transform.cuts.root)
            frozen = constant_process(M.arity, M.horizon, root_value)
            forged = Transform(frozen, transform.cuts, transform.window)
            checks = doob_gain_checks(M, forged)
            assert len(checks) == len(doob_gain_checks(M, transform))
            assert not any(c.passed for c in checks)
            forged_checks += len(checks)
        assert forged_checks


def first_hit_pairs(value_at, arity, horizon, root, a, b, open_at_root):
    """[(V_k, U_k)] by a recursive first-hit walk over situation tuples below root."""
    found = {}

    def visit(s, completed, active):
        x = value_at(s)
        if active and x > b:
            found.setdefault((completed + 1, "U"), set()).add(s)
            completed, active = completed + 1, False
        elif not active and x < a and (open_at_root or s != root):
            found.setdefault((completed + 1, "V"), set()).add(s)
            active = True
        if len(s) < horizon:
            for x in range(arity):
                visit(s + (x,), completed, active)

    visit(tuple(root), 0, False)
    count = max((k for k, _ in found), default=0)
    return [(frozenset(found.get((k, "V"), ())), frozenset(found.get((k, "U"), ())))
            for k in range(1, count + 1)]
