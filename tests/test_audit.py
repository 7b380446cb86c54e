import math
import random
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gtue import CredalSet, FinitaryVariable, StateSpace, eval_finitary
from gtue.audit import (
    audit_axioms,
    broken_point_spread_bonus,
    broken_sup_plus_one,
    upper_envelope,
    vacuous_functional,
)
from gtue.credal import raw_upper, upper_row
from gtue.errors import NotBoundedBelow
from gtue.testing import random_tree
from gtue.tree import subtree_block
from gtue.xreal import raw_add, raw_scale


def test_credal_functional_passes_everything():
    space = StateSpace(("0", "1", "2"))
    model = CredalSet([(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                       (Fraction(1, 10), Fraction(1, 2), Fraction(2, 5))])
    [report] = audit_axioms([upper_envelope(model)], space, trials=200, seed=7)
    assert report.all_passed, [r.counterexample for r in report.failures()]
    assert report.alt_characterisation_consistent


def test_e10_exercises_both_branches():
    space = StateSpace(("0", "1", "2"))
    # State 2 carries zero mass under every extreme point, so +inf cells
    # confined to it have zero upper probability: the finite branch.
    model = CredalSet([(Fraction(1, 2), Fraction(1, 2), 0),
                       (Fraction(1, 10), Fraction(9, 10), 0)])
    [report] = audit_axioms([upper_envelope(model)], space, trials=200, seed=3)
    assert report.all_passed, [r.counterexample for r in report.failures()]
    assert report.e10_branches["finite"] > 0
    assert report.e10_branches["divergent"] > 0


def test_vacuous_functional_is_coherent():
    space = StateSpace(("0", "1"))
    [report] = audit_axioms([vacuous_functional()], space, trials=150, seed=2)
    assert report.all_passed, [r.counterexample for r in report.failures()]


def test_sup_plus_one_fails_the_sup_bound():
    space = StateSpace(("0", "1", "2"))
    [report] = audit_axioms([broken_sup_plus_one()], space, trials=200, seed=11)
    assert not report.results["E5"].passed
    assert report.results["E5"].counterexample is not None
    assert not report.results["C1"].passed
    assert not report.results["E1"].passed
    # Sub-additivity and monotonicity survive: sup is well behaved there.
    assert report.results["E2"].passed
    assert report.results["E4"].passed


def test_sup_plus_one_keeps_e10():
    # min(h, L) + 1 rises to F(h) = +inf: the functional is continuous along
    # non-decreasing sequences although it breaks E7.
    space = StateSpace(("0", "1", "2"))
    [report] = audit_axioms([broken_sup_plus_one()], space, trials=200, seed=11)
    assert not report.results["E7"].passed
    assert report.e10_branches["divergent"] > 0
    assert report.results["E10"].passed, report.results["E10"].counterexample


def test_divergent_bound_failures_are_charged_to_e8():
    # The lower envelope of a credal set is super-additive, so the E8 lower
    # bound on the divergent clamps fails, yet every clamp sequence rises to
    # F(h) = +inf because each point gives the +inf cells positive mass.
    points = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 5), Fraction(4, 5))]

    def lower_envelope(h):
        a, b = h
        return min(raw_add(raw_scale(p, a), raw_scale(q, b)) for p, q in points)

    [report] = audit_axioms([lower_envelope], StateSpace(("0", "1")), trials=100, seed=4)
    assert not report.results["E8"].passed
    assert report.e10_branches["divergent"] > 0
    assert report.results["E10"].passed, report.results["E10"].counterexample


class _Real(float):
    """A float subclass: still a float, so still refused as -inf."""


_EXACT_HALVES = CredalSet([(Fraction(1, 2), Fraction(1, 2))])
_FLOAT_HALVES = CredalSet([(0.5, 0.5)])


def _loop(model):
    """The reference for ``raw_upper``'s forms: ``upper_row``'s one-block loop on the model."""
    return lambda h: upper_row(model, h)[0]


def _outcome(functional, h):
    """A result's type and exact value, with floats compared by their bits, or OverflowError."""
    try:
        value = functional(h)
    except OverflowError:
        return OverflowError
    return type(value), value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("model, cell", [
    (_EXACT_HALVES, float("-inf")), (_EXACT_HALVES, -1e308 * 10), (_EXACT_HALVES, _Real("-inf")),
    (_FLOAT_HALVES, float("-inf")), (_FLOAT_HALVES, -1e308 * 10), (_FLOAT_HALVES, _Real("-inf")),
], ids=["literal", "overflow", "subclass", "float-literal", "float-overflow", "float-subclass"])
def test_upper_envelope_refuses_any_neg_inf_float(model, cell):
    envelope = upper_envelope(model)
    with pytest.raises(NotBoundedBelow):
        envelope((cell, 1))


@pytest.mark.parametrize("h, error", [((10**400, 1, 2), ValueError),
                                      ((10**400, float("-inf")), NotBoundedBelow)],
                         ids=["length", "neg-inf"])
def test_float_envelope_checks_before_lifting(h, error):
    # Lifting 10^400 to a float would raise OverflowError first.
    with pytest.raises(error):
        raw_upper(_FLOAT_HALVES, h)


def test_float_envelope_lifts_only_what_raw_upper_multiplies():
    zero_mass = CredalSet([(0.25, 0.75, 0)])
    assert _outcome(partial(raw_upper, zero_mass), (1, 2, 10**400)) == \
        _outcome(_loop(zero_mass), (1, 2, 10**400)) == (float, (1.75).hex())
    # The +inf cell ends the sum before the 10^400 cell is multiplied.
    assert _outcome(partial(raw_upper, _FLOAT_HALVES), (math.inf, 10**400)) == \
        _outcome(_loop(_FLOAT_HALVES), (math.inf, 10**400)) == (float, "inf")
    for functional in (partial(raw_upper, _FLOAT_HALVES), _loop(_FLOAT_HALVES)):
        with pytest.raises(OverflowError):
            functional((1, 10**400))


def test_point_spread_bonus_fails_monotonicity():
    space = StateSpace(("0", "1", "2"))
    [report] = audit_axioms([broken_point_spread_bonus()], space, trials=500, seed=11)
    assert not report.results["E4"].passed
    assert report.results["E4"].counterexample is not None
    # Constants and sub-additivity still hold for this functional.
    assert report.results["E1"].passed
    assert report.results["E2"].passed


def test_report_shape():
    space = StateSpace(("0", "1"))
    model = CredalSet([(Fraction(1, 2), Fraction(1, 2))])
    [report] = audit_axioms([upper_envelope(model)], space, trials=40, seed=0)
    assert set(report.results) >= {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                                   "E9", "E10", "C1", "C2", "C3",
                                   "countable_subadditivity"}
    assert report.trials == 40
    assert report.failures() == []


def test_tiny_charge_on_the_inf_cells_is_audited_exactly():
    # The upper probability 1/10^400 of the +inf cell underflows a float to 0.0.
    tiny = Fraction(1, 10**400)
    model = CredalSet([(tiny, 1 - tiny)])
    [report] = audit_axioms([upper_envelope(model)], StateSpace(("0", "1")), trials=30,
                            seed=0, tol=0)
    assert report.all_passed, [r.counterexample for r in report.failures()]
    assert report.e10_branches["divergent"] > 0


# Functional calls of this audit at the commit before the exact divergent
# E10 branch, whose clamp ladder climbed past a ceiling of 1e12.
CLAMP_LADDER_CALLS = 1702


def test_audit_calls_stay_well_below_the_clamp_ladder():
    model = CredalSet([(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                       (Fraction(1, 10), Fraction(1, 2), Fraction(2, 5))])
    envelope = upper_envelope(model)
    calls = 0

    def counted(h):
        nonlocal calls
        calls += 1
        return envelope(h)

    [report] = audit_axioms([counted], StateSpace(("0", "1", "2")), trials=20, seed=1, tol=0)
    assert report.all_passed
    assert report.e10_branches["divergent"] == 20
    assert calls <= 0.6 * CLAMP_LADDER_CALLS, calls


@st.composite
def _exact_credal_sets(draw):
    arity = draw(st.integers(2, 4))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(st.integers(0, 5), min_size=arity, max_size=arity)
                       .filter(any))
        points.append(tuple(Fraction(w, sum(weights)) for w in weights))
    return arity, CredalSet(points)


@settings(max_examples=25, deadline=None)
@given(case=_exact_credal_sets(), seed=st.integers(0, 2**16))
def test_exact_credal_sets_pass_every_axiom_with_zero_tolerance(case, seed):
    arity, model = case
    space = StateSpace(tuple(str(i) for i in range(arity)))
    [report] = audit_axioms([upper_envelope(model)], space, trials=10, seed=seed, tol=0)
    assert report.all_passed, [r.counterexample for r in report.failures()]


@st.composite
def _credal_sets(draw):
    """Float, exact and mixed credal sets, with zero masses, int masses in float points
    and exact degenerate points with an int or a Fraction mass."""
    arity = draw(st.integers(2, 4))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(st.integers(0, 5), min_size=arity, max_size=arity)
                       .filter(any))
        kind = draw(st.sampled_from(("exact", "float", "float-int-zeros", "float-int-one",
                                     "exact-int-one", "exact-fraction-one")))
        top = weights.index(max(weights))
        if kind == "exact":
            points.append(tuple(Fraction(w, sum(weights)) for w in weights))
        elif kind == "float":
            points.append(tuple(w / sum(weights) for w in weights))
        elif kind == "float-int-zeros":
            points.append(tuple(w / sum(weights) if w else 0 for w in weights))
        elif kind == "float-int-one":
            points.append(tuple(1 if i == top else 0.0 for i in range(arity)))
        else:
            one = 1 if kind == "exact-int-one" else Fraction(1)
            points.append(tuple(one if i == top else 0 for i in range(arity)))
    return CredalSet(points)


# The audit's probe kinds: int, Fraction and +inf cells; huge exact and float cells besides.
_PROBE_CELLS = st.one_of(st.integers(-1000, 1000).map(lambda k: Fraction(k, 100)),
                         st.integers(-40, 40), st.just(math.inf),
                         st.sampled_from((10**400, Fraction(1, 3**300))),
                         st.floats(-10, 10, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(model=_credal_sets(), data=st.data())
def test_raw_upper_matches_the_one_block_loop_bit_for_bit(model, data):
    h = data.draw(st.tuples(*[_PROBE_CELLS] * model.size))
    assert _outcome(partial(raw_upper, model), h) == _outcome(_loop(model), h)


@st.composite
def _float_credal_sets(draw):
    """Credal sets whose every mass is a float, zero masses included."""
    arity = draw(st.integers(2, 4))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(st.integers(0, 5), min_size=arity, max_size=arity)
                       .filter(any))
        points.append(tuple(w / sum(weights) for w in weights))
    return CredalSet(points)


@settings(max_examples=300, deadline=None)
@given(model=_float_credal_sets(), data=st.data())
def test_a_float_model_runs_one_loop_with_the_bits_of_upper_row(model, data):
    h = data.draw(st.tuples(*[_PROBE_CELLS] * model.size))
    want = _outcome(_loop(model), h)
    with mock.patch("gtue.credal.upper_row", wraps=upper_row) as fallback:
        assert _outcome(partial(raw_upper, model), h) == want
    # upper_row runs only for a supported cell too large for a float.
    supported = {i for point in model.support for i, _ in point}
    assert fallback.called == any(h[i] == 10**400 for i in supported)


@pytest.mark.parametrize("seed", [0, 1, 9001])
def test_float_model_audits_match_raw_upper(seed):
    space = StateSpace(("0", "1", "2"))
    for model in (CredalSet([(0.5, 0.25, 0.25), (0.1, 0.5, 0.4)]),
                  CredalSet([(0.3, 0.7, 0), (0.6, 0.4, 0.0)]),
                  CredalSet([(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)), (1, 0, 0)])):
        [lifted] = audit_axioms([upper_envelope(model)], space, trials=40, seed=seed)
        [plain] = audit_axioms([_loop(model)], space, trials=40, seed=seed)
        assert lifted.results == plain.results
        assert lifted.e10_branches == plain.e10_branches


def _joint_functionals():
    """Valid exact, float and int-mass envelopes, and functionals that fail E9 early."""
    return [upper_envelope(CredalSet([(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                                      (Fraction(1, 10), Fraction(1, 2), Fraction(2, 5))])),
            broken_point_spread_bonus(),
            upper_envelope(CredalSet([(0.5, 0.25, 0.25), (0.1, 0.5, 0.4)])),
            upper_envelope(CredalSet([(1, 0, 0), (0, Fraction(1, 3), Fraction(2, 3))])),
            broken_point_spread_bonus(state=2, bonus=Fraction(1, 5))]


def _summary(report):
    return ({name: (r.passed, r.counterexample) for name, r in report.results.items()},
            report.e10_branches)


@pytest.mark.parametrize("seed", range(12))
def test_joint_audit_equals_one_audit_per_functional(seed):
    space = StateSpace(("0", "1", "2"))
    functionals = _joint_functionals()
    joint = audit_axioms(functionals, space, trials=30, seed=seed)
    alone = [audit_axioms([f], space, trials=30, seed=seed)[0] for f in functionals]
    assert list(map(_summary, joint)) == list(map(_summary, alone))
    # The broken functionals fail E9 while the envelopes go on, so the stream forks.
    assert not joint[1].results["E9"].passed and joint[0].all_passed


def test_point_spread_bonus_report_is_pinned():
    # Its first trial fails E9 at sup|f - f_n| = 1/4, which skips the later
    # noise draws, and E4 first fails at trial 7, on the stream after that skip.
    [report] = audit_axioms([broken_point_spread_bonus()], StateSpace(("0", "1", "2")),
                            trials=30, seed=0)
    assert _summary(report) == (
        {name: (True, None) for name in report.results} | {
            "E4": (False, "f=(-7.4, 4.93, -8.87) <= g=(-7.25, 5, -6.55) but "
                          "F(f)=-6.02 > F(g)=-6.025"),
            "E5": (False, "f=(-3.24, -7.94, -3.53): F(f)=-2.77 outside [-7.94, -3.24]"),
            "E9": (False, "f=(6.48, 8.81, 1.23), sup|f-f_n|=1/4: "
                          "|F(f)-F(f_n)| exceeded the uniform distance"),
            "C1": (False, "f=(7.76, -3.18, -5.01): F(f)=9.037 > sup f")},
        {"finite": 0, "divergent": 30})


@pytest.mark.parametrize("masses, s, tol, deeper", [
    (None, (), 0, 0), (float, (), 1e-9, 0), (None, (1,), 0, 0), (None, (1, 0), 0, 2)],
    ids=["exact", "float", "depth-1-situation", "depth-2-situation"])
def test_the_global_operator_passes_every_axiom_exactly(masses, s, tol, deeper):
    # By the paper's results the global upper expectation satisfies E1-E10, so
    # h -> eval_finitary(tree, h, s) on the states of s's subtree in X^n passes every
    # audit, with h filling that subtree and 0 the rest of X^n.  Float masses pass
    # within 1e-9.  The trees are `deeper` levels deeper, so that a depth-2 s has
    # a subtree of several levels.
    rng = random.Random(13)
    trees = [random_tree(rng, 2, 2 + deeper, kind="stationary"),
             random_tree(rng, 2, 3 + deeper, kind="by_depth"),
             random_tree(rng, 3, 2 + deeper, kind="table"),
             random_tree(rng, 3, 2 + deeper, kind="by_depth"),
             # Zero mass on one state at every point and depth: +inf cells behind it
             # have zero upper probability, so E10's finite branch runs.
             random_tree(rng, 3, 2 + deeper, kind="stationary", zero_state=0),
             random_tree(rng, 2, 2 + deeper, kind="table", zero_state=1)]
    branches = {"finite": 0, "divergent": 0}
    for tree in trees:
        if masses is not None:
            tree = tree.map_masses(masses)
        arity, n = tree.space.size, tree.max_depth
        block = subtree_block(s, n, arity)
        before, after = (0,) * block.start, (0,) * (arity**n - block.stop)
        space = StateSpace(tuple(map(str, range(len(block)))))
        [report] = audit_axioms(
            [lambda h: eval_finitary(tree, FinitaryVariable(arity, n, before + h + after), s)],
            space, trials=40, seed=5, tol=tol)
        assert report.all_passed, [r.counterexample for r in report.failures()]
        for branch, count in report.e10_branches.items():
            branches[branch] += count
    assert branches["finite"] > 0 and branches["divergent"] > 0, branches


@pytest.mark.parametrize("refused, match", [
    (lambda: audit_axioms([vacuous_functional()], StateSpace(("0", "1")), trials=0),
     "trials must be at least 1"),
], ids=["no-trials"])
def test_refuses_invalid_input(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()
