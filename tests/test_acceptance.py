"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Exact criteria run on rational instances with zero tolerance; float
criteria use 1e-9 unless the criterion states otherwise.
"""

import functools
import time
from fractions import Fraction

from gtue import (
    CredalSet,
    POS_INF,
    StateSpace,
    add,
    brute_force_upper,
    certificate_bound,
    check_supermartingale,
    clamp_above_sequence,
    doob_gain_checks,
    doob_transform,
    eval_finitary,
    eval_limit,
    eval_lower_finitary,
    eval_process,
    explicit_sequence,
    indicator,
    levy_bound_checks,
    levy_transform,
    min_tail,
    mix,
    path_liminf,
    scale,
    selection_count,
    shift,
    truncate,
)
from gtue.audit import (
    audit_axioms,
    broken_point_spread_bonus,
    broken_sup_plus_one,
    upper_envelope,
)
from gtue.tree import Monotonicity, constant, situations_at
from gtue.process import constant_process
from gtue.testing import (
    float_variable,
    random_finitary,
    random_gamble,
    random_supermartingale,
    random_tree,
)
from gtue.xreal import le_within
from tests.conftest import seeded

F = Fraction
TOL = 1e-9


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} [{title}]: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} [{title}]: PASS")
        return wrapper
    return decorate


def close(a, b, tol=TOL):
    return le_within(a, b, tol) and le_within(b, a, tol)


@criterion(1, "oracle equivalence, 200 instances, < 30 s")
def test_oracle_equivalence():
    rng = seeded(10_001)
    start = time.time()
    for _ in range(200):
        while True:
            size = rng.choice((2, 3))
            depth = rng.randint(1, 3)
            tree = random_tree(rng, size, depth)
            if selection_count(tree, depth) <= 30_000:
                break
        f = random_finitary(rng, size, depth, inf_probability=0.15)
        exact_engine = eval_finitary(tree, f)
        exact_oracle = brute_force_upper(tree, f)
        assert exact_oracle == exact_engine

        ftree, ff = tree.map_masses(float), float_variable(f)
        loose_engine = eval_finitary(ftree, ff)
        loose_oracle = brute_force_upper(ftree, ff)
        if loose_engine is not POS_INF and loose_oracle is not POS_INF:
            assert abs(loose_engine - loose_oracle) <= TOL
        else:
            assert loose_engine == loose_oracle
    elapsed = time.time() - start
    assert elapsed < 30, f"oracle sweep took {elapsed:.1f}s"


@criterion(2, "axiom audit, 500 trials, planted counterexamples")
def test_axiom_suites():
    space = StateSpace(("0", "1", "2"))
    generic = CredalSet([(F(1, 2), F(1, 4), F(1, 4)),
                         (F(1, 10), F(1, 2), F(2, 5))])
    zeroed = CredalSet([(F(1, 2), F(1, 2), 0), (F(1, 10), F(9, 10), 0)])
    for model, seed in ((generic, 7), (zeroed, 3)):
        [report] = audit_axioms([upper_envelope(model)], space, trials=500, seed=seed, tol=TOL)
        assert report.all_passed, [r.counterexample for r in report.failures()]
        assert report.alt_characterisation_consistent
        if model is zeroed:
            assert report.e10_branches["finite"] > 0 and report.e10_branches["divergent"] > 0

    sup_plus, spread = audit_axioms([broken_sup_plus_one(), broken_point_spread_bonus()],
                                    space, trials=500, seed=11, tol=TOL)
    assert not sup_plus.results["E5"].passed
    assert sup_plus.results["E5"].counterexample is not None
    assert not spread.results["E4"].passed
    assert spread.results["E4"].counterexample is not None


@criterion(3, "global properties V1-V6 + constant additivity, 100 each")
def test_global_properties():
    from gtue.tree import rank

    rng = seeded(10_003)
    for _ in range(100):
        tree = random_tree(rng, 2, 3).map_masses(float)
        f = float_variable(random_finitary(rng, 2, 2, inf_probability=0.1))
        g = float_variable(random_finitary(rng, 2, 2, inf_probability=0.1))
        s = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 1)))
        block = 2 ** (f.depth - len(s))
        start = rank(s, 2) * block
        cylinder = f.values[start:start + block]

        value = eval_finitary(tree, f, s)
        # V1: sup bound over the conditioning cylinder.
        assert le_within(value, max(cylinder), TOL)
        # V2: sub-additivity.
        assert le_within(eval_finitary(tree, f.combine(g, add), s),
                         add(value, eval_finitary(tree, g, s)), TOL)
        # V3: non-negative homogeneity.
        for lam in (0, 0.5, 2):
            assert close(eval_finitary(tree, f.map(lambda v: scale(lam, v)), s),
                         scale(lam, value))
        # V4: monotonicity against a pointwise-larger variable.
        bump = float_variable(random_finitary(rng, 2, 2, low=0, high=2))
        assert le_within(value, eval_finitary(tree, f.combine(bump, add), s), TOL)
        # V5: lower/upper sandwich on gambles.
        gamble = float_variable(random_gamble(rng, 2, 2))
        low = eval_lower_finitary(tree, gamble, s)
        high = eval_finitary(tree, gamble, s)
        g_cyl = gamble.values[start:start + block] if s else gamble.values
        assert le_within(min(g_cyl), low, TOL) and le_within(low, high, TOL) \
            and le_within(high, max(g_cyl), TOL)
        # V6: constant additivity.
        mu = rng.uniform(-5, 5)
        assert close(eval_finitary(tree, f.map(lambda v: add(v, mu)), s),
                     add(value, mu))


@criterion(4, "iterated law and local compatibility, exact, 100 instances")
def test_iterated_law_and_compatibility():
    from gtue import local_upper

    rng = seeded(10_004)
    for _ in range(100):
        tree = random_tree(rng, 2, 4)
        depth = rng.randint(1, 4)
        f = random_finitary(rng, 2, depth, inf_probability=0.1)
        for d in range(depth):
            for s in situations_at(d, 2):
                children = tuple(eval_finitary(tree, f, s + (x,)) for x in (0, 1))
                assert local_upper(tree.local_model_at(s), children) \
                    == eval_finitary(tree, f, s)
        s = tuple(rng.randint(0, 1) for _ in range(depth - 1))
        local_view = tuple(f.value_at(s + (x,)) for x in (0, 1))
        assert eval_finitary(tree, f, s) == local_upper(tree.local_model_at(s), local_view)


@criterion(5, "conditional-value process is a supermartingale, tol 0, 100 instances")
def test_eval_process_supermartingale():
    rng = seeded(10_005)
    for _ in range(100):
        tree = random_tree(rng, rng.choice((2, 3)), 3)
        f = random_finitary(rng, tree.space.size, rng.randint(1, 3),
                            inf_probability=0.15)
        verdict = check_supermartingale(tree, eval_process(tree, f), 0)
        assert verdict.is_supermartingale


@criterion(6, "certificate tightness and constant shifts")
def test_certificate_tightness():
    rng = seeded(10_006)
    for _ in range(25):
        tree = random_tree(rng, 2, 3)
        f = random_finitary(rng, 2, rng.randint(1, 3), inf_probability=0.1)
        M = eval_process(tree, f)
        value = eval_finitary(tree, f)
        assert certificate_bound(tree, M, f) == value
        for c in (F(1, 10), F(1)):
            assert certificate_bound(tree, shift(M, c), f) == add(value, c)


@criterion(7, "monotone convergence of the clamp ladder, 50 instances")
def test_monotone_convergence():
    rng = seeded(10_007)
    zero_branch_seen = divergent_seen = 0
    for _ in range(50):
        zero_state = 1 if rng.random() < 0.5 else None
        tree = random_tree(rng, 2, 3, zero_state=zero_state)
        depth = rng.randint(1, 3)
        if zero_state is not None:
            cells = [s for s in situations_at(depth, 2) if s[0] == zero_state]
        else:
            cells = [s for s in situations_at(depth, 2) if rng.random() < 0.4]
        f = indicator(2, depth, cells)
        target = scale(POS_INF, eval_finitary(tree, f))
        blown = f.map(lambda v: scale(POS_INF, v))
        out = eval_limit(tree, clamp_above_sequence(blown))
        assert out.status == "converged"
        assert out.value == target
        if target == 0:
            zero_branch_seen += 1
        else:
            divergent_seen += 1
    assert zero_branch_seen > 0 and divergent_seen > 0


@criterion(8, "non-increasing finitary convergence within 1e-6 by iteration 40")
def test_non_increasing_convergence():
    rng = seeded(10_008)
    for _ in range(50):
        tree = random_tree(rng, 2, 3).map_masses(float)
        depth = rng.randint(1, 3)
        g = float_variable(random_gamble(rng, 2, depth))
        top = float(g.sup())

        def element(n, g=g, top=top, depth=depth):
            if n < depth:
                return constant(2, top + 3 * 2.0**-n)
            return g.map(lambda v: v + 3 * 2.0**-n)

        seq = explicit_sequence([element(n) for n in range(45)],
                                Monotonicity.NON_INCREASING)
        out = eval_limit(tree, seq)
        assert out.status == "converged"
        assert out.iterations <= 40
        assert abs(out.value - eval_finitary(tree, g)) <= 1e-6


@criterion(9, "Doob transform: exact supermartingale, telescoping, gains, 100 instances")
def test_doob_transform_suite():
    rng = seeded(10_009)
    realized = 0
    for _ in range(100):
        tree = random_tree(rng, 2, 6)
        M = random_supermartingale(tree, rng, 6, leaf_high=4, slack_high=F(1, 4))
        for window in ((F(1), F(2)), (F(1, 2), F(3, 2))):
            transform = doob_transform(tree, M, (), *window)
            assert check_supermartingale(tree, transform.process, 0).is_supermartingale
            assert transform.process.min_value() >= 0
            for check in doob_gain_checks(M, transform):
                assert check.identity_ok
                assert check.terms_exceed_width
                assert check.bound_ok
                realized += check.upcrossings >= 1
    assert realized > 0


@criterion(10, "Levy transform: positive, unit root, exact, growth bound, 50 instances")
def test_levy_transform_suite():
    rng = seeded(10_010)
    realized = 0
    done = 0
    while done < 50:
        depth = rng.randint(2, 4)
        tree = random_tree(rng, 2, depth)
        f = random_gamble(rng, 2, depth)
        if f.sup() == f.inf():
            continue
        done += 1
        delta = F(1, 2)
        lo, hi = delta, f.sup() - f.inf() + delta
        a = lo + (hi - lo) * F(1, 3)
        b = lo + (hi - lo) * F(2, 3)
        transform = levy_transform(tree, f, (), a, b, delta)
        assert transform.process.value_at(()) == 1
        assert transform.process.min_value() > 0
        assert check_supermartingale(tree, transform.process, 0).is_supermartingale
        for check in levy_bound_checks(transform):
            assert check.bound_ok
            realized += check.upcrossings >= 1
    assert realized > 0


@criterion(11, "supermartingale lemma suite: truncation, switch, infima, mixtures")
def test_lemma_suite():
    rng = seeded(10_011)
    for _ in range(100):
        tree = random_tree(rng, 2, 3)
        M = random_supermartingale(tree, rng, 3)
        bound = F(rng.randint(0, 60), 10)
        truncated = truncate(M, bound)
        assert check_supermartingale(tree, truncated, 0).is_supermartingale
        for leaf in situations_at(3, 2):
            assert min(bound, path_liminf(M, leaf)) == path_liminf(truncated, leaf)
        for d in range(3):
            for s in situations_at(d, 2):
                assert M.value_at(s) >= min_tail(M, s)
    for _ in range(30):
        tree = random_tree(rng, 2, 3)
        pair = [random_supermartingale(tree, rng, 3) for _ in range(2)]
        blend = mix(pair, [F(1, 3), F(2, 3)])
        assert check_supermartingale(tree, blend, 0).is_supermartingale


@criterion(12, "Fatou and lower-cut continuity, 100 instances each")
def test_fatou_and_lower_cuts():
    rng = seeded(10_012)
    for _ in range(100):
        tree = random_tree(rng, 2, 3).map_masses(float)
        g1 = float_variable(random_gamble(rng, 2, 2))
        g2 = float_variable(random_gamble(rng, 2, 2))
        liminf_var = g1.combine(g2, min)
        liminf_vals = min(eval_finitary(tree, g1), eval_finitary(tree, g2))
        assert le_within(eval_finitary(tree, liminf_var), liminf_vals, TOL)
    for _ in range(100):
        tree = random_tree(rng, 2, 3).map_masses(float)
        f = float_variable(random_gamble(rng, 2, 2))
        base = eval_finitary(tree, f)
        for alpha in (f.inf(), f.inf() - 3, f.inf() - 250):
            clamped = f.map(lambda v: v if v > alpha else alpha)
            assert close(eval_finitary(tree, clamped), base)
