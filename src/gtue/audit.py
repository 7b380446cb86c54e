"""Randomized audit of the upper-expectation axioms against a black-box functional.

The audit treats the functional as opaque: it samples gambles and
bounded-below variables (injecting +inf entries with probability 0.1),
evaluates both sides of each axiom, and records the first failing probe
as a concrete counterexample.  Failures are data, not errors.

Covered properties, named as in the report:

* E1 constants, E2 sub-additivity, E3 non-negative homogeneity
  (including the +inf factor), E4 monotonicity;
* E5 inf/sup bounds, E6 constant additivity (real and +inf shifts),
  E7 homogeneity for non-negative real factors, E8 mixed
  super/sub-additivity on gambles, E9 uniform-convergence continuity;
* E10 continuity along non-decreasing sequences, exercising both the
  finite branch (the clamped sequence reaches the value exactly once the
  clamp passes every finite entry and the +inf cells carry zero upper
  probability) and the divergent branch (positive upper probability on
  the +inf cells; the running value is pushed past a ceiling with
  geometrically growing clamps);
* C1, C2, C3: the coherence axioms on gambles;
* countable sub-additivity on finite prefixes of non-negative sequences.

The report also records whether the outcome table is consistent with the
alternative characterisation: a functional passing C1-C3 plus gamble
continuity must also pass E1-E4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .credal import LocalVariable, StateSpace
from .xreal import XR, POS_INF, abs_diff, add, close_within, le_within, neg, scale, xr

INF_CELL_PROBABILITY = 0.1
GAMBLE_LOW, GAMBLE_HIGH = -10, 10
DIVERGENCE_CEILING = 1e12


@dataclass
class AxiomResult:
    name: str
    passed: bool = True
    counterexample: str | None = None

    def fail(self, description: str):
        if self.passed:
            self.passed = False
            self.counterexample = description


@dataclass
class AuditReport:
    results: dict[str, AxiomResult]
    trials: int
    seed: int
    tol: float
    e10_branches: dict[str, int] = field(default_factory=lambda: {"finite": 0, "divergent": 0})

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    @property
    def alt_characterisation_consistent(self) -> bool:
        premise = all(self.results[n].passed for n in ("C1", "C2", "C3", "E10"))
        conclusion = all(self.results[n].passed for n in ("E1", "E2", "E3", "E4"))
        return conclusion or not premise

    def failures(self) -> list[AxiomResult]:
        return [r for r in self.results.values() if not r.passed]


AXIOM_NAMES = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
               "C1", "C2", "C3", "countable_subadditivity")


def audit_axioms(functional, space: StateSpace, trials: int = 500,
                 seed: int = 0, tol: float = 1e-9) -> AuditReport:
    """Probe the axioms on random inputs; report pass/fail per axiom."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    report = AuditReport({name: AxiomResult(name) for name in AXIOM_NAMES},
                         trials=trials, seed=seed, tol=tol)
    n = space.size
    for _ in range(trials):
        _probe_once(functional, n, rng, tol, report)
    return report


def _rand_finite(rng):
    return Fraction(rng.randint(GAMBLE_LOW * 100, GAMBLE_HIGH * 100), 100)


def _gamble(rng, n) -> LocalVariable:
    return LocalVariable(tuple(XR(_rand_finite(rng)) for _ in range(n)))


def _bounded_below(rng, n) -> LocalVariable:
    values = [POS_INF if rng.random() < INF_CELL_PROBABILITY else XR(_rand_finite(rng))
              for _ in range(n)]
    return LocalVariable(tuple(values))


def _nonnegative(rng, n) -> LocalVariable:
    return LocalVariable(tuple(
        POS_INF if rng.random() < INF_CELL_PROBABILITY else XR(abs(_rand_finite(rng)))
        for _ in range(n)))


def _pointwise(f: LocalVariable, g: LocalVariable, op) -> LocalVariable:
    return LocalVariable(tuple(op(a, b) for a, b in zip(f.values, g.values)))


def _fmt(variable: LocalVariable) -> str:
    return "(" + ", ".join(v.to_text() for v in variable.values) + ")"


def _sup(h: LocalVariable) -> XR:
    return max(h.values)


def _inf(h: LocalVariable) -> XR:
    return min(h.values)


def _probe_once(F, n, rng, tol, report: AuditReport):
    res = report.results

    c = _rand_finite(rng)
    got = F(LocalVariable((XR(c),) * n))
    if not close_within(got, XR(c), tol):
        res["E1"].fail(f"constant {c}: functional returned {xr(got).to_text()}")

    f, g = _bounded_below(rng, n), _bounded_below(rng, n)
    lhs = F(_pointwise(f, g, add))
    rhs = add(F(f), F(g))
    if not le_within(lhs, rhs, tol):
        res["E2"].fail(f"f={_fmt(f)}, g={_fmt(g)}: F(f+g)={xr(lhs).to_text()} > "
                       f"F(f)+F(g)={xr(rhs).to_text()}")

    h = _nonnegative(rng, n)
    for lam in (XR(0), XR(Fraction(1, 2)), XR(2), POS_INF):
        scaled = F(h.map(lambda v: scale(lam, v)))
        expected = scale(lam, F(h))
        if not close_within(scaled, expected, tol):
            res["E3"].fail(f"lambda={lam.to_text()}, f={_fmt(h)}: "
                           f"F(lambda f)={xr(scaled).to_text()} != {xr(expected).to_text()}")
            break

    base = _bounded_below(rng, n)
    bump = _nonnegative(rng, n)
    upper = _pointwise(base, bump, add)
    if not le_within(F(base), F(upper), tol):
        res["E4"].fail(f"f={_fmt(base)} <= g={_fmt(upper)} but "
                       f"F(f)={xr(F(base)).to_text()} > F(g)={xr(F(upper)).to_text()}")

    probe = _bounded_below(rng, n)
    value = xr(F(probe))
    if value.is_neg_inf or not le_within(_inf(probe), value, tol) \
            or not le_within(value, _sup(probe), tol):
        res["E5"].fail(f"f={_fmt(probe)}: F(f)={value.to_text()} outside "
                       f"[{_inf(probe).to_text()}, {_sup(probe).to_text()}]")

    mu = POS_INF if rng.random() < INF_CELL_PROBABILITY else XR(_rand_finite(rng))
    shifted = F(probe.map(lambda v: add(v, mu)))
    if not close_within(shifted, add(value, mu), tol):
        res["E6"].fail(f"f={_fmt(probe)}, mu={mu.to_text()}: "
                       f"F(f+mu)={xr(shifted).to_text()} != F(f)+mu")

    lam7 = XR(abs(_rand_finite(rng))) if rng.random() < 0.8 else XR(0)
    scaled7 = F(probe.map(lambda v: scale(lam7, v)))
    if not close_within(scaled7, scale(lam7, value), tol):
        res["E7"].fail(f"lambda={lam7.to_text()}, f={_fmt(probe)}: "
                       f"F(lambda f)={xr(scaled7).to_text()} != lambda F(f)")

    gf, gg = _gamble(rng, n), _gamble(rng, n)
    low = lambda v: neg(F(v.map(neg)))  # noqa: E731 - conjugate of the probe functional
    mixed_lhs = low(_pointwise(gf, gg, add))
    mixed_mid = add(F(gf), low(gg))
    mixed_rhs = F(_pointwise(gf, gg, add))
    if not (le_within(mixed_lhs, mixed_mid, tol) and le_within(mixed_mid, mixed_rhs, tol)):
        res["E8"].fail(f"f={_fmt(gf)}, g={_fmt(gg)}: chain "
                       f"{xr(mixed_lhs).to_text()} <= {xr(mixed_mid).to_text()} "
                       f"<= {xr(mixed_rhs).to_text()} broken")

    target = _gamble(rng, n)
    target_value = F(target)
    for j in (2, 5, 9):
        eps = Fraction(1, 2**j)
        noisy = target.map(lambda v: add(v, XR(eps * rng.choice((-1, 1)))))
        if not le_within(abs_diff(F(noisy), target_value), XR(eps), tol):
            res["E9"].fail(f"f={_fmt(target)}, sup|f-f_n|={eps}: "
                           f"|F(f)-F(f_n)| exceeded the uniform distance")
            break

    _probe_e10(F, n, rng, tol, report)

    cg = _gamble(rng, n)
    if not le_within(F(cg), _sup(cg), tol):
        res["C1"].fail(f"f={_fmt(cg)}: F(f)={xr(F(cg)).to_text()} > sup f")
    cf, cgg = _gamble(rng, n), _gamble(rng, n)
    if not le_within(F(_pointwise(cf, cgg, add)), add(F(cf), F(cgg)), tol):
        res["C2"].fail(f"f={_fmt(cf)}, g={_fmt(cgg)}: gamble sub-additivity broken")
    lam_c = XR(Fraction(rng.randint(1, 400), 100))
    if not close_within(F(cf.map(lambda v: scale(lam_c, v))), scale(lam_c, F(cf)), tol):
        res["C3"].fail(f"lambda={lam_c.to_text()}, f={_fmt(cf)}: "
                       "positive homogeneity broken on a gamble")

    terms = [_nonnegative(rng, n) for _ in range(4)]
    partial = LocalVariable((XR(0),) * n)
    bound = XR(0)
    for k, term in enumerate(terms, start=1):
        partial = _pointwise(partial, term, add)
        bound = add(bound, F(term))
        if not le_within(F(partial), bound, tol):
            res["countable_subadditivity"].fail(
                f"prefix length {k}: F(sum)={xr(F(partial)).to_text()} > "
                f"sum of F terms {xr(bound).to_text()}")
            break


def _probe_e10(F, n, rng, tol, report: AuditReport):
    """Both branches of non-decreasing continuity.

    With extended-real elements (finite cells clamped, +inf cells kept)
    the sequence reaches the target exactly at a finite index.  With
    gamble elements min(h, level) the branch depends on the upper
    probability of the +inf set: zero means exact attainment once the
    clamp passes every finite entry, positive means divergence.
    """
    res = report.results["E10"]
    h = _bounded_below(rng, n)
    if all(v.is_finite for v in h.values):
        h = LocalVariable((POS_INF,) + h.values[1:])
    limit_value = xr(F(h))

    finite_top = max((v for v in h.values if v.is_finite), default=XR(0))
    reach = int(finite_top.v) + 2 if finite_top > 0 else 2

    # Extended-real elements: clamp only the finite cells.
    staged = F(LocalVariable(tuple(
        v if v.is_pos_inf else XR(min(v.v, reach)) for v in h.values)))
    if not close_within(staged, limit_value, tol):
        res.fail(f"h={_fmt(h)}: extended-element sequence stalls at "
                 f"{xr(staged).to_text()} instead of {limit_value.to_text()}")
        return

    inf_cells = LocalVariable(tuple(XR(1) if v.is_pos_inf else XR(0) for v in h.values))
    charge = xr(F(inf_cells))

    # Geometric clamp ladder, always ending strictly above every finite entry.
    previous = None
    level = 1
    while True:
        clamped = F(h.map(lambda v: v if v < level else XR(level)))
        if previous is not None and not le_within(previous, clamped, tol):
            res.fail(f"h={_fmt(h)}: clamped values decreased "
                     f"({xr(previous).to_text()} -> {xr(clamped).to_text()})")
            return
        previous = clamped
        if finite_top < level:
            break
        level *= 2

    if le_within(charge, XR(0), tol):
        report.e10_branches["finite"] += 1
        if not close_within(previous, limit_value, tol):
            res.fail(f"h={_fmt(h)}: zero charge on the +inf cells but the clamp "
                     f"sequence stops at {xr(previous).to_text()} != {limit_value.to_text()}")
        return

    report.e10_branches["divergent"] += 1
    # The clamped value grows like charge * level, so the ladder must run
    # past ceiling / charge before the ceiling test can trigger.
    finite_low = min((v for v in h.values if v.is_finite), default=XR(0))
    charge_rate = float(charge.v) if charge.is_finite else 1.0
    level_limit = 8 * (DIVERGENCE_CEILING + abs(float(finite_low.v))) / charge_rate
    while level < level_limit:
        clamped = F(h.map(lambda v: v if v < level else XR(level)))
        if not le_within(previous, clamped, tol):
            res.fail(f"h={_fmt(h)}: clamped values decreased on the divergent branch")
            return
        previous = clamped
        if xr(clamped) > DIVERGENCE_CEILING:
            break
        level *= 2
    else:
        res.fail(f"h={_fmt(h)}: positive charge {charge.to_text()} on the +inf cells "
                 f"but the clamp sequence never passed the ceiling")
        return
    if not limit_value.is_pos_inf:
        res.fail(f"h={_fmt(h)}: clamp sequence diverges but F(h)={limit_value.to_text()}")


# -- reference functionals for audit testing ---------------------------------

def upper_envelope(model) -> callable:
    """The coherent functional induced by a credal set."""
    from .credal import local_upper

    return lambda h: local_upper(model, h)


def vacuous_functional() -> callable:
    """h -> sup h: the upper envelope of the full simplex (coherent)."""
    return lambda h: max(h.values)


def broken_sup_plus_one() -> callable:
    """Documented broken functional #1: h -> sup h + 1.

    Pays a unit premium above the supremum, so it violates the sup bound
    (E5 and C1) and constant evaluation (E1).
    """
    return lambda h: add(max(h.values), XR(1))


def broken_point_spread_bonus(state: int = 0, bonus=Fraction(1, 10)) -> callable:
    """Documented broken functional #2: h -> h[state] + bonus * (sup h - inf h).

    Rewards dispersion on top of a point evaluation.  Raising the other
    cells can shrink the spread without moving h[state], so the value can
    drop for a pointwise-larger variable: monotonicity (E4) fails, and on
    variables whose maximum sits at ``state`` the sup bound (E5) fails too.
    """

    def F(h):
        spread = add(max(h.values), neg(min(h.values)))
        return add(h.values[state], scale(bonus, spread))

    return F
