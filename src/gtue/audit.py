"""Randomized audit of the upper-expectation axioms against a black-box functional.

The audit treats the functional as opaque: it samples gambles and
bounded-below variables (injecting +inf entries with probability 0.1),
evaluates both sides of each axiom, and records the first failing probe
as a concrete counterexample.  Failures are data, not errors.

The functional maps a tuple of raw payloads (``xreal.payload``'s forms),
one per state, to a number, normalised with ``payload``.
Probes hold int, Fraction and +inf cells, so exact functionals are
audited exactly; ``upper_envelope`` converts them once per call for a
float model, with the same bits.

Covered properties, named as in the report:

* E1 constants, E2 sub-additivity, E3 non-negative homogeneity
  (including the +inf factor), E4 monotonicity;
* E5 inf/sup bounds, E6 constant additivity (real and +inf shifts),
  E7 homogeneity for non-negative real factors, E8 mixed
  super/sub-additivity on gambles, E9 uniform-convergence continuity;
* E10 continuity along non-decreasing sequences, in both branches: with
  zero upper probability on the +inf cells the clamps min(h, L) reach F(h)
  once past every finite entry; with a positive one they must diverge,
  checked as a necessary condition at finitely many levels: the clamps do
  not fall and stay above an E8 lower bound (an E8 failure otherwise), and
  F(h) is +inf (an E10 failure while E7 and E8 hold);
* C1, C2, C3: the coherence axioms on gambles;
* countable sub-additivity on finite prefixes of non-negative sequences.

The report also records whether the outcome table is consistent with the
alternative characterisation: a functional passing C1-C3 plus gamble
continuity must also pass E1-E4.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .credal import CredalSet, StateSpace, check_local, raw_upper, upper_row
from .xreal import (NEG_INF, POS_INF, payload, raw_add, raw_close_within, raw_le_within,
                    raw_neg, raw_scale, to_text)

INF_CELL_PROBABILITY = 0.1
GAMBLE_LOW, GAMBLE_HIGH = -10, 10


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
    tol = payload(tol)

    def F(h):
        return payload(functional(h))

    for _ in range(trials):
        _probe_once(F, space.size, rng, tol, report)
    return report


def _rand_finite(rng):
    return Fraction(rng.randint(GAMBLE_LOW * 100, GAMBLE_HIGH * 100), 100)


def _gamble(rng, n) -> tuple:
    return tuple(_rand_finite(rng) for _ in range(n))


def _bounded_below(rng, n) -> tuple:
    return tuple(POS_INF if rng.random() < INF_CELL_PROBABILITY else _rand_finite(rng)
                 for _ in range(n))


def _nonnegative(rng, n) -> tuple:
    return tuple(v if v is POS_INF else abs(v) for v in _bounded_below(rng, n))


def _fmt(h: tuple) -> str:
    return "(" + ", ".join(map(to_text, h)) + ")"


def _clamp(h: tuple, level) -> tuple:
    return tuple(v if v < level else level for v in h)


def _probe_once(F, n, rng, tol, report: AuditReport):
    res = report.results

    c = _rand_finite(rng)
    got = F((c,) * n)
    if not raw_close_within(got, c, tol):
        res["E1"].fail(f"constant {c}: functional returned {to_text(got)}")

    f, g = _bounded_below(rng, n), _bounded_below(rng, n)
    lhs = F(tuple(map(raw_add, f, g)))
    rhs = raw_add(F(f), F(g))
    if not raw_le_within(lhs, rhs, tol):
        res["E2"].fail(f"f={_fmt(f)}, g={_fmt(g)}: F(f+g)={to_text(lhs)} > "
                       f"F(f)+F(g)={to_text(rhs)}")

    h = _nonnegative(rng, n)
    for lam in (0, Fraction(1, 2), 2, POS_INF):
        scaled = F(tuple(raw_scale(lam, v) for v in h))
        expected = raw_scale(lam, F(h))
        if not raw_close_within(scaled, expected, tol):
            res["E3"].fail(f"lambda={to_text(lam)}, f={_fmt(h)}: "
                           f"F(lambda f)={to_text(scaled)} != {to_text(expected)}")
            break

    base = _bounded_below(rng, n)
    upper = tuple(map(raw_add, base, _nonnegative(rng, n)))
    if not raw_le_within(F(base), F(upper), tol):
        res["E4"].fail(f"f={_fmt(base)} <= g={_fmt(upper)} but "
                       f"F(f)={to_text(F(base))} > F(g)={to_text(F(upper))}")

    probe = _bounded_below(rng, n)
    value = F(probe)
    if value is NEG_INF or not raw_le_within(min(probe), value, tol) \
            or not raw_le_within(value, max(probe), tol):
        res["E5"].fail(f"f={_fmt(probe)}: F(f)={to_text(value)} outside "
                       f"[{to_text(min(probe))}, {to_text(max(probe))}]")

    mu = POS_INF if rng.random() < INF_CELL_PROBABILITY else _rand_finite(rng)
    shifted = F(tuple(raw_add(v, mu) for v in probe))
    if not raw_close_within(shifted, raw_add(value, mu), tol):
        res["E6"].fail(f"f={_fmt(probe)}, mu={to_text(mu)}: F(f+mu)={to_text(shifted)} != F(f)+mu")

    lam7 = abs(_rand_finite(rng)) if rng.random() < 0.8 else 0
    scaled7 = F(tuple(raw_scale(lam7, v) for v in probe))
    if not raw_close_within(scaled7, raw_scale(lam7, value), tol):
        res["E7"].fail(f"lambda={to_text(lam7)}, f={_fmt(probe)}: "
                       f"F(lambda f)={to_text(scaled7)} != lambda F(f)")

    gf, gg = _gamble(rng, n), _gamble(rng, n)
    total = tuple(map(raw_add, gf, gg))
    mixed_lhs = _lower(F, total)
    mixed_mid = raw_add(F(gf), _lower(F, gg))
    mixed_rhs = F(total)
    if not (raw_le_within(mixed_lhs, mixed_mid, tol)
            and raw_le_within(mixed_mid, mixed_rhs, tol)):
        res["E8"].fail(f"f={_fmt(gf)}, g={_fmt(gg)}: chain "
                       f"{to_text(mixed_lhs)} <= {to_text(mixed_mid)} "
                       f"<= {to_text(mixed_rhs)} broken")

    target = _gamble(rng, n)
    target_value = F(target)
    for j in (2, 5, 9):
        eps = Fraction(1, 2**j)
        noisy = tuple(raw_add(v, eps * rng.choice((-1, 1))) for v in target)
        # |F(f) - F(f_n)| <= eps, within tol; unequal infinities differ by +inf.
        if not raw_close_within(F(noisy), target_value, raw_add(eps, tol)):
            res["E9"].fail(f"f={_fmt(target)}, sup|f-f_n|={eps}: "
                           f"|F(f)-F(f_n)| exceeded the uniform distance")
            break

    _probe_e10(F, n, rng, tol, report)

    cg = _gamble(rng, n)
    if not raw_le_within(F(cg), max(cg), tol):
        res["C1"].fail(f"f={_fmt(cg)}: F(f)={to_text(F(cg))} > sup f")
    cf, cgg = _gamble(rng, n), _gamble(rng, n)
    if not raw_le_within(F(tuple(map(raw_add, cf, cgg))), raw_add(F(cf), F(cgg)), tol):
        res["C2"].fail(f"f={_fmt(cf)}, g={_fmt(cgg)}: gamble sub-additivity broken")
    lam_c = Fraction(rng.randint(1, 400), 100)
    if not raw_close_within(F(tuple(raw_scale(lam_c, v) for v in cf)),
                            raw_scale(lam_c, F(cf)), tol):
        res["C3"].fail(f"lambda={to_text(lam_c)}, f={_fmt(cf)}: "
                       "positive homogeneity broken on a gamble")

    terms = [_nonnegative(rng, n) for _ in range(4)]
    partial, bound = (0,) * n, 0
    for k, term in enumerate(terms, start=1):
        partial = tuple(map(raw_add, partial, term))
        bound = raw_add(bound, F(term))
        if not raw_le_within(F(partial), bound, tol):
            res["countable_subadditivity"].fail(
                f"prefix length {k}: F(sum)={to_text(F(partial))} > "
                f"sum of F terms {to_text(bound)}")
            break


def _lower(F, h: tuple):
    """The conjugate -F(-h) of the probe functional."""
    return raw_neg(F(tuple(map(raw_neg, h))))


def _probe_e10(F, n, rng, tol, report: AuditReport):
    """Both branches of non-decreasing continuity; extended-real elements
    (finite cells clamped, +inf cells kept) must reach F(h) at a finite index."""
    res = report.results["E10"]
    h = _bounded_below(rng, n)
    if all(v is not POS_INF for v in h):
        h = (POS_INF,) + h[1:]
    limit_value = F(h)

    finite_top = max((v for v in h if v is not POS_INF), default=0)
    reach = int(finite_top) + 2 if finite_top > 0 else 2

    # Extended-real elements: clamp only the finite cells.
    staged = F(tuple(v if v is POS_INF else min(v, reach) for v in h))
    if not raw_close_within(staged, limit_value, tol):
        res.fail(f"h={_fmt(h)}: extended-element sequence stalls at "
                 f"{to_text(staged)} instead of {to_text(limit_value)}")
        return

    charge = F(tuple(1 if v is POS_INF else 0 for v in h))

    # Geometric clamp ladder, always ending strictly above every finite entry.
    level = 1
    previous = F(_clamp(h, level))
    while finite_top >= level:
        level *= 2
        clamped = F(_clamp(h, level))
        if not raw_le_within(previous, clamped, tol):
            res.fail(f"h={_fmt(h)}: clamped values decreased "
                     f"({to_text(previous)} -> {to_text(clamped)})")
            return
        previous = clamped

    if raw_le_within(charge, 0, tol):
        report.e10_branches["finite"] += 1
        if not raw_close_within(previous, limit_value, tol):
            res.fail(f"h={_fmt(h)}: zero charge on the +inf cells but the clamp "
                     f"sequence stops at {to_text(previous)} != {to_text(limit_value)}")
        return

    report.e10_branches["divergent"] += 1
    # Above top, min(h, L) = f + g for the gambles f = (L - top) 1{h = +inf} and
    # g = min(h, top), so E8 gives F(min(h, L)) >= F(f) - F(-g).
    top, g = level, _clamp(h, level)
    floor = _lower(F, g)
    for level in (2 * top, 4 * top):
        clamped = F(_clamp(h, level))
        if not raw_le_within(previous, clamped, tol):
            res.fail(f"h={_fmt(h)}: clamped values decreased "
                     f"({to_text(previous)} -> {to_text(clamped)})")
            return
        f = tuple(level - top if v is POS_INF else 0 for v in h)
        bound = raw_add(F(f), floor)
        if not raw_le_within(bound, clamped, tol):
            report.results["E8"].fail(f"f={_fmt(f)}, g={_fmt(g)}: F(f)-F(-g)="
                                      f"{to_text(bound)} > F(f+g)={to_text(clamped)}")
        previous = clamped
    # Under E7 that bound rises at slope F(1{h = +inf}) > 0, so E10 needs F(h) = +inf;
    # a finite F(h) is charged to E10 only while E7 and E8 hold on every probe.
    if limit_value is not POS_INF and report.results["E7"].passed and report.results["E8"].passed:
        res.fail(f"h={_fmt(h)}: clamp sequence diverges but F(h)={to_text(limit_value)}")


# -- reference functionals for audit testing ---------------------------------

def upper_envelope(model: CredalSet) -> callable:
    """The coherent functional induced by a credal set: ``credal.raw_upper`` on it.

    When every support mass is a float, Python computes ``mass * v`` as
    ``mass * float(v)`` for an int or Fraction ``v``, so lifting the probe's
    supported cells to float once per call, after ``check_local``, gives
    ``raw_upper``'s bits without a ``Fraction.__rmul__`` per extreme point.
    Zero-mass cells are never lifted (a 10^400 there stays unused), and a
    row with a value too large for a float is evaluated unlifted, raising
    or not just as ``raw_upper`` does.
    """
    if not all(type(mass) is float for point in model.support for _, mass in point):
        return functools.partial(raw_upper, model)
    cells = sorted({i for point in model.support for i, _ in point})

    def lifted_upper(h):
        check_local(model, h)
        row = list(h)
        try:
            for i in cells:
                if not isinstance(row[i], float):
                    row[i] = float(row[i])
        except OverflowError:
            row = h
        return upper_row(model, row)[0]
    return lifted_upper


def vacuous_functional() -> callable:
    """h -> sup h: the upper envelope of the full simplex (coherent)."""
    return max


def broken_sup_plus_one() -> callable:
    """Documented broken functional #1: h -> sup h + 1.

    Pays a unit premium above the supremum, so it violates the sup bound
    (E5 and C1) and constant evaluation (E1).  It is not homogeneous
    either (E3, E7).
    """
    return lambda h: raw_add(max(h), 1)


def broken_point_spread_bonus(state: int = 0, bonus=Fraction(1, 10)) -> callable:
    """Documented broken functional #2: h -> h[state] + bonus * (sup h - inf h).

    Rewards dispersion on top of a point evaluation.  Raising the other
    cells can shrink the spread without moving h[state], so the value can
    drop for a pointwise-larger variable: monotonicity (E4) fails, and on
    variables whose maximum sits at ``state`` the sup bound (E5) fails too.
    """
    return lambda h: raw_add(h[state], raw_scale(bonus, raw_add(max(h), raw_neg(min(h)))))
