"""Randomized audit of the upper-expectation axioms against black-box functionals.

The audit treats each functional as opaque: it samples gambles and
bounded-below variables (injecting +inf entries with probability 0.1),
evaluates both sides of each axiom, and records the first failing probe
as a concrete counterexample.  Failures are data, not errors.  The
functionals of one audit share one probe stream: each probe is drawn
and built once and checked against all of them.

A functional maps a tuple of raw payloads (``xreal.payload``'s forms),
one per state, to a number, normalised with ``payload``.  Probes hold
int, Fraction and +inf cells, so exact functionals are audited exactly.
Each draw is the int numerator k of a cell k/100, or +inf: the harness
sums, orders and clamps these ints, and builds each cell's Fraction once.

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

import copy
import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .credal import CredalSet, StateSpace, raw_upper
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
    tol: int | Fraction | float  # a payload: the CLI passes an exact 0 in rational mode
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


def audit_axioms(functionals, space: StateSpace, trials: int = 500,
                 seed: int = 0, tol: int | Fraction | float = 1e-9) -> list[AuditReport]:
    """Probe the axioms on random inputs; one report of pass/fail per axiom per functional.

    The functionals share one probe stream: each probe is drawn and built
    once and checked against every functional, and each report equals the
    one an audit of that functional alone gives.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    members = [(lambda h, functional=functional: payload(functional(h)),
                AuditReport({name: AxiomResult(name) for name in AXIOM_NAMES},
                            trials=trials, seed=seed, tol=tol))
               for functional in functionals]
    tol = payload(tol)
    groups = [(random.Random(seed), members)]
    for _ in range(trials):
        groups = [split for rng, group in groups
                  for split in _probe_once(rng, group, space.size, tol)]
    return [report for _, report in members]


class _Cells(dict):
    """Numerator k -> the cell Fraction(k, 100), built once; +inf maps to itself.
    Probe numerators satisfy |k| <= 4000 (four summed terms): at most 8,001 cells."""

    def __missing__(self, k):
        self[k] = cell = Fraction(k, 100)
        return cell


_cell = _Cells({POS_INF: POS_INF}).__getitem__


def _cells(ks) -> tuple:
    """The payloads a functional receives for the numerators ``ks``."""
    return tuple(map(_cell, ks))


def _sum(a, b) -> tuple:
    return tuple(POS_INF if x is POS_INF or y is POS_INF else x + y for x, y in zip(a, b))


def _rand_finite(rng):
    return rng.randint(GAMBLE_LOW * 100, GAMBLE_HIGH * 100)


def _gamble(rng, n) -> tuple:
    return tuple(_rand_finite(rng) for _ in range(n))


def _bounded_below(rng, n) -> tuple:
    return tuple(POS_INF if rng.random() < INF_CELL_PROBABILITY else _rand_finite(rng)
                 for _ in range(n))


def _nonnegative(rng, n) -> tuple:
    return tuple(k if k is POS_INF else abs(k) for k in _bounded_below(rng, n))


def _fmt(h: tuple) -> str:
    return "(" + ", ".join(map(to_text, h)) + ")"


def _clamp(ks: tuple, level) -> tuple:
    """min(h, level) on the numerators ``ks`` of h: a cell below ``level``, else ``level``."""
    cut = 100 * level
    return tuple(_cell(k) if k is not POS_INF and k < cut else level for k in ks)


def _probe_once(rng, members, n, tol) -> list:
    """One trial for the (F, report) members that share ``rng``: their groups after it.

    Only E9's draws depend on the answers: a member stops drawing noise at
    its first failure, so when others go on it forks onto a copy of the
    stream there, and every member draws what it would draw alone.
    """
    c = _cell(_rand_finite(rng))
    f, g = _bounded_below(rng, n), _bounded_below(rng, n)
    h = _cells(_nonnegative(rng, n))
    base = _bounded_below(rng, n)
    upper = _cells(_sum(base, _nonnegative(rng, n)))
    probe = _bounded_below(rng, n)
    mu = POS_INF if rng.random() < INF_CELL_PROBABILITY else _rand_finite(rng)
    lam7 = _cell(abs(_rand_finite(rng))) if rng.random() < 0.8 else 0
    gf, gg = _gamble(rng, n), _gamble(rng, n)
    target = _cells(_gamble(rng, n))

    # Sums, negations and bounds on the numerators; the products leave the 1/100 grid.
    f_plus_g, f, g, base = _cells(_sum(f, g)), _cells(f), _cells(g), _cells(base)
    scaled_h = [(lam, tuple(raw_scale(lam, v) for v in h))
                for lam in (0, Fraction(1, 2), 2, POS_INF)]
    shifted = _cells(_sum(probe, (mu,) * n))
    low, high, mu, probe = _cell(min(probe)), _cell(max(probe)), _cell(mu), _cells(probe)
    scaled7 = tuple(raw_scale(lam7, v) for v in probe)
    total = _sum(gf, gg)
    neg_total, neg_gg = _cells(-k for k in total), _cells(-k for k in gg)
    total, gf, gg = _cells(total), _cells(gf), _cells(gg)
    live = []
    for F, report in members:
        res = report.results
        got = F((c,) * n)
        if not raw_close_within(got, c, tol):
            res["E1"].fail(f"constant {c}: functional returned {to_text(got)}")

        lhs, rhs = F(f_plus_g), raw_add(F(f), F(g))
        if not raw_le_within(lhs, rhs, tol):
            res["E2"].fail(f"f={_fmt(f)}, g={_fmt(g)}: F(f+g)={to_text(lhs)} > "
                           f"F(f)+F(g)={to_text(rhs)}")

        value_h = F(h)
        for lam, scaled in scaled_h:
            got, expected = F(scaled), raw_scale(lam, value_h)
            if not raw_close_within(got, expected, tol):
                res["E3"].fail(f"lambda={to_text(lam)}, f={_fmt(h)}: "
                               f"F(lambda f)={to_text(got)} != {to_text(expected)}")
                break

        value_base, value_upper = F(base), F(upper)
        if not raw_le_within(value_base, value_upper, tol):
            res["E4"].fail(f"f={_fmt(base)} <= g={_fmt(upper)} but "
                           f"F(f)={to_text(value_base)} > F(g)={to_text(value_upper)}")

        value = F(probe)
        if value is NEG_INF or not raw_le_within(low, value, tol) \
                or not raw_le_within(value, high, tol):
            res["E5"].fail(f"f={_fmt(probe)}: F(f)={to_text(value)} outside "
                           f"[{to_text(low)}, {to_text(high)}]")

        got = F(shifted)
        if not raw_close_within(got, raw_add(value, mu), tol):
            res["E6"].fail(f"f={_fmt(probe)}, mu={to_text(mu)}: F(f+mu)={to_text(got)} != F(f)+mu")

        got = F(scaled7)
        if not raw_close_within(got, raw_scale(lam7, value), tol):
            res["E7"].fail(f"lambda={to_text(lam7)}, f={_fmt(probe)}: "
                           f"F(lambda f)={to_text(got)} != lambda F(f)")

        mixed_lhs = raw_neg(F(neg_total))
        mixed_mid = raw_add(F(gf), raw_neg(F(neg_gg)))
        mixed_rhs = F(total)
        if not (raw_le_within(mixed_lhs, mixed_mid, tol)
                and raw_le_within(mixed_mid, mixed_rhs, tol)):
            res["E8"].fail(f"f={_fmt(gf)}, g={_fmt(gg)}: chain "
                           f"{to_text(mixed_lhs)} <= {to_text(mixed_mid)} "
                           f"<= {to_text(mixed_rhs)} broken")
        live.append((F, report, F(target)))

    groups = []
    for j in (2, 5, 9):
        eps = Fraction(1, 2**j)
        noisy = tuple(raw_add(v, eps * rng.choice((-1, 1))) for v in target)
        going, failed = [], []
        for F, report, value in live:
            # |F(f) - F(f_n)| <= eps, within tol; unequal infinities differ by +inf.
            if raw_close_within(F(noisy), value, raw_add(eps, tol)):
                going.append((F, report, value))
            else:
                report.results["E9"].fail(f"f={_fmt(target)}, sup|f-f_n|={eps}: "
                                          f"|F(f)-F(f_n)| exceeded the uniform distance")
                failed.append((F, report))
        if failed:
            groups.append((copy.copy(rng) if going else rng, failed))
        live = going
        if not live:
            break
    else:
        groups.append((rng, [(F, report) for F, report, _ in live]))

    for stream, group in groups:
        h = _bounded_below(stream, n)
        if all(k is not POS_INF for k in h):
            h = (POS_INF,) + h[1:]
        cg, cf, cgg = [_gamble(stream, n) for _ in range(3)]
        cg_high, cf_plus_cgg = _cell(max(cg)), _cells(_sum(cf, cgg))
        cg, cf, cgg = _cells(cg), _cells(cf), _cells(cgg)
        lam_c = Fraction(stream.randint(1, 400), 100)
        scaled_cf = tuple(raw_scale(lam_c, v) for v in cf)
        terms = [_nonnegative(stream, n) for _ in range(4)]
        partials = list(map(_cells, itertools.accumulate(terms, _sum)))
        terms = list(map(_cells, terms))
        for F, report in group:
            res = report.results
            _probe_e10(F, h, tol, report)
            value = F(cg)
            if not raw_le_within(value, cg_high, tol):
                res["C1"].fail(f"f={_fmt(cg)}: F(f)={to_text(value)} > sup f")
            value_cf = F(cf)
            if not raw_le_within(F(cf_plus_cgg), raw_add(value_cf, F(cgg)), tol):
                res["C2"].fail(f"f={_fmt(cf)}, g={_fmt(cgg)}: gamble sub-additivity broken")
            if not raw_close_within(F(scaled_cf), raw_scale(lam_c, value_cf), tol):
                res["C3"].fail(f"lambda={to_text(lam_c)}, f={_fmt(cf)}: "
                               "positive homogeneity broken on a gamble")

            bound = 0
            for k, (term, partial) in enumerate(zip(terms, partials), start=1):
                bound = raw_add(bound, F(term))
                value = F(partial)
                if not raw_le_within(value, bound, tol):
                    res["countable_subadditivity"].fail(
                        f"prefix length {k}: F(sum)={to_text(value)} > "
                        f"sum of F terms {to_text(bound)}")
                    break
    return groups


def _probe_e10(F, ks, tol, report: AuditReport):
    """Both branches of non-decreasing continuity on the numerators ``ks`` (with a +inf cell)."""
    res = report.results["E10"]
    h = _cells(ks)
    limit_value = F(h)
    finite_top = max((k for k in ks if k is not POS_INF), default=0)
    charge = F(tuple(1 if k is POS_INF else 0 for k in ks))
    divergent = not raw_le_within(charge, 0, tol)

    # Geometric clamp ladder up to top, the first level strictly above every finite
    # entry, and two levels past it when the +inf cells carry a charge.
    top = 1
    while finite_top >= 100 * top:
        top *= 2
    level = 1
    previous = F(_clamp(ks, level))
    while level < (4 * top if divergent else top):
        if level == top:
            report.e10_branches["divergent"] += 1
            # Above top, min(h, L) = f + g for the gambles f = (L - top) 1{h = +inf} and
            # g = min(h, top), so E8 gives F(min(h, L)) >= F(f) - F(-g).
            g = _clamp(ks, top)
            floor = raw_neg(F(tuple(map(raw_neg, g))))  # the conjugate -F(-g)
        level *= 2
        clamped = F(_clamp(ks, level))
        if not raw_le_within(previous, clamped, tol):
            res.fail(f"h={_fmt(h)}: clamped values decreased "
                     f"({to_text(previous)} -> {to_text(clamped)})")
            return
        if level > top:
            f = tuple(level - top if k is POS_INF else 0 for k in ks)
            bound = raw_add(F(f), floor)
            if not raw_le_within(bound, clamped, tol):
                report.results["E8"].fail(f"f={_fmt(f)}, g={_fmt(g)}: F(f)-F(-g)="
                                          f"{to_text(bound)} > F(f+g)={to_text(clamped)}")
        previous = clamped

    if not divergent:
        report.e10_branches["finite"] += 1
        if not raw_close_within(previous, limit_value, tol):
            res.fail(f"h={_fmt(h)}: zero charge on the +inf cells but the clamp "
                     f"sequence stops at {to_text(previous)} != {to_text(limit_value)}")
    elif limit_value is not POS_INF and report.results["E7"].passed \
            and report.results["E8"].passed:
        # Under E7 that bound rises at slope F(1{h = +inf}) > 0, so E10 needs F(h) = +inf;
        # a finite F(h) is charged to E10 only while E7 and E8 hold on every probe.
        res.fail(f"h={_fmt(h)}: clamp sequence diverges but F(h)={to_text(limit_value)}")


# -- reference functionals for audit testing ---------------------------------

def upper_envelope(model: CredalSet) -> callable:
    """The coherent functional induced by a credal set: ``credal.raw_upper`` on it."""
    return functools.partial(raw_upper, model)


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
