"""Independent reference arithmetic for checking gtue reports.

Plain int / Fraction / float payloads with ``math.inf`` for +inf; no
``gtue`` import and no extended-real boxing.  Inputs to an upper
expectation never contain -inf, so the only convention needed is
``0 * inf = 0``, which holds here because zero masses are skipped.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def local_upper(points, h):
    """Upper envelope max_p sum_x p(x) h(x) of one credal set."""
    best = None
    for pmf in points:
        total = 0
        for mass, value in zip(pmf, h):
            if mass:
                total += mass * value
        if best is None or total > best:
            best = total
    return best


def backward_levels(model_at, arity: int, leaves: list) -> list:
    """Level tables of the upper-expectation process, root level first.

    ``model_at(depth, rank)`` gives the extreme points at a situation.
    """
    depth = 0
    while arity**depth < len(leaves):
        depth += 1
    levels = [None] * (depth + 1)
    levels[depth] = list(leaves)
    for d in range(depth - 1, -1, -1):
        below = levels[d + 1]
        levels[d] = [local_upper(model_at(d, i), below[i * arity:(i + 1) * arity])
                     for i in range(arity**d)]
    return levels


def upper_value(model_at, arity: int, leaves: list):
    return backward_levels(model_at, arity, leaves)[0][0]


def supermartingale_violations(model_at, arity: int, levels: list) -> int:
    """Number of internal nodes where the local upper expectation exceeds the value."""
    bad = 0
    for d in range(len(levels) - 1):
        below = levels[d + 1]
        for i, value in enumerate(levels[d]):
            if local_upper(model_at(d, i), below[i * arity:(i + 1) * arity]) > value:
                bad += 1
    return bad


def crossing_walk(levels: list, arity: int, a, b, from_root: bool = True) -> int:
    """Post-upcrossing situations of the window (a, b) below the root.

    A path is idle until its value first drops below a, then active until
    it first exceeds b, which completes one upcrossing.  Returns how many
    situations have completed at least one upcrossing and are idle.  With
    ``from_root`` false the root itself opens no window, as in the Levy
    transform, which is pinned to one there.
    """
    realized = 0
    states = [(0, False)]
    for d, level in enumerate(levels):
        current = []
        for i, value in enumerate(level):
            completed, active = states[i // arity] if d else (0, False)
            if not active and value < a and (d or from_root):
                active = True
            elif active and value > b:
                completed, active = completed + 1, False
            if completed and not active:
                realized += 1
            current.append((completed, active))
        states = current
    return realized


def parse_exact(raw):
    """A rational-mode report number: "inf", an exact decimal or "p/q"."""
    if raw == "inf":
        return INF
    if isinstance(raw, str):
        return Fraction(raw)
    raise ValueError(f"expected an exact number string, got {raw!r}")


def parse_float(raw):
    if raw == "inf":
        return INF
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    raise ValueError(f"expected a float, got {raw!r}")


def agrees(got, want, rational: bool) -> bool:
    """Exact equality in rational mode, 1e-9 absolute in float mode."""
    if got == INF or want == INF:
        return got == want
    if rational:
        return got == want
    return abs(got - want) <= 1e-9
