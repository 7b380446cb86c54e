"""Local uncertainty models on a finite state space.

A local model is a finitely generated credal set, stored as an explicit
list of extreme-point probability mass functions.  Its upper envelope

    Q(h) = max over extreme points p of  sum_x p(x) h(x)

is evaluated with the extended-real conventions, so bounded-below
variables with +inf entries are handled exactly (a zero-mass cell never
contributes, whatever the payoff there).

Redundant (non-extreme) points are permitted: evaluation is a maximum,
so they are harmless, and requiring minimality would drag in a convex
hull dependency for no benefit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnboundedAboveInput, UnboundedBelowInput
from .xreal import XR, add, neg, scale, xr

PMF_SUM_TOL = 1e-12


@dataclass(frozen=True)
class StateSpace:
    """Ordered, finite, non-empty set of state labels.

    The label order is the indexing contract for every table in the
    library: tables over X^n are laid out lexicographically in this order.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError("state space must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be unique")
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown state label {label!r}") from None


@dataclass(frozen=True)
class LocalVariable:
    """A table X -> extended reals."""

    values: tuple[XR, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(xr(v) for v in self.values))

    @property
    def bounded_below(self) -> bool:
        return all(not v.is_neg_inf for v in self.values)

    @property
    def bounded_above(self) -> bool:
        return all(not v.is_pos_inf for v in self.values)

    def __len__(self):
        return len(self.values)

    def map(self, fn) -> "LocalVariable":
        return LocalVariable(tuple(fn(v) for v in self.values))


class CredalSet:
    """Finitely generated credal set: a non-empty list of extreme PMFs."""

    __slots__ = ("extreme_points",)

    def __init__(self, extreme_points):
        points = tuple(tuple(p) for p in extreme_points)
        if not points:
            raise ValueError("a credal set needs at least one extreme point")
        size = len(points[0])
        for p in points:
            if len(p) != size:
                raise ValueError("extreme points must share one length")
            if any(mass < -PMF_SUM_TOL for mass in p):
                raise ValueError(f"negative mass in extreme point {p}")
            total = sum(p)
            if abs(total - 1) > PMF_SUM_TOL:
                raise ValueError(f"extreme point {p} sums to {total}, not 1")
        self.extreme_points = points

    @property
    def size(self) -> int:
        return len(self.extreme_points[0])

    def __eq__(self, other):
        return isinstance(other, CredalSet) and self.extreme_points == other.extreme_points

    def __hash__(self):
        return hash(self.extreme_points)

    def __repr__(self):
        return f"CredalSet({list(self.extreme_points)!r})"


def vacuous(size: int) -> CredalSet:
    """The vacuous model: all degenerate PMFs, upper envelope = sup."""
    return CredalSet(tuple(tuple(1 if j == i else 0 for j in range(size)) for i in range(size)))


def expectation(pmf, h: LocalVariable) -> XR:
    """Precise expectation of h under one PMF, convention arithmetic."""
    total = XR(0)
    for mass, value in zip(pmf, h.values):
        total = add(total, scale(mass, value))
    return total


def local_upper(model: CredalSet, h: LocalVariable) -> XR:
    """Upper expectation of a bounded-below local variable."""
    if len(h) != model.size:
        raise ValueError("variable length does not match the credal set")
    if not h.bounded_below:
        raise UnboundedBelowInput("local upper expectation needs a bounded-below argument")
    best = None
    for p in model.extreme_points:
        value = expectation(p, h)
        if best is None or value > best:
            best = value
    return best


def local_lower(model: CredalSet, h: LocalVariable) -> XR:
    """Conjugate lower expectation of a bounded-above local variable."""
    if not h.bounded_above:
        raise UnboundedAboveInput("local lower expectation needs a bounded-above argument")
    return neg(local_upper(model, h.map(neg)))
