"""Local uncertainty models on a finite state space.

A local model is a finitely generated credal set, stored as an explicit
list of extreme-point probability mass functions.  Its upper envelope

    Q(h) = max over extreme points p of  sum_x p(x) h(x)

is evaluated by one kernel, ``upper_row``, on raw payloads (int, Fraction
or float, with ``math.inf`` for +inf) under the extended-real
conventions of ``gtue.xreal``: the sum runs over the non-zero masses
only, so a zero-mass cell never contributes whatever the payoff there,
and +inf absorbs any sum it enters.  Bounded-below variables with +inf
entries are thus handled exactly.  The kernel has two bodies with the
same operations in the same order: a row of many blocks runs column by
column, and a single block, or a row with +inf in a column some point
reads, runs the one-block loop.  ``TreeModel.upper_level`` applies it
to one depth of a tree.  ``raw_upper`` is the one evaluator of a single
local variable, a tuple of payloads: one loop over the model's points
serves an exact model (ints over one denominator) and a float one (cells
lifted to float once); any other model or cell goes to ``upper_row``.  It
has ``upper_row``'s value and type.  ``local_upper`` and ``local_lower``
are its front ends on any sequence of numbers ``payload`` reads.

Redundant (non-extreme) points are permitted: evaluation is a maximum,
so they are harmless, and requiring minimality would drag in a convex
hull dependency for no benefit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import is_

from .errors import NotBoundedAbove, NotBoundedBelow
from .xreal import payload, raw_neg

PMF_SUM_TOL = 1e-12
_INF, _NEG = math.inf, -math.inf


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


class CredalSet:
    """Finitely generated credal set: a non-empty list of extreme PMFs.

    An extreme point whose masses are all int or Fraction is exact: its
    masses must be non-negative and sum to exactly one.  Any other point
    is float: its masses must be non-negative too, and its sum may miss
    one by PMF_SUM_TOL.
    """

    __slots__ = ("extreme_points", "support", "_forms")

    def __init__(self, extreme_points):
        points = tuple(tuple(p) for p in extreme_points)
        if not points:
            raise ValueError("a credal set needs at least one extreme point")
        size = len(points[0])
        for p in points:
            if len(p) != size:
                raise ValueError("extreme points must share one length")
            if not all(mass >= 0 for mass in p):
                raise ValueError(f"negative or NaN mass in extreme point {p}")
            total = sum(p)
            if all(isinstance(mass, (int, Fraction)) for mass in p):
                if total != 1:
                    raise ValueError(f"exact extreme point {p} sums to {total}, not 1")
            elif abs(total - 1) > PMF_SUM_TOL:
                raise ValueError(f"extreme point {p} sums to {total}, not 1")
        self.extreme_points = points
        # The (state index, mass) pairs of each point with non-zero mass:
        # skipping the zero masses is how 0 * inf = 0 holds in upper_row.
        self.support = tuple(tuple((i, mass) for i, mass in enumerate(p) if mass != 0)
                             for p in points)
        self._forms = None  # raw_upper's, built on its first call

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


def upper_row(model: CredalSet, row) -> list:
    """Local upper expectations of a row of raw child values, one per block.

    ``row`` holds raw payloads (int, Fraction or float, with ``math.inf``
    for +inf and no -inf), in consecutive blocks of ``model.size``
    children.  For each block the result is the maximum over extreme
    points of the sum of mass * value in index order over the non-zero
    masses, so a zero-mass +inf cell contributes nothing.  Each sum
    starts at the int 0 and the first maximiser wins: these are the
    operations of ``xreal.raw_add`` and ``xreal.raw_scale`` in the same order,
    so exact inputs give exact results and floats the same bits.

    A row of several blocks runs column by column when no supported column
    holds +inf: the same operations in the same order, one comprehension
    per (point, column).  A single block, or a row where +inf must end a
    sum, runs the one-block loop, which never does arithmetic on +inf; a
    block where some point reads +inf is +inf even if a product in it
    overflows a float, whatever the state order.
    """
    size = model.size
    support = model.support
    if len(row) > size:
        columns = _finite_columns(support, row, size)
        if columns is not None:
            best = None
            for point in support:
                sums = None
                for i, mass in point:
                    if sums is None:
                        sums = [0 + mass * v for v in columns[i]]
                    else:
                        sums = [t + mass * v for t, v in zip(sums, columns[i])]
                best = sums if best is None else \
                    [t if t > b else b for t, b in zip(sums, best)]
            return best
    out = []
    for base in range(0, len(row), size):
        best = None
        try:
            for point in support:
                total = 0
                for i, mass in point:
                    value = row[base + i]
                    if value is _INF:
                        total = _INF
                        break
                    total += mass * value
                if best is None or total > best:
                    best = total
        except OverflowError:
            # +inf absorbs the block even where a product before it overflows.
            if not any(row[base + i] is _INF for point in support for i, _ in point):
                raise
            best = _INF
        out.append(best)
    return out


def _finite_columns(support, row, size):
    """The row's supported columns by state index, or None if one holds +inf.

    The test is by identity, so a Fraction cell costs no ``Fraction.__eq__``;
    a float overflow's non-canonical inf stays in a column, where both
    bodies do the same arithmetic on it.
    """
    columns = {}
    for point in support:
        for i, _ in point:
            if i not in columns:
                column = row[i::size]
                if any(map(is_, column, repeat(_INF))):
                    return None
                columns[i] = column
    return columns


def raw_upper(model: CredalSet, h):
    """Upper expectation of a bounded-below local variable, a tuple of raw payloads.

    A wrong length (ValueError) and a -inf cell, which only a float can be,
    are refused before any arithmetic.  The result is ``upper_row``'s value
    and type, by the model's form.  Exact model, with int or Fraction finite
    supported cells: the sums run in ints over one denominator for the
    masses and one for the cells; a +inf ends a sum, strict ``>`` keeps the
    first maximiser, and the winner is an int when its masses and cells are.
    Float model: Python multiplies a float mass by ``float(v)`` anyway, so
    the supported cells are lifted once, unless one is too large for a float,
    and the same loop does the one-block operations of ``upper_row`` on them.
    """
    if len(h) != model.size:
        raise ValueError("variable length does not match the credal set")
    for v in h:
        if isinstance(v, float) and v == _NEG:
            raise NotBoundedBelow("local upper expectation needs a bounded-below argument")
    cells, scale, points = model._forms or _build_forms(model)
    if points is None:
        return upper_row(model, h)[0]
    row = list(h)
    if scale is not None:
        finite = [i for i in cells if h[i] is not _INF]
        if not all(type(h[i]) is Fraction or isinstance(h[i], int) for i in finite):
            return upper_row(model, h)[0]
        den = math.lcm(*(h[i].denominator for i in finite))
        for i in finite:
            row[i] = h[i].numerator * (den // h[i].denominator)
    else:
        try:
            for i in cells:
                v = row[i]
                if type(v) is Fraction:  # the int true division Fraction's float() runs
                    row[i] = v.numerator / v.denominator
                elif not isinstance(v, float):
                    row[i] = float(v)
        except OverflowError:
            return upper_row(model, h)[0]
    best = None
    for int_masses, point in points:
        total = 0
        for i, mass in point:
            if row[i] is _INF:
                total = _INF
                break
            total += mass * row[i]
        if best is None or total > best:
            best, winner, int_winner = total, point, int_masses
    if scale is None or best is _INF:
        return best
    if int_winner and all(isinstance(h[i], int) for i, _ in winner):
        return best // (scale * den)
    return Fraction(best, scale * den)


def _build_forms(model: CredalSet) -> tuple:
    """``raw_upper``'s (supported cells, scale, points) for a model, kept in ``_forms``.

    Points are (all masses int, (index, mass) pairs).  An exact model gets its mass
    denominator and int-scaled pairs; a float model no scale and its support's
    pairs; a model neither exact nor float no points.
    """
    support = model.support
    masses = [mass for point in support for _, mass in point]
    cells = sorted({i for point in support for i, _ in point})
    scale = points = None
    if all(isinstance(mass, (int, Fraction)) for mass in masses):
        scale = math.lcm(*(mass.denominator for mass in masses))
        points = [(all(isinstance(mass, int) for _, mass in point),
                   tuple((i, mass.numerator * (scale // mass.denominator)) for i, mass in point))
                  for point in support]
    elif all(type(mass) is float for mass in masses):
        points = [(False, point) for point in support]
    model._forms = cells, scale, points
    return model._forms


def local_upper(model: CredalSet, h):
    """Upper expectation of a bounded-below local variable: one number per state."""
    return raw_upper(model, tuple(map(payload, h)))


def local_lower(model: CredalSet, h):
    """Conjugate lower expectation of a bounded-above local variable."""
    h = tuple(map(payload, h))
    if any(v is _INF for v in h):
        raise NotBoundedAbove("local lower expectation needs a bounded-above argument")
    return raw_neg(raw_upper(model, tuple(map(raw_neg, h))))
