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
same operations in the same order.  A row of many blocks runs a function
compiled once per support shape (each point's supported state indices,
and whether its masses are all floats: such a point's sums start at
``0.0``, which gives the bits of the loop's int ``0``) and cached; each model binds its masses to that code as the function's
globals, on its first row, so the code holds no payload and nothing is
compiled at import.  A single block, or a row with +inf in a column some
point reads, runs the one-block loop, the kernel's reference in the
tests.  ``TreeModel.upper_level`` applies it to one depth of a tree.
``raw_upper`` is the one evaluator of a single local variable, a tuple of
payloads, with ``upper_row``'s value and type.  An exact or a float model
runs its block form: one straight-line function per size and support
shape, compiled by the same means, that checks the variable, scales the
supported cells to ints over one denominator (exact) or lifts them to
float (float), and takes the maximum over the points' sums; any other
model or cell goes to ``upper_row``.  ``local_upper`` and
``local_lower`` are its front ends on any sequence of numbers
``payload`` reads.

Redundant (non-extreme) points are permitted: evaluation is a maximum,
so they are harmless, and requiring minimality would drag in a convex
hull dependency for no benefit.
"""

from __future__ import annotations

import functools
import math
import types
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

    __slots__ = ("extreme_points", "support", "_upper", "_kernel")

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
        self._upper = None  # raw_upper's block form, built on its first call
        self._kernel = None  # upper_row's, built on its first row of several blocks

    @property
    def size(self) -> int:
        return len(self.extreme_points[0])

    def __eq__(self, other):
        return isinstance(other, CredalSet) and self.extreme_points == other.extreme_points

    def __hash__(self):
        return hash(self.extreme_points)

    def __repr__(self):
        return f"CredalSet({list(self.extreme_points)!r})"

    def __reduce__(self):  # the compiled forms do not pickle; they are rebuilt on demand
        return CredalSet, (self.extreme_points,)


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

    A row of several blocks runs the model's kernel when no supported
    column holds +inf: one comprehension over the blocks that does the same
    operations in the same order (a point of float masses starts at ``0.0``,
    with the same bits), compiled once per support shape and cached, with
    the model's masses bound as its globals.  A single block,
    or a row where +inf must end a sum, runs the one-block loop, which never
    does arithmetic on +inf; a block where some point reads +inf is +inf
    even if a product in it overflows a float, whatever the state order.
    """
    size = model.size
    support = model.support
    if len(row) > size:
        cells, kernel = model._kernel or _build_kernel(model)
        columns = _finite_columns(cells, row, size)
        if columns is not None:
            return kernel(zip(*columns))
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


def _finite_columns(cells, row, size):
    """The row's columns at the state indices ``cells``, or None if one holds +inf.

    The test is by identity, so a Fraction cell costs no ``Fraction.__eq__``;
    a float overflow's non-canonical inf stays in a column, where the kernel
    and the one-block loop do the same arithmetic on it.
    """
    columns = []
    for i in cells:
        column = row[i::size]
        if any(map(is_, column, repeat(_INF))):
            return None
        columns.append(column)
    return columns


def _build_kernel(model: CredalSet) -> tuple:
    """``upper_row``'s (supported cells, kernel) for a model, kept in ``_kernel``: the
    shape's compiled code with the model's masses as its globals."""
    shape = tuple(tuple(i for i, _ in point) for point in model.support)
    floats = tuple(all(type(mass) is float for _, mass in point) for point in model.support)
    cells, code = _kernel_code(shape, floats)
    masses = {f"m{k}_{i}": mass for k, point in enumerate(model.support) for i, mass in point}
    model._kernel = cells, types.FunctionType(code, masses)
    return model._kernel


@functools.lru_cache(maxsize=256)
def _kernel_code(shape: tuple, floats: tuple) -> tuple:
    """(supported cells, code) of the row kernel for a shape, each point's supported
    state indices, and a flag per point whose masses are all floats.  Per zipped block
    of supported cells ``v{i}``, it binds each point's sum ``0 + m{k}_{i} * v{i} + ...``
    in turn and keeps ``s if s > b else b``; the source holds only names built from
    indices, and the masses ``m{k}_{i}`` are globals.  A float point's products are
    floats, so its sum starts at ``0.0``, which gives the bits of ``0`` faster.
    """
    cells = tuple(sorted({i for point in shape for i in point}))
    sums = [" + ".join(["0.0" if is_float else "0"] + [f"m{k}_{i} * v{i}" for i in point])
            for k, (point, is_float) in enumerate(zip(shape, floats))]
    clauses = [f"for b in [{sums[0]}]"]
    for total in sums[1:]:
        clauses += [f"for s in [{total}]", "for b in [s if s > b else b]"]
    source = (f"def kernel(blocks):\n"
              f"    return [b for {''.join(f'v{i}, ' for i in cells)}in blocks "
              f"{' '.join(clauses)}]\n")
    namespace = {}
    exec(compile(source, "<gtue.credal row kernel>", "exec"), namespace)
    return cells, namespace["kernel"].__code__


def raw_upper(model: CredalSet, h):
    """Upper expectation of a bounded-below local variable, a tuple of raw payloads.

    A wrong length (ValueError) and a -inf cell, which only a float can be,
    are refused before any arithmetic.  The result is ``upper_row``'s value
    and type.  An exact or float model runs its block form (``_upper_code``);
    whatever that form leaves, and any other model, runs ``upper_row``.
    """
    value = (model._upper or _build_upper(model))(h)
    if value is None:
        if len(h) != model.size:
            raise ValueError("variable length does not match the credal set")
        for v in h:
            if isinstance(v, float) and v == _NEG:
                raise NotBoundedBelow("local upper expectation needs a bounded-below argument")
        value = upper_row(model, h)[0]
    return value


def _no_form(h):
    """The block form of a model neither exact nor float: every variable runs ``upper_row``."""
    return None


def _build_upper(model: CredalSet):
    """``raw_upper``'s block form for a model, kept in ``_upper``: the shape's compiled code
    with the model's masses as its globals, int-scaled over one denominator ``D`` for an
    exact model and floats for a float model."""
    support = model.support
    shape = tuple(tuple(i for i, _ in point) for point in support)
    masses = [mass for point in support for _, mass in point]
    if all(isinstance(mass, (int, Fraction)) for mass in masses):
        scale = math.lcm(*(mass.denominator for mass in masses))
        ints = tuple(all(isinstance(mass, int) for _, mass in point) for point in support)
        names = {f"m{k}_{i}": mass.numerator * (scale // mass.denominator)
                 for k, point in enumerate(support) for i, mass in point}
        names["D"] = scale
    elif all(type(mass) is float for mass in masses):
        ints = None
        names = {f"m{k}_{i}": mass for k, point in enumerate(support) for i, mass in point}
    else:
        model._upper = _no_form
        return _no_form
    names.update(_BLOCK_NAMES)
    model._upper = types.FunctionType(_upper_code(model.size, shape, ints), names)
    return model._upper


_BLOCK_NAMES = {"INF": _INF, "NEG": _NEG, "Fraction": Fraction, "lcm": math.lcm}


@functools.lru_cache(maxsize=256)
def _upper_code(size: int, shape: tuple, ints) -> types.CodeType:
    """The block form of ``raw_upper`` for a model of ``size`` states and support shape
    ``shape``, exact when ``ints`` flags each point whose masses are ints, float when it
    is None.  The function returns None, for ``raw_upper`` to run ``upper_row``, on a wrong
    length, a -inf cell, a cell of another class than int, ``Fraction`` and float (and
    ``+inf`` for a float model), and a supported cell too large for a float.

    Exact form: each supported cell is ``n{i}`` over ``d{i}``, a +inf one marked
    ``d{i} = 0``, which makes the common denominator ``den`` 0 and the result +inf; with
    the cells scaled to ints ``x{i}`` over ``den``, each point's sum ``m{k}_{i} * x{i} + ...``
    runs in ints over ``D * den``.  A point of int masses has one supported cell,
    of mass 1, so where it wins, the result is that cell itself, int or ``Fraction``.
    Float form: each supported cell is lifted to ``x{i}`` as Python's own float product
    would lift it, and each point's sum starts at ``0.0``; with a +inf cell, a point that
    reads one is +inf.  Both keep the first maximiser with a strict ``>``, in point order.
    """
    cells = sorted({i for point in shape for i in point})
    lines = [f"if len(h) != {size}:", "    return None",
             f"{''.join(f'v{i}, ' for i in range(size))}= h"]
    lines += [line for i in range(size) if i not in cells
              for line in (f"if isinstance(v{i}, float) and v{i} == NEG:", "    return None")]
    if ints is not None:
        for i in cells:
            lines += [f"c = v{i}.__class__",
                      "if c is Fraction:", f"    n{i}, d{i} = v{i}.as_integer_ratio()",
                      "elif c is int:", f"    n{i} = v{i}", f"    d{i} = 1",
                      f"elif v{i} is INF:", f"    d{i} = 0",
                      "else:", "    return None"]
        lines += [f"den = lcm({', '.join(f'd{i}' for i in cells)})",
                  "if not den:", "    return INF"]
        lines += [f"x{i} = n{i} * (den // d{i})" for i in cells]
        winners = [f"v{point[0]}" if is_int else "None" for is_int, point in zip(ints, shape)]
        lines += _maximum([" + ".join(f"m{k}_{i} * x{i}" for i in point)
                           for k, point in enumerate(shape)], winners if any(ints) else None)
        lines.append("return Fraction(b, D * den)" if not any(ints) else
                     "return Fraction(b, D * den) if r is None else r")
    else:
        lines.append("try:")
        for i in cells:
            lines += [f"    c = v{i}.__class__",
                      "    if c is float:", f"        if v{i} == NEG:", "            return None",
                      f"        x{i} = v{i}",
                      "    elif c is Fraction:", f"        n, d = v{i}.as_integer_ratio()",
                      f"        x{i} = n / d",
                      "    elif c is int:", f"        x{i} = float(v{i})",
                      "    else:", "        return None"]
        lines += ["except OverflowError:", "    return None"]
        sums = [" + ".join(["0.0"] + [f"m{k}_{i} * x{i}" for i in point]) for k, point in
                enumerate(shape)]
        reads = [" or ".join(f"x{i} is INF" for i in point) for point in shape]
        lines.append(f"if {' or '.join(f'x{i} is INF' for i in cells)}:")
        lines += ["    " + line for line in _maximum(
            [f"INF if {read} else {total}" for read, total in zip(reads, sums)])]
        lines.append("    return b")
        lines += _maximum(sums)
        lines.append("return b")
    source = "def upper(h):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {}
    exec(compile(source, "<gtue.credal block form>", "exec"), namespace)
    return namespace["upper"].__code__


def _maximum(sums, winners=None) -> list:
    """Lines binding ``b`` to the first maximal sum by a strict ``>``, and with ``winners``,
    ``r`` to the winner's entry."""
    lines = [f"b = {sums[0]}"] + ([f"r = {winners[0]}"] if winners else [])
    for k, total in enumerate(sums[1:], 1):
        lines += [f"s = {total}", "if s > b:", "    b = s"]
        if winners:
            lines.append(f"    r = {winners[k]}")
    return lines


def local_upper(model: CredalSet, h):
    """Upper expectation of a bounded-below local variable: one number per state."""
    return raw_upper(model, tuple(map(payload, h)))


def local_lower(model: CredalSet, h):
    """Conjugate lower expectation of a bounded-above local variable."""
    h = tuple(map(payload, h))
    if any(map(is_, h, repeat(_INF))):
        raise NotBoundedAbove("local lower expectation needs a bounded-above argument")
    return raw_neg(raw_upper(model, tuple(map(raw_neg, h))))
