"""Situations, cuts, finitary variables, and finitary sequences.

Situations are tuples of state indices (not labels); the empty tuple is
the initial situation.  Tables over X^n are laid out lexicographically,
so the descendants of a situation at any depth are one contiguous rank
block (``subtree_block``) and lookups are pure index arithmetic through
``rank``, the one gate from a situation to an index, which refuses a state
outside ``range(arity)``.  A finitary variable's table holds raw payloads
(``xreal.payload``), the form the backward kernel reads; ``value_at``,
``sup`` and ``inf`` return them as they are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from operator import is_

from .errors import MonotonicityViolated
from .xreal import NEG_INF, POS_INF, payload, payload_table

Situation = tuple[int, ...]

ROOT: Situation = ()


def rank(s: Situation, arity: int) -> int:
    """Lexicographic index of a situation among those of its depth; refuses a state off the tree."""
    r = 0
    for x in s:
        if not 0 <= x < arity:
            raise ValueError(f"situation {s} leaves the tree: states run from 0 to {arity - 1}")
        r = r * arity + x
    return r


def unrank(index: int, depth: int, arity: int) -> Situation:
    out = []
    for _ in range(depth):
        index, x = divmod(index, arity)
        out.append(x)
    return tuple(reversed(out))


def subtree_block(s: Situation, depth: int, arity: int) -> range:
    """The ranks, at depth, of s's descendants: one contiguous block."""
    if depth < len(s):
        raise ValueError(f"situation {s} is deeper than depth {depth}")
    width = arity ** (depth - len(s))
    first = rank(s, arity) * width
    return range(first, first + width)


def situations_at(depth: int, arity: int):
    """The situations of a depth in rank order (``unrank`` of 0, 1, ...)."""
    return itertools.product(range(arity), repeat=depth)


@dataclass(frozen=True)
class Cut:
    """A finite set of pairwise incomparable situations."""

    members: frozenset[Situation]

    def __post_init__(self):
        members = frozenset(map(tuple, self.members))
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_ordered", tuple(sorted(members)))
        if len(set(map(len, members))) > 1:
            # Distinct situations of one depth are never comparable; across depths,
            # lexicographic neighbours are the only candidate prefix pairs.
            for a, b in zip(self._ordered, self._ordered[1:]):
                if b[:len(a)] == a:
                    raise ValueError(f"cut members {a} and {b} are comparable")

    def __iter__(self):
        return iter(self._ordered)

    def __len__(self):
        return len(self.members)

    def member_before(self, s: Situation) -> Situation | None:
        """The unique member preceding-or-equal s, if any."""
        for depth in range(len(s) + 1):
            if s[:depth] in self.members:
                return s[:depth]
        return None

    def max_depth(self) -> int:
        return max(map(len, self.members), default=0)


def level_cut(arity: int, depth: int) -> Cut:
    return Cut(frozenset(situations_at(depth, arity)))


def is_complete(cut: Cut, arity: int) -> bool:
    """Exact coverage test: the leaf measures arity**-len(m) sum to one, scaled to ints."""
    deepest = cut.max_depth()
    return sum(arity ** (deepest - len(m)) for m in cut.members) == arity**deepest


@dataclass(frozen=True)
class FinitaryVariable:
    """A depth-n table over X^n, standing for an n-measurable global variable.

    ``map`` and ``combine`` callbacks get payloads and may return any
    number ``payload`` reads.
    """

    arity: int
    depth: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", payload_table(self.values))
        if len(self.values) != self.arity**self.depth:
            raise ValueError(
                f"table has {len(self.values)} entries, expected {self.arity ** self.depth}")

    @property
    def bounded_below(self) -> bool:
        return not any(map(is_, self.values, itertools.repeat(NEG_INF)))

    @property
    def bounded_above(self) -> bool:
        return not any(map(is_, self.values, itertools.repeat(POS_INF)))

    def on_subtree(self, s: Situation) -> tuple:
        """The values at s's descendants of the variable's depth, in rank order."""
        block = subtree_block(s, self.depth, self.arity)
        return self.values[block.start:block.stop]

    def value_at(self, s: Situation):
        """Value on the cylinder of s; s must be at least depth long."""
        if len(s) < self.depth:
            raise ValueError(f"situation {s} is shallower than depth {self.depth}")
        return self.values[rank(s, self.arity) // self.arity ** (len(s) - self.depth)]

    def sup(self):
        return max(self.values)

    def inf(self):
        return min(self.values)

    def map(self, fn) -> "FinitaryVariable":
        return FinitaryVariable(self.arity, self.depth, tuple(map(fn, self.values)))

    def combine(self, other: "FinitaryVariable", fn) -> "FinitaryVariable":
        if other.arity != self.arity:
            raise ValueError("cannot combine variables over different state spaces")
        depth = max(self.depth, other.depth)
        a, b = lift(self, depth), lift(other, depth)
        return FinitaryVariable(self.arity, depth,
                                tuple(fn(x, y) for x, y in zip(a.values, b.values)))


def constant(arity: int, value, depth: int = 0) -> FinitaryVariable:
    return FinitaryVariable(arity, depth, (payload(value),) * arity**depth)


def indicator(arity: int, depth: int, cells) -> FinitaryVariable:
    """Indicator of a set of depth-n cells, each given as a situation of that depth."""
    cells = list(map(tuple, cells))
    if any(len(cell) != depth for cell in cells):
        raise ValueError(f"indicator cells must be situations of depth {depth}")
    hits = {rank(cell, arity) for cell in cells}
    return FinitaryVariable(arity, depth, tuple(int(i in hits) for i in range(arity**depth)))


def lift(f: FinitaryVariable, depth: int) -> FinitaryVariable:
    """Re-express an n-measurable table at a deeper level; a pure copy."""
    if depth < f.depth:
        raise ValueError("can only lift to a greater or equal depth")
    if depth == f.depth:
        return f
    block = f.arity ** (depth - f.depth)
    values = tuple(v for v in f.values for _ in range(block))
    return FinitaryVariable(f.arity, depth, values)


def pointwise_leq(f: FinitaryVariable, g: FinitaryVariable) -> bool:
    depth = max(f.depth, g.depth)
    a, b = lift(f, depth), lift(g, depth)
    return all(x <= y for x, y in zip(a.values, b.values))


class Monotonicity(Enum):
    NON_DECREASING = "non_decreasing"
    NON_INCREASING = "non_increasing"
    NONE = "none"


@dataclass(frozen=True)
class FinitarySequence:
    """A declared-monotone sequence of finitary variables, with its limit.

    ``limit`` is a variable whose upper expectation is the limit of the
    element values: by upward continuity for the clamp ladder, and
    because an explicit list is constant from its last item on.
    """

    monotonicity: Monotonicity
    limit: FinitaryVariable


def clamp_above_sequence(base: FinitaryVariable) -> FinitarySequence:
    """min(f, 2**n): non-decreasing gambles converging to f from below.

    Where f is bounded below, upward continuity makes f's own upper
    expectation the limit of theirs, +inf included: f is the limit.  The
    limit at s depends on s's subtree only, so boundedness is checked
    there, by the evaluation of the query.
    """
    return FinitarySequence(Monotonicity.NON_DECREASING, limit=base)


def clamp_below_sequence(base: FinitaryVariable) -> FinitarySequence:
    """max(f, -(2**n)): the lower-cut sweep, equal to f once 2**n >= -min f.

    As for the ladder, only the queried subtree must be bounded below.
    """
    return FinitarySequence(Monotonicity.NON_INCREASING, limit=base)


def explicit_sequence(items, monotonicity: Monotonicity = Monotonicity.NONE) -> FinitarySequence:
    """A finite list of variables, repeated at the tail: its last item is the limit.

    The declared order is verified here on every consecutive pair.  The
    pointwise limit is the last item, so the limit of the upper
    expectations is that item's own: only it is evaluated, and only it
    must be bounded below where it is queried.
    """
    items = tuple(items)
    if not items:
        raise ValueError("an explicit sequence needs at least one element")
    if monotonicity is not Monotonicity.NONE:
        increasing = monotonicity is Monotonicity.NON_DECREASING
        for n, (a, b) in enumerate(zip(items, items[1:])):
            if not (pointwise_leq(a, b) if increasing else pointwise_leq(b, a)):
                raise MonotonicityViolated(
                    f"declared {monotonicity.value} order fails between "
                    f"items {n} and {n + 1}")
    return FinitarySequence(monotonicity, limit=items[-1])
