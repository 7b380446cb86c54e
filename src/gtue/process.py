"""Extended-real processes on the situation tree and the supermartingale calculus.

A Process stores one value per situation up to a horizon, as level
tables of raw payloads (``xreal.payload``), like ``FinitaryVariable``,
and the scalars it returns are payloads too.  Values are never -inf
(bounded-belowness is part of what makes a process a supermartingale
candidate, so it is enforced at construction).  A process may carry a
terminal cut: a complete cut such that the process is constant on the
whole subtree of each member.  Only terminal processes support
path-limit queries; at a finite horizon a liminf is undecidable
otherwise, and the engine refuses rather than approximates.

check_supermartingale runs by rows: per depth it applies the backward
recursion's level kernel (``TreeModel.upper_level``) to the level below and
compares each result with the process value above, so a supermartingale
is checked through the same local upper expectation the recursion
applies.  ``truncate``, ``shift`` and ``mix`` use the ``raw_*`` forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import is_

from .errors import (
    HorizonMismatch,
    NegativeWeight,
    NotTerminal,
    SpaceMismatch,
)
from .tree import Cut, Situation, is_complete, rank, situations_at, unrank
from .xreal import (NEG_INF, POS_INF, check_tol, payload, payload_table, raw_add,
                    raw_le_within, raw_neg, raw_scale, to_text)



@dataclass(frozen=True)
class Process:
    arity: int
    horizon: int
    levels: tuple[tuple, ...]
    terminal_cut: Cut | None = None

    def __post_init__(self):
        levels = tuple(map(payload_table, self.levels))
        object.__setattr__(self, "levels", levels)
        if len(levels) != self.horizon + 1:
            raise ValueError(f"expected {self.horizon + 1} levels, got {len(levels)}")
        for depth, level in enumerate(levels):
            if len(level) != self.arity**depth:
                raise ValueError(f"level {depth} has {len(level)} entries")
            if any(map(is_, level, repeat(NEG_INF))):
                raise ValueError("processes must be bounded below: -inf value found")
        if self.terminal_cut is not None:
            self._check_terminal()

    def _check_terminal(self):
        cut, arity, horizon = self.terminal_cut, self.arity, self.horizon
        if cut.max_depth() > horizon:
            raise ValueError("terminal cut lies beyond the horizon")
        if not set(chain.from_iterable(cut.members)) <= set(range(arity)):
            for member in cut:  # rank refuses the first member, in order, off the tree
                rank(member, arity)
        if not is_complete(cut, arity):
            raise ValueError("terminal cut must be complete")
        # A member at the horizon has no tail to check, so a level cut there needs no sort.
        for member in sorted(m for m in cut.members if len(m) < horizon):
            r = rank(member, arity)
            tail = self.levels[len(member)][r]
            for depth in range(len(member) + 1, horizon + 1):
                width = arity ** (depth - len(member))
                segment = self.levels[depth][r * width:(r + 1) * width]
                if any(v != tail for v in segment):
                    raise ValueError(
                        f"process is not constant beyond terminal member {member}")

    def value_at(self, s: Situation):
        r = rank(s, self.arity)  # refuses a state off the tree, past the horizon too
        if len(s) > self.horizon:
            if self.terminal_cut is not None and self.terminal_cut.member_before(s) is not None:
                return self.value_at(s[:self.horizon])
            raise ValueError(f"situation {s} lies beyond horizon {self.horizon}")
        return self.levels[len(s)][r]

    def map(self, fn) -> "Process":
        """Apply fn to every payload; it may return any number ``payload`` reads."""
        return Process(self.arity, self.horizon,
                       tuple(tuple(map(fn, level)) for level in self.levels),
                       self.terminal_cut)

    def min_value(self):
        return min(v for level in self.levels for v in level)


def from_values(arity: int, horizon: int, value_of, terminal_cut: Cut | None = None) -> Process:
    """Build a process from a callable situation -> value."""
    levels = tuple(tuple(value_of(s) for s in situations_at(d, arity))
                   for d in range(horizon + 1))
    return Process(arity, horizon, levels, terminal_cut)


def constant_process(arity: int, horizon: int, value,
                     terminal_cut: Cut | None = None) -> Process:
    return Process(arity, horizon,
                   tuple((value,) * arity**d for d in range(horizon + 1)),
                   terminal_cut)


@dataclass(frozen=True)
class SupermartingaleVerdict:
    is_supermartingale: bool
    worst_violation: tuple[Situation, object] | None  # (situation, raw gap)


def check_supermartingale(tree, M: Process, tol=0) -> SupermartingaleVerdict:
    """Verify the local decrease condition at every internal node.

    The comparison is order-based (Q <= M(s) + tol) rather than a
    subtraction test, so nodes where both sides are +inf verify
    correctly under the +inf - inf = +inf convention.  ``tol`` must be
    finite and non-negative (``xreal.check_tol``).
    """
    if tree.space.size != M.arity:
        raise SpaceMismatch("process and tree disagree on the state space")
    if M.horizon > tree.max_depth:
        raise HorizonMismatch(
            f"process horizon {M.horizon} exceeds tree depth {tree.max_depth}")
    tol = check_tol(tol)
    worst = None  # (depth, rank, raw gap); strict > keeps the first of equal gaps
    for depth in range(M.horizon):
        uppers = tree.upper_level(depth, M.levels[depth + 1])
        for i, (q, m) in enumerate(zip(uppers, M.levels[depth])):
            if not raw_le_within(q, m, tol):
                gap = raw_add(q, raw_neg(m))
                if worst is None or gap > worst[2]:
                    worst = (depth, i, gap)
    violation = None if worst is None else (unrank(worst[1], worst[0], M.arity), worst[2])
    return SupermartingaleVerdict(worst is None, violation)


def truncate(M: Process, bound) -> Process:
    """Pointwise min with a finite real; the output is real-valued."""
    bound = payload(bound)
    if bound is POS_INF or bound is NEG_INF:
        raise ValueError("truncation level must be finite")
    return M.map(lambda v: v if v < bound else bound)


def shift(M: Process, c) -> Process:
    """Pointwise addition of a finite constant (supermartingales stay such)."""
    c = payload(c)
    if c is POS_INF or c is NEG_INF:
        raise ValueError("shift constant must be finite")
    return M.map(lambda v: raw_add(v, c))


def mix(processes, weights) -> Process:
    """Finite convex-cone combination: sum of weights[i] * processes[i]."""
    processes = list(processes)
    weights = [payload(w) for w in weights]
    if len(processes) != len(weights):
        raise ValueError("one weight per process required")
    if not processes:
        raise ValueError("cannot mix zero processes")
    for w in weights:
        if w is POS_INF or w is NEG_INF:
            raise ValueError("mixture weights must be finite")
        if w < 0:
            raise NegativeWeight(f"negative mixture weight {to_text(w)}")
    first = processes[0]
    for p in processes[1:]:
        if p.horizon != first.horizon:
            raise HorizonMismatch("mixed processes must share a horizon")
        if p.arity != first.arity:
            raise SpaceMismatch("mixed processes must share the state space")
    levels = []
    for depth in range(first.horizon + 1):
        row = []
        for i in range(first.arity**depth):
            total = 0
            for p, w in zip(processes, weights):
                total = raw_add(total, raw_scale(w, p.levels[depth][i]))
            row.append(total)
        levels.append(tuple(row))
    cuts = {p.terminal_cut for p in processes}
    shared = cuts.pop() if len(cuts) == 1 else None
    return Process(first.arity, first.horizon, tuple(levels), shared)


def path_liminf(M: Process, prefix: Situation):
    """Limit of M along any path through ``prefix``.

    Defined only for terminal processes, where the tail is constant; for
    anything else a finite horizon cannot decide a liminf.
    """
    if M.terminal_cut is None:
        raise NotTerminal("path limits are only defined for terminal processes")
    prefix = tuple(prefix)
    rank(prefix, M.arity)  # refuses a state off the tree
    member = M.terminal_cut.member_before(prefix)
    if member is None:
        raise ValueError(f"prefix {prefix} does not reach the terminal cut")
    return M.value_at(member)


def min_tail(M: Process, s: Situation):
    """Minimum tail over the cut members comparable with s: one before it, or those after."""
    if M.terminal_cut is None:
        raise NotTerminal("tail values need a terminal process")
    s = tuple(s)
    rank(s, M.arity)  # refuses a state off the tree
    return min(M.value_at(u) for u in M.terminal_cut if u[:len(s)] == s or s[:len(u)] == u)
