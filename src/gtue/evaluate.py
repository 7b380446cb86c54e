"""The global game-theoretic upper expectation on an imprecise probability tree.

For finitary variables the value is computed by exact backward recursion:
the table at depth n is the variable itself, and each shallower node
applies its local upper expectation to the child values.  The recursion
is exact (the law of iterated upper expectations makes it so), which is
why the global operator is computed rather than represented as an
infimum over supermartingales; the infimum enters only through
certificate_bound and the brute-force oracle.

Levels use the tables' rank layout throughout.  A TreeModel holds, per
depth, a tuple of credal sets in rank order, a 1-tuple when the whole
level shares one (stationary and by_depth trees), and it alone reads
that layout: ``upper_level``, ``models_at`` and ``local_model_at`` serve
every caller.  The value at s depends only on s's subtree, which is one
contiguous rank block per depth (``tree.subtree_block``), so
backward_levels walks that block only: the whole levels at the root,
nothing above s.  It runs on raw payloads: it slices the variable's
table, which already holds them, applies ``TreeModel.upper_level`` to
whole rows, and returns raw level tables; the values that leave through
the public API are raw payloads too.

Limits of declared-monotone sequences come from the paper's continuity
theorems, and every sequence carries its limit: the clamp ladder
min(f, 2^n) rises to a bounded-below f, so upward continuity makes the
limit f's own upper expectation, and one backward pass computes it
exactly, +inf included.  An explicit list is repeated at its tail, so
its limit is its last item.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat

from .credal import CredalSet, StateSpace, upper_row
from .errors import (
    DepthExceeded,
    DominanceFailed,
    MonotonicityViolated,
    NotASupermartingale,
    NotBoundedAbove,
    NotBoundedBelow,
    NotTerminal,
    SpaceMismatch,
)
from .process import Process, check_supermartingale
from .tree import (
    FinitarySequence,
    FinitaryVariable,
    Monotonicity,
    ROOT,
    Situation,
    level_cut,
    rank,
    situations_at,
    subtree_block,
)
from .xreal import NEG_INF, POS_INF, payload, raw_le_within, raw_neg, to_text


STATUS_EXACT = "exact"
STATUS_CONVERGED = "converged"

METHOD_CONTINUITY = "continuity"


class TreeModel:
    """A state space, a depth bound, and a credal set for every situation.

    The models sit in the tables' rank layout: each depth below
    ``max_depth`` holds a tuple of credal sets in rank order, one per
    node (table trees), or a 1-tuple whose model the whole depth shares
    (stationary and by_depth trees).  A stationary tree keeps one such
    level for every depth, so a large ``max_depth`` costs nothing.
    """

    __slots__ = ("space", "max_depth", "_levels")

    def __init__(self, space: StateSpace, max_depth: int, levels, models):
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        for model in models:
            if model.size != space.size:
                raise SpaceMismatch("credal set size does not match the state space")
        self.space = space
        self.max_depth = max_depth
        self._levels = levels

    @classmethod
    def stationary(cls, space: StateSpace, model: CredalSet, max_depth: int) -> "TreeModel":
        return cls(space, max_depth, ((model,),), (model,))

    @classmethod
    def by_depth(cls, space: StateSpace, models, max_depth: int) -> "TreeModel":
        models = tuple(models)
        if len(models) < max_depth:
            raise ValueError(
                f"by_depth assignment needs {max_depth} levels, got {len(models)}")
        return cls(space, max_depth, tuple((m,) for m in models[:max_depth]), models)

    @classmethod
    def table(cls, space: StateSpace, models: dict, max_depth: int) -> "TreeModel":
        """One model per situation above ``max_depth``: a key off the tree, a missing
        situation and a key at or past ``max_depth`` are refused."""
        models = {tuple(k): v for k, v in models.items()}
        for s in models:
            rank(s, space.size)  # refuses a state off the tree
        try:
            levels = tuple(tuple(models[s] for s in situations_at(depth, space.size))
                           for depth in range(max_depth))
        except KeyError as exc:
            raise ValueError(f"table assignment misses situation {exc.args[0]}") from None
        tree = cls(space, max_depth, levels, models.values())
        for s in models:
            if len(s) >= max_depth:
                raise ValueError(f"table assignment has situation {s} at or past "
                                 f"max_depth {max_depth}")
        return tree

    def level(self, depth: int) -> tuple[CredalSet, ...]:
        """A depth's models in rank order, or the 1-tuple of the model it shares."""
        if depth >= self.max_depth:
            raise DepthExceeded(f"no local model at depth {depth}")
        levels = self._levels
        return levels[depth] if depth < len(levels) else levels[0]

    def upper_level(self, depth: int, below: list, first: int = 0) -> list:
        """Raw local upper expectations at the rank block of ``depth`` that starts at
        ``first``: one per ``space.size`` children in the raw row ``below``."""
        level = self.level(depth)
        if len(level) == 1:
            return upper_row(level[0], below)
        size = self.space.size
        row = []
        for j, model in enumerate(level[first:first + len(below) // size]):
            row += upper_row(model, below[j * size:(j + 1) * size])
        return row

    def models_at(self, depth: int, block: range):
        """(model, node count) pairs over a rank block of one depth: one pair when
        the depth shares its model, else one pair per node in rank order."""
        level = self.level(depth)
        if len(level) == 1:
            return ((level[0], len(block)),)
        return ((model, 1) for model in level[block.start:block.stop])

    def local_model_at(self, s: Situation) -> CredalSet:
        s = tuple(s)
        level = self.level(len(s))
        r = rank(s, self.space.size)  # refuses a state off the tree, on every level form
        return level[0] if len(level) == 1 else level[r]

    def map_masses(self, fn) -> "TreeModel":
        """The same tree with fn applied to every PMF entry (e.g. Fraction or float).

        The results must still be PMFs; exact ones must sum to exactly
        one, which Fraction(0.7) + Fraction(0.3) does not.
        """
        return self.map_points(lambda p: tuple(fn(m) for m in p))

    def map_points(self, fn) -> "TreeModel":
        """The same tree with fn applied to every extreme point (a tuple of masses)."""
        levels = tuple(tuple(CredalSet(tuple(fn(p) for p in model.extreme_points))
                             for model in level) for level in self._levels)
        return TreeModel(self.space, self.max_depth, levels,
                         (model for level in levels for model in level))

    def distinct_models(self):
        """The distinct local models, depth by depth and then in rank order."""
        return tuple(dict.fromkeys(model for level in self._levels for model in level))


@dataclass
class EvalResult:
    value: object  # a raw payload
    status: str
    iterations: int
    method: str


def _check_variable(tree: TreeModel, f: FinitaryVariable):
    if f.arity != tree.space.size:
        raise SpaceMismatch("variable arity does not match the tree's state space")
    if f.depth > tree.max_depth:
        raise DepthExceeded(f"variable depth {f.depth} exceeds tree depth {tree.max_depth}")


def backward_levels(tree: TreeModel, f: FinitaryVariable, s: Situation = ROOT) -> list:
    """Raw level tables of the backward recursion over s's subtree.

    For every depth d from len(s) to f.depth, ``levels[d]`` holds the
    values at s's descendants of depth d, in rank order (the whole level
    when s is the root).  Entries are raw payloads (int, Fraction or
    float, ``math.inf`` for +inf); levels above s are None.  Only the
    values on s's subtree must be bounded below.
    """
    _check_variable(tree, f)
    s = tuple(s)
    levels: list = [None] * (f.depth + 1)
    levels[f.depth] = list(f.on_subtree(s))
    if any(map(operator.is_, levels[f.depth], repeat(NEG_INF))):
        raise NotBoundedBelow("the upper expectation needs a bounded-below variable")
    for depth in range(f.depth - 1, len(s) - 1, -1):
        first = subtree_block(s, depth, f.arity).start
        levels[depth] = tree.upper_level(depth, levels[depth + 1], first)
    return levels


def eval_finitary(tree: TreeModel, f: FinitaryVariable, s: Situation = ROOT):
    """Upper expectation of a finitary variable bounded below on s's subtree, given s."""
    s = tuple(s)
    return backward_levels(tree, f, s=s)[len(s)][0]


def eval_process(tree: TreeModel, f: FinitaryVariable) -> Process:
    """The process s -> upper expectation of f given s, terminal at level f.depth."""
    levels = backward_levels(tree, f)
    return Process(f.arity, f.depth, levels, terminal_cut=level_cut(f.arity, f.depth))


def eval_lower_finitary(tree: TreeModel, f: FinitaryVariable, s: Situation = ROOT):
    """Conjugate lower expectation of a finitary variable bounded above on s's subtree."""
    if any(map(operator.is_, f.on_subtree(tuple(s)), repeat(POS_INF))):
        raise NotBoundedAbove("the lower expectation needs a bounded-above variable")
    return raw_neg(eval_finitary(tree, f.map(operator.neg), s))


def eval_limit(tree: TreeModel, seq: FinitarySequence, s: Situation = ROOT) -> EvalResult:
    """Limit of the upper expectations along a declared-monotone sequence.

    Every sequence carries its limit, so the answer is one eval_finitary
    of it: status "converged", one iteration, method "continuity".
    """
    if seq.monotonicity is Monotonicity.NONE:
        raise MonotonicityViolated(
            "eval_limit needs a declared monotone sequence; no theorem covers the rest")
    return EvalResult(eval_finitary(tree, seq.limit, s), STATUS_CONVERGED, 1,
                      METHOD_CONTINUITY)


def certificate_bound(tree: TreeModel, M: Process, f: FinitaryVariable,
                      s: Situation = ROOT, tol=0):
    """Certified upper bound on the upper expectation of f at s.

    M must be a verified supermartingale with a terminal cut at or below
    f's depth whose tail values dominate f; then M(s) upper-bounds the
    value at s, and the canonical choice M = eval_process(f) is tight.
    """
    verdict = check_supermartingale(tree, M, tol)
    if not verdict.is_supermartingale:
        situation, gap = verdict.worst_violation
        raise NotASupermartingale(
            f"certificate fails the supermartingale check: worst violation "
            f"{to_text(gap)} at {situation}")
    if M.terminal_cut is None:
        raise NotTerminal("certificates must be terminal processes")
    tol = payload(tol)
    for member in M.terminal_cut:
        if len(member) < f.depth:
            raise ValueError(
                f"terminal member {member} is shallower than the variable depth {f.depth}")
        tail = M.value_at(member)
        needed = f.value_at(member)
        if not raw_le_within(needed, tail, tol):
            raise DominanceFailed(
                f"tail value {to_text(tail)} at {member} does not dominate "
                f"f = {to_text(needed)}", witness=member)
    return M.value_at(tuple(s))
