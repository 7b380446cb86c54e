"""The global game-theoretic upper expectation on an imprecise probability tree.

For finitary variables the value is computed by exact backward recursion:
the table at depth n is the variable itself, and each shallower node
applies its local upper expectation to the child values.  The recursion
is exact (the law of iterated upper expectations makes it so), which is
why the global operator is computed rather than represented as an
infimum over supermartingales; the infimum enters only through
certificate_bound and the brute-force oracle.

backward_levels runs on raw payloads: it unboxes the variable's table
once, applies ``credal.upper_row`` to whole level rows (one model lookup
per level on stationary and by_depth trees, one per node on table
trees), and returns raw level tables.  ``XR`` is built only where a
value leaves through the public API.

Limits of declared-monotone sequences come from the paper's continuity
theorem where a sequence carries its limit: the clamp ladder min(f, 2^n)
rises to a bounded-below f, so upward continuity makes the limit f's own
upper expectation, and one backward pass computes it exactly, +inf
included.  Only explicit finite lists are iterated; their items are
verified in the declared order, so a truncated run is still meaningful
(the last iterate bounds the limit from the declared side).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    unrank,
)
from .xreal import XR, abs_diff, le_within, neg, xr

STATUS_EXACT = "exact"
STATUS_CONVERGED = "converged"
STATUS_BUDGET = "budget_exhausted"

METHOD_CONTINUITY = "continuity"
METHOD_ITERATION = "iteration"

DEFAULT_BUDGET = 64


class TreeModel:
    """A state space, a depth bound, and a credal set for every situation."""

    __slots__ = ("space", "max_depth", "kind", "_assignment")

    def __init__(self, space: StateSpace, max_depth: int, kind: str, assignment):
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        self.space = space
        self.max_depth = max_depth
        self.kind = kind
        self._assignment = assignment
        self._validate()

    @classmethod
    def stationary(cls, space: StateSpace, model: CredalSet, max_depth: int) -> "TreeModel":
        return cls(space, max_depth, "stationary", model)

    @classmethod
    def by_depth(cls, space: StateSpace, models, max_depth: int) -> "TreeModel":
        return cls(space, max_depth, "by_depth", tuple(models))

    @classmethod
    def table(cls, space: StateSpace, models: dict, max_depth: int) -> "TreeModel":
        return cls(space, max_depth, "table", {tuple(k): v for k, v in models.items()})

    def _validate(self):
        if self.kind == "stationary":
            self._check_model(self._assignment)
        elif self.kind == "by_depth":
            if len(self._assignment) < self.max_depth:
                raise ValueError(
                    f"by_depth assignment needs {self.max_depth} levels, "
                    f"got {len(self._assignment)}")
            for model in self._assignment:
                self._check_model(model)
        elif self.kind == "table":
            for depth in range(self.max_depth):
                for i in range(self.space.size**depth):
                    s = unrank(i, depth, self.space.size)
                    if s not in self._assignment:
                        raise ValueError(f"table assignment misses situation {s}")
            for model in self._assignment.values():
                self._check_model(model)
        else:
            raise ValueError(f"unknown assignment kind {self.kind!r}")

    def _check_model(self, model: CredalSet):
        if model.size != self.space.size:
            raise SpaceMismatch("credal set size does not match the state space")

    def level_model(self, depth: int) -> CredalSet | None:
        """The credal set all situations at this depth share; None on table trees."""
        if self.kind == "stationary":
            return self._assignment
        if depth >= self.max_depth:
            raise DepthExceeded(f"no local model at depth {depth}")
        return self._assignment[depth] if self.kind == "by_depth" else None

    def local_model_at(self, s: Situation) -> CredalSet:
        s = tuple(s)
        model = self.level_model(len(s))
        return self._assignment[s] if model is None else model

    def map_masses(self, fn) -> "TreeModel":
        """The same tree with fn applied to every PMF entry (e.g. Fraction or float).

        The results must still be PMFs; exact ones must sum to exactly
        one, which Fraction(0.7) + Fraction(0.3) does not.
        """
        return self.map_points(lambda p: tuple(fn(m) for m in p))

    def map_points(self, fn) -> "TreeModel":
        """The same tree with fn applied to every extreme point (a tuple of masses)."""

        def lift(model: CredalSet) -> CredalSet:
            return CredalSet(tuple(fn(p) for p in model.extreme_points))

        if self.kind == "stationary":
            assignment = lift(self._assignment)
        elif self.kind == "by_depth":
            assignment = tuple(lift(m) for m in self._assignment)
        else:
            assignment = {s: lift(m) for s, m in self._assignment.items()}
        return TreeModel(self.space, self.max_depth, self.kind, assignment)

    def distinct_models(self):
        if self.kind == "stationary":
            return (self._assignment,)
        if self.kind == "by_depth":
            seen = []
            for m in self._assignment[:self.max_depth]:
                if m not in seen:
                    seen.append(m)
            return tuple(seen)
        seen = []
        for m in self._assignment.values():
            if m not in seen:
                seen.append(m)
        return tuple(seen)


@dataclass
class EvalResult:
    value: XR
    status: str
    iterations: int
    method: str
    bound_direction: str | None = None


def _check_variable(tree: TreeModel, f: FinitaryVariable):
    if f.arity != tree.space.size:
        raise SpaceMismatch("variable arity does not match the tree's state space")
    if f.depth > tree.max_depth:
        raise DepthExceeded(f"variable depth {f.depth} exceeds tree depth {tree.max_depth}")


def _upper_level(tree: TreeModel, depth: int, below: list) -> list:
    """Raw local upper expectations at every node of a depth, from the raw row below."""
    model = tree.level_model(depth)
    if model is not None:
        return upper_row(model, below)
    arity = tree.space.size
    row = []
    for i in range(arity**depth):
        model = tree.local_model_at(unrank(i, depth, arity))
        row += upper_row(model, below[i * arity:(i + 1) * arity])
    return row


def backward_levels(tree: TreeModel, f: FinitaryVariable, down_to: int = 0) -> list:
    """Raw level tables of the backward recursion, from depth f.depth down.

    Entries are raw payloads (int, Fraction or float, ``math.inf`` for
    +inf); levels above ``down_to`` are None.
    """
    _check_variable(tree, f)
    if not f.bounded_below:
        raise NotBoundedBelow("the upper expectation needs a bounded-below variable")
    levels: list = [None] * (f.depth + 1)
    levels[f.depth] = [v.v for v in f.values]
    for depth in range(f.depth - 1, down_to - 1, -1):
        levels[depth] = _upper_level(tree, depth, levels[depth + 1])
    return levels


def eval_finitary(tree: TreeModel, f: FinitaryVariable, s: Situation = ROOT) -> XR:
    """Upper expectation of a bounded-below finitary variable, conditional on s."""
    s = tuple(s)
    if len(s) > f.depth:
        raise ValueError("conditioning situation is deeper than the variable")
    levels = backward_levels(tree, f, down_to=len(s))
    return XR(levels[len(s)][rank(s, f.arity)])


def eval_process(tree: TreeModel, f: FinitaryVariable) -> Process:
    """The process s -> upper expectation of f given s, terminal at level f.depth."""
    levels = backward_levels(tree, f, down_to=0)
    return Process(f.arity, f.depth, levels, terminal_cut=level_cut(f.arity, f.depth))


def eval_lower_finitary(tree: TreeModel, f: FinitaryVariable, s: Situation = ROOT) -> XR:
    """Conjugate lower expectation of a bounded-above finitary variable."""
    if not f.bounded_above:
        raise NotBoundedAbove("the lower expectation needs a bounded-above variable")
    return neg(eval_finitary(tree, f.map(neg), s))


def eval_limit(tree: TreeModel, seq: FinitarySequence, s: Situation = ROOT,
               tol=1e-9, budget: int = DEFAULT_BUDGET) -> EvalResult:
    """Limit of the upper expectations along a declared-monotone sequence.

    A sequence that carries its limit (the clamp templates) is answered
    by one eval_finitary of it: method "continuity", one iteration.  An
    explicit list is iterated (method "iteration") until two successive
    values agree within tol, or until the repeated tail, whose value is
    the limit exactly, or up to the budget.  Its items were verified in
    the declared order, so a budget-exhausted value is still a one-sided
    bound: a lower bound on the limit for non-decreasing sequences, an
    upper bound for non-increasing ones.
    """
    if seq.monotonicity is Monotonicity.NONE:
        raise MonotonicityViolated(
            "eval_limit needs a declared monotone sequence; no theorem covers the rest")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if seq.limit is not None:
        return EvalResult(eval_finitary(tree, seq.limit, s), STATUS_CONVERGED, 1,
                          METHOD_CONTINUITY)
    tol_x = xr(tol)
    previous: XR | None = None
    for n, item in enumerate(seq.items[:budget]):
        value = eval_finitary(tree, item, s)
        if previous is not None and not abs_diff(value, previous) > tol_x:
            return EvalResult(value, STATUS_CONVERGED, n + 1, METHOD_ITERATION)
        previous = value
    if budget > len(seq.items):
        # Iterate len(items) repeats the last item: its value, the limit, is known.
        return EvalResult(previous, STATUS_CONVERGED, len(seq.items) + 1, METHOD_ITERATION)
    increasing = seq.monotonicity is Monotonicity.NON_DECREASING
    return EvalResult(previous, STATUS_BUDGET, budget, METHOD_ITERATION,
                      bound_direction="lower" if increasing else "upper")


def certificate_bound(tree: TreeModel, M: Process, f: FinitaryVariable,
                      s: Situation = ROOT, tol=0) -> XR:
    """Certified upper bound on the upper expectation of f at s.

    M must be a verified supermartingale with a terminal cut at or below
    f's depth whose tail values dominate f; then M(s) upper-bounds the
    value at s, and the canonical choice M = eval_process(f) is tight.
    """
    verdict = check_supermartingale(tree, M, tol)
    if not verdict.is_supermartingale:
        raise NotASupermartingale(
            f"certificate fails the supermartingale check: worst violation "
            f"{verdict.worst_violation}")
    if M.terminal_cut is None:
        raise NotTerminal("certificates must be terminal processes")
    tol_x = xr(tol)
    for member in M.terminal_cut:
        if len(member) < f.depth:
            raise ValueError(
                f"terminal member {member} is shallower than the variable depth {f.depth}")
        tail = M.value_at(member)
        needed = f.value_at(member)
        if not le_within(needed, tail, tol_x):
            raise DominanceFailed(
                f"tail value {tail.to_text()} at {member} does not dominate "
                f"f = {needed.to_text()}", witness=member)
    return M.value_at(tuple(s))


@dataclass
class ComparisonEvidence:
    value_a: XR
    value_b: XR
    local_dominance_held: bool


def compare_models(tree_a: TreeModel, tree_b: TreeModel, f: FinitaryVariable,
                   s: Situation = ROOT) -> ComparisonEvidence:
    """Evidence for two-tree dominance on one variable.

    Runs both recursions and spot-checks, at every node, that B's local
    model dominates A's on A's own recursion values.  When those checks
    all hold, the A-value at s cannot exceed the B-value (monotonicity
    closes the induction), and the pair of values is returned as
    evidence.  This is a property check, not a decision procedure for
    dominance in general.
    """
    if tree_a.space.labels != tree_b.space.labels:
        raise SpaceMismatch("compared trees must share the state space")
    if tree_a.max_depth != tree_b.max_depth:
        raise SpaceMismatch("compared trees must share the depth bound")
    s = tuple(s)
    levels_a = backward_levels(tree_a, f, down_to=len(s))
    levels_b = backward_levels(tree_b, f, down_to=len(s))
    # levels_a[depth] is A's local model on A's own child values; the same
    # children under B's local model give the spot check.
    held = all(q_a <= q_b_on_a
               for depth in range(len(s), f.depth)
               for q_a, q_b_on_a in zip(levels_a[depth],
                                        _upper_level(tree_b, depth, levels_a[depth + 1])))
    i = rank(s, f.arity)
    return ComparisonEvidence(XR(levels_a[len(s)][i]), XR(levels_b[len(s)][i]), held)
