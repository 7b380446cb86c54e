"""Independent brute-force computation of the global upper expectation.

A precise tree compatible with the credal sets picks one extreme-point
PMF per situation.  For a fixed selection the value of a finitary
variable is the plain forward expectation under the induced product
measure (with the 0 * inf = 0 convention, so a zero-mass branch never
contributes whatever the payoff behind it).  The oracle value is the
maximum of that expectation over every selection.

Selections range over extreme points only: the expectation is linear in
each node's PMF once the others are fixed, so the maximum over each
node's whole credal polytope is attained at a vertex, and enumerating
vertices loses nothing.

No maximum is taken anywhere below the root.  The enumeration materializes
one expectation per selection, sharing partial sums across selections
that agree on a subtree (pure distributivity of the forward sum), and
maximizes once over the finished list.  That keeps the cost near
selection_count without ever touching the backward max recursion this
oracle exists to check.  The sums run on raw payloads through
``xreal.raw_scale`` and ``xreal.raw_add``, and the maximum is one too.
"""

from __future__ import annotations

from .errors import CapExceeded, NotBoundedBelow
from .evaluate import _check_variable
from .tree import FinitaryVariable, ROOT, Situation, rank, subtree_block
from .xreal import NEG_INF, raw_add, raw_scale


DEFAULT_CAP = 10**7


def selection_count(tree, n: int, s: Situation = ROOT) -> int:
    """Number of precise-tree selections for depth-n variables in s's subtree."""
    return _count(tree, n, tuple(s), None)


def brute_force_upper(tree, f: FinitaryVariable, s: Situation = ROOT,
                      cap: int = DEFAULT_CAP):
    """Max over selections of the forward expectation of f from s.

    Only the values on s's subtree must be bounded below.
    """
    _check_variable(tree, f)
    s = tuple(s)
    if any(v is NEG_INF for v in f.on_subtree(s)):
        raise NotBoundedBelow("the oracle needs a bounded-below variable")
    count = _count(tree, f.depth, s, cap)
    if count > cap:
        raise CapExceeded(f"at least {count} selections exceed the cap {cap}")
    return max(_expectations(tree, f, s))


def _count(tree, n: int, s: Situation, cap) -> int:
    """The selection count, or with a ``cap`` a number above it once the product passes it
    (every factor is at least 1; a shared model's power stops at ``cap.bit_length() + 1``)."""
    arity = tree.space.size
    subtree_block(s, len(s), arity)  # refuses a situation off the tree
    total = 1
    for depth in range(len(s), n):  # TreeModel.level refuses a depth past max_depth
        for model, nodes in tree.models_at(depth, subtree_block(s, depth, arity)):
            if cap is not None:
                nodes = min(nodes, cap.bit_length() + 1)
            total *= len(model.extreme_points) ** nodes
            if cap is not None and total > cap:
                return total
    return total


def _expectations(tree, f: FinitaryVariable, s: Situation) -> list:
    """One raw forward expectation per selection of the subtree rooted at s."""
    if len(s) == f.depth:
        return [f.values[rank(s, f.arity)]]
    child_tables = [_expectations(tree, f, s + (x,)) for x in range(f.arity)]
    model = tree.local_model_at(s)
    out = []
    for p in model.extreme_points:
        # Wide sub-selections: every combination of the children's tables.
        partial = [0]
        for mass, table in zip(p, child_tables):
            scaled = [raw_scale(mass, v) for v in table]
            partial = [raw_add(acc, sv) for acc in partial for sv in scaled]
        out.extend(partial)
    return out
