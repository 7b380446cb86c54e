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
oracle exists to check.  The sums have the values, types and exceptions
of ``xreal.raw_scale`` and ``xreal.raw_add`` on raw payloads, in one of
three forms.  Where every non-zero mass is a ``Fraction`` and every cell
exact or +inf, every sum is a ``Fraction`` or +inf, so the sums run in
ints: each node's table is numerators over one denominator, and only the
maximum becomes a ``Fraction``.  Otherwise, where every finite cell is
below ``2**1000`` in magnitude, no product or sum can overflow a float
(every mass is at most 1 + ``PMF_SUM_TOL``), so the sums run on the
payloads in plain ``*`` and ``+``, testing +inf by identity.  Any other
variable runs through those two functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import is_

from .errors import CapExceeded, NotBoundedBelow
from .evaluate import _check_variable
from .tree import FinitaryVariable, ROOT, Situation, rank, subtree_block
from .xreal import NEG_INF, POS_INF, raw_add, raw_scale


DEFAULT_CAP = 10**7
# Below it in magnitude, a forward sum stays far below the float range at any depth
# the recursion reaches, since every mass is at most 1 + PMF_SUM_TOL.
_PLAIN_BOUND = 2**1000


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
    values = f.on_subtree(s)
    if any(map(is_, values, repeat(NEG_INF))):
        raise NotBoundedBelow("the oracle needs a bounded-below variable")
    count = _count(tree, f.depth, s, cap)
    if count > cap:
        raise CapExceeded(f"at least {count} selections exceed the cap {cap}")
    if len(s) < f.depth and _fraction_masses(tree, f.depth, s) and \
            all(v is POS_INF or type(v) is int or type(v) is Fraction for v in values):
        form = "ints"
    elif all(-_PLAIN_BOUND < v < _PLAIN_BOUND for v in values if v is not POS_INF):
        form = "plain"
    else:
        form = "raw"
    table, den = _expectations(tree, f, s, form)
    best = max(table)
    return Fraction(best, den) if form == "ints" and best is not POS_INF else best


def _fraction_masses(tree, n: int, s: Situation) -> bool:
    """Whether every non-zero mass of the models in s's subtree above depth n is a Fraction."""
    arity = tree.space.size
    return all(type(mass) is Fraction or not mass
               for depth in range(len(s), n)
               for model, _ in tree.models_at(depth, subtree_block(s, depth, arity))
               for point in model.extreme_points for mass in point)


def _count(tree, n: int, s: Situation, cap) -> int:
    """The selection count, or with a ``cap`` a number above it once the product passes it
    (every factor is at least 1; a shared model's power stops at ``cap.bit_length() + 1``)."""
    arity = tree.space.size
    rank(s, arity)  # refuses a situation off the tree
    total = 1
    for depth in range(len(s), n):  # TreeModel.level refuses a depth past max_depth
        for model, nodes in tree.models_at(depth, subtree_block(s, depth, arity)):
            if cap is not None:
                nodes = min(nodes, cap.bit_length() + 1)
            total *= len(model.extreme_points) ** nodes
            if cap is not None and total > cap:
                return total
    return total


def _expectations(tree, f: FinitaryVariable, s: Situation, form: str) -> tuple:
    """(table, den): one forward expectation per selection of the subtree rooted at s,
    each ``table[i] / den`` or +inf.  In the "ints" form the entries are ints and a node
    puts its children's tables over their lcm and its masses over the model's; in the
    "plain" and "raw" forms they are payloads over 1, summed in plain arithmetic or
    through ``raw_scale`` and ``raw_add``."""
    if len(s) == f.depth:
        value = f.values[rank(s, f.arity)]
        if form == "ints" and value is not POS_INF:
            return [value.numerator], value.denominator
        return [value], 1
    children = [_expectations(tree, f, s + (x,), form) for x in range(f.arity)]
    model = tree.local_model_at(s)
    below = scale = 1
    if form == "ints":
        below = math.lcm(*(den for _, den in children))
        scale = math.lcm(*(mass.denominator for point in model.extreme_points for mass in point))
    out = []
    for p in model.extreme_points:
        # Wide sub-selections: every combination of the children's tables.
        partial = [0]
        for mass, (table, den) in zip(p, children):
            if not mass:
                # raw_scale gives 0, and acc + 0 is acc: a sum from the int 0 is never -0.0.
                partial = [acc for acc in partial for _ in table]
            elif form == "raw":
                scaled = [raw_scale(mass, v) for v in table]
                partial = [raw_add(acc, sv) for acc in partial for sv in scaled]
            else:
                if form == "ints":
                    mass = mass.numerator * (scale // mass.denominator) * (below // den)
                scaled = [v if v is POS_INF else mass * v for v in table]
                partial = [POS_INF if acc is POS_INF or sv is POS_INF else acc + sv
                           for acc in partial for sv in scaled]
        out.extend(partial)
    return out, scale * below
