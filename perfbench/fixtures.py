"""Seeded instance generator for the benchmark.

Writes tree, variable, sequence and process JSON directly in the schema
``gtue.jsonio`` reads.  It does not import ``gtue`` (``gtue.testing``
included), so editing the library cannot change what a workload feeds
it: the same seed always gives byte-identical files.

Every PMF lies on the grid 1/GRID.  GRID = 20 = 2^2 * 5 makes each mass
a finite decimal, which rational mode reads exactly, and keeps
denominators small enough that rational-mode op times depend on the
tree shape rather than on which seed drew the masses.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

from reference import INF, crossing_walk, local_upper

GRID = 20
VALUE_LOW, VALUE_HIGH = -5, 5


def grid_pmf(rng, arity: int, with_zero: bool) -> tuple:
    """Integer weights summing to GRID, zero at one seeded state or nowhere.

    Zero masses take a cheaper path through the program, so whether a
    PMF has one is fixed by the workload's shape, not drawn from the seed.
    """
    zero = rng.randrange(arity) if with_zero else None
    free = [x for x in range(arity) if x != zero]
    cuts = sorted(rng.sample(range(1, GRID), len(free) - 1))
    weights = [0] * arity
    for x, lo, hi in zip(free, [0] + cuts, cuts + [GRID]):
        weights[x] = hi - lo
    return tuple(weights)


def grid_credal(rng, arity: int, points: int, zero=None) -> tuple:
    """Extreme points on the grid.

    With ``zero`` unset every second one has a zero mass at a seeded
    state; with ``zero`` set every one has a zero mass at that state.
    """
    if zero is None:
        return tuple(grid_pmf(rng, arity, with_zero=k % 2 == 1) for k in range(points))
    return tuple(_pmf_zero_at(rng, arity, zero) for _ in range(points))


def _pmf_zero_at(rng, arity: int, zero: int) -> tuple:
    weights = list(grid_pmf(rng, arity - 1, with_zero=False))
    weights.insert(zero, 0)
    return tuple(weights)


@dataclass
class Tree:
    """A credal tree: models[d][i] holds the integer-weight extreme points."""

    arity: int
    depth: int
    kind: str
    models: list
    rational: bool
    _masses: dict = field(default_factory=dict, repr=False)

    def model_at(self, d: int, i: int) -> tuple:
        weights = self.models[d][i]
        masses = self._masses.get(weights)
        if masses is None:
            masses = tuple(tuple(Fraction(w, GRID) if self.rational else w / GRID for w in p)
                           for p in weights)
            self._masses[weights] = masses
        return masses

    def distinct_models(self) -> int:
        return len({m for level in self.models for m in level})

    def doc(self) -> dict:
        states = [str(x) for x in range(self.arity)]
        if self.kind == "stationary":
            model = {"type": "stationary", "extreme_points": _pmfs(self.models[0][0])}
        elif self.kind == "by_depth":
            model = {"type": "by_depth", "levels": [_pmfs(level[0]) for level in self.models]}
        else:
            labels = situation_labels(self.arity, self.depth - 1)
            model = {"type": "table",
                     "entries": {labels[d][i]: _pmfs(m)
                                 for d, level in enumerate(self.models)
                                 for i, m in enumerate(level)}}
        return {"states": states, "model": model, "max_depth": self.depth}


def _pmfs(weights) -> list:
    # k / 20 prints as its exact two-place decimal, so rational mode reads it exactly.
    return [[w / GRID for w in p] for p in weights]


def make_tree(rng, arity: int, depth: int, kind: str, points, rational: bool,
              leaf_zero=None) -> Tree:
    """``points(d, i)`` fixes the extreme-point count of each credal set.

    Counts are part of the workload's shape, not drawn from the seed, so
    op costs stay comparable across seeds; the seed draws the masses.
    With ``leaf_zero`` set, every extreme point of the credal sets just
    above the leaves gives that state zero mass (for a stationary tree
    that is its one credal set), so +inf may sit there without making
    the upper expectation infinite.
    """
    if kind == "stationary":
        model = grid_credal(rng, arity, points(0, 0), leaf_zero)
        models = [[model] * arity**d for d in range(depth)]
    elif kind == "by_depth":
        models = []
        for d in range(depth):
            model = grid_credal(rng, arity, points(d, 0), leaf_zero if d == depth - 1 else None)
            models.append([model] * arity**d)
    else:
        assert leaf_zero is None, "table trees draw every credal set freely"
        models = [[grid_credal(rng, arity, points(d, i)) for i in range(arity**d)]
                  for d in range(depth)]
    return Tree(arity, depth, kind, models, rational)


def make_values(rng, count: int, inf_share: float, rational: bool, inf_at=None) -> list:
    """Grid (rational) or uniform (float) values in [-5, 5]; each cell is
    +inf with probability ``inf_share``, or only each cell ``i`` with
    ``inf_at(i)`` true when that predicate is given."""
    values = []
    for i in range(count):
        if (inf_at is None or inf_at(i)) and rng.random() < inf_share:
            values.append(INF)
        elif rational:
            values.append(Fraction(rng.randint(VALUE_LOW * GRID, VALUE_HIGH * GRID), GRID))
        else:
            values.append(rng.uniform(VALUE_LOW, VALUE_HIGH))
    return values


def number_doc(value):
    """JSON form of a value: "inf", a float literal, or an exact "p/q" string."""
    if value == INF:
        return "inf"
    if isinstance(value, Fraction):
        if GRID % value.denominator == 0:
            return float(value)  # a grid value prints as its exact decimal
        return f"{value.numerator}/{value.denominator}"
    return value


def variable_doc(arity: int, values: list) -> dict:
    depth = 0
    while arity**depth < len(values):
        depth += 1
    return {"depth": depth, "values": [number_doc(v) for v in values]}


def situation_labels(arity: int, depth: int) -> list:
    """labels[d][i]: dot-separated text of the rank-i situation at depth d."""
    labels = [[""]]
    for _ in range(depth):
        labels.append([f"{s}.{x}" if s else str(x) for s in labels[-1] for x in range(arity)])
    return labels


def make_supermartingale(rng, tree: Tree) -> list:
    """Leaf values in [0, 4]; each internal value is its local upper
    expectation plus a slack in [0, 1], so the process is a non-negative
    supermartingale by construction."""
    a = tree.arity
    leaves = [Fraction(rng.randint(0, 4 * GRID), GRID) for _ in range(a**tree.depth)]
    levels = [None] * (tree.depth + 1)
    levels[tree.depth] = leaves
    for d in range(tree.depth - 1, -1, -1):
        below = levels[d + 1]
        levels[d] = [local_upper(tree.model_at(d, i), below[i * a:(i + 1) * a])
                     + Fraction(rng.randint(0, GRID), GRID) for i in range(a**d)]
    return levels


def process_doc(levels: list, arity: int) -> dict:
    horizon = len(levels) - 1
    labels = situation_labels(arity, horizon)
    values = {labels[d][i]: number_doc(v) for d, level in enumerate(levels)
              for i, v in enumerate(level)}
    return {"horizon": horizon, "values": values, "terminal_cut": labels[horizon]}


def crossing_window(levels: list, arity: int, from_root: bool, candidates: int = 16):
    """A window (a, b) with at least one completed upcrossing.

    Fixed windows often cross nothing on a given instance, so the window
    is derived from it: every rising edge parent -> child proposes
    (parent + gap/3, child - gap/3); of the widest few, the one with the
    most post-upcrossing situations wins.
    """
    rises = []
    for d in range(1, len(levels)):
        for i, child in enumerate(levels[d]):
            parent = levels[d - 1][i // arity]
            if child > parent:
                rises.append((child - parent, d, i))
    rises.sort(key=lambda r: (-r[0], r[1], r[2]))
    best = None
    for gap, d, i in rises[:candidates]:
        parent = levels[d - 1][i // arity]
        a, b = parent + gap / 3, levels[d][i] - gap / 3
        realized = crossing_walk(levels, arity, a, b, from_root)
        if realized and (best is None or realized > best[0]):
            best = (realized, a, b)
    if best is None:
        raise ValueError("instance has no upcrossing window")
    return best[1], best[2]


def write_json(directory: str, name: str, doc) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path
