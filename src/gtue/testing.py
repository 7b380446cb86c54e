"""Seeded random instance generators used by the test suite and the scripts.

Rational generators draw small-denominator Fractions so that exact-mode
runs stay fast; float generators mirror them.  The supermartingale
generator works leaf-up: draw non-negative leaf values, then set every
internal value to its local upper expectation (level by level, through
the backward recursion's row kernel) plus a uniform slack, which
guarantees strict feasibility and exercises non-tight nodes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .credal import CredalSet, StateSpace
from .evaluate import TreeModel
from .process import Process
from .tree import FinitaryVariable, level_cut, unrank


def rand_fraction(rng: random.Random, low, high, denominator: int = 20) -> Fraction:
    return Fraction(rng.randint(int(low * denominator), int(high * denominator)), denominator)


def random_pmf(rng: random.Random, size: int, rational: bool = True,
               zero_state: int | None = None, grid: int = 20):
    """A random PMF on a grid; optionally forced to zero at one state."""
    while True:
        weights = [0 if i == zero_state else rng.randint(0, grid) for i in range(size)]
        total = sum(weights)
        if total > 0:
            break
    if rational:
        return tuple(Fraction(w, total) for w in weights)
    return tuple(w / total for w in weights)


def random_credal(rng: random.Random, size: int, points: int, rational: bool = True,
                  zero_state: int | None = None) -> CredalSet:
    return CredalSet(tuple(random_pmf(rng, size, rational, zero_state)
                           for _ in range(points)))


def random_tree(rng: random.Random, size: int, depth: int, max_points: int = 3,
                rational: bool = True, zero_state: int | None = None,
                kind: str | None = None) -> TreeModel:
    space = StateSpace(tuple(f"s{i}" for i in range(size)))
    kind = kind or rng.choice(("stationary", "by_depth", "table"))
    if kind == "stationary":
        return TreeModel.stationary(
            space, random_credal(rng, size, rng.randint(1, max_points), rational, zero_state),
            depth)
    if kind == "by_depth":
        return TreeModel.by_depth(
            space,
            [random_credal(rng, size, rng.randint(1, max_points), rational, zero_state)
             for _ in range(depth)],
            depth)
    table = {}
    for d in range(depth):
        for i in range(size**d):
            table[unrank(i, d, size)] = random_credal(
                rng, size, rng.randint(1, max_points), rational, zero_state)
    return TreeModel.table(space, table, depth)


def random_finitary(rng: random.Random, size: int, depth: int, low=-5, high=5,
                    inf_probability: float = 0.0, rational: bool = True) -> FinitaryVariable:
    def draw():
        if rng.random() < inf_probability:
            return math.inf
        return rand_fraction(rng, low, high) if rational else rng.uniform(low, high)

    return FinitaryVariable(size, depth, [draw() for _ in range(size**depth)])


def random_gamble(rng: random.Random, size: int, depth: int, low=-5, high=5,
                  rational: bool = True) -> FinitaryVariable:
    return random_finitary(rng, size, depth, low, high, 0.0, rational)


def random_supermartingale(tree: TreeModel, rng: random.Random, horizon: int,
                           leaf_high=4, slack_high=1, rational: bool = True,
                           terminal: bool = True) -> Process:
    """Leaf values >= 0, internal value = local upper expectation + slack."""
    size = tree.space.size

    def draw(high):
        return rand_fraction(rng, 0, high) if rational else rng.uniform(0, high)

    levels: list = [None] * (horizon + 1)
    levels[horizon] = [draw(leaf_high) for _ in range(size**horizon)]
    for depth in range(horizon - 1, -1, -1):
        levels[depth] = [q + draw(slack_high)
                         for q in tree.upper_level(depth, levels[depth + 1])]
    cut = level_cut(size, horizon) if terminal else None
    return Process(size, horizon, tuple(levels), cut)


def float_variable(f: FinitaryVariable) -> FinitaryVariable:
    return f.map(float)
