import random
from fractions import Fraction

import pytest

from gtue import CredalSet, StateSpace, TreeModel


@pytest.fixture
def space2():
    return StateSpace(("0", "1"))


@pytest.fixture
def model_a():
    """The mixing binary model used throughout: extremes 0.7/0.3 and 0.3/0.7."""
    return CredalSet([(Fraction(7, 10), Fraction(3, 10)),
                      (Fraction(3, 10), Fraction(7, 10))])


@pytest.fixture
def tree_a(space2, model_a):
    return TreeModel.stationary(space2, model_a, 4)


@pytest.fixture
def tree_b(space2):
    """Precise: all mass on state 0."""
    return TreeModel.stationary(space2, CredalSet([(1, 0)]), 4)


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def same(got, want) -> bool:
    """Equal type and repr: exact equality for rationals, bit equality for floats."""
    return (type(got), repr(got)) == (type(want), repr(want))
