from fractions import Fraction

import pytest

from gtue import (
    CredalSet,
    POS_INF,
    NEG_INF,
    StateSpace,
    local_lower,
    local_upper,
    vacuous,
)
from gtue.errors import NotBoundedAbove, NotBoundedBelow
from tests.conftest import seeded


class TestLocalEnvelopes:
    def test_upper_hand_example(self, model_a):
        assert local_upper(model_a, (0, 1)) == Fraction(7, 10)

    def test_lower_hand_example(self, model_a):
        assert local_lower(model_a, (0, 1)) == Fraction(3, 10)

    def test_constants(self, model_a):
        rng = seeded(5)
        for _ in range(100):
            c = Fraction(rng.randint(-900, 900), 100)
            assert local_upper(model_a, (c, c)) == c
            assert local_lower(model_a, (c, c)) == c

    def test_zero_mass_times_infinity(self):
        point = CredalSet([(1, 0)])
        assert local_upper(point, (0, POS_INF)) == 0
        assert local_lower(point, (0, NEG_INF)) == 0

    def test_infinity_next_to_extreme_rationals(self):
        # Float arithmetic would give tiny * inf = nan and huge + inf = OverflowError.
        tiny = Fraction(1, 10**400)
        assert local_upper(CredalSet([(tiny, 1 - tiny)]), (POS_INF, 0)) == POS_INF
        half = Fraction(1, 2)
        assert local_upper(CredalSet([(half, half)]), (10**400, POS_INF)) == POS_INF

    def test_unbounded_inputs_rejected(self, model_a):
        with pytest.raises(NotBoundedBelow):
            local_upper(model_a, (0, NEG_INF))
        with pytest.raises(NotBoundedAbove):
            local_lower(model_a, (0, POS_INF))

    def test_lower_never_exceeds_upper(self, model_a):
        rng = seeded(9)
        for _ in range(200):
            h = tuple(Fraction(rng.randint(-50, 50), 10) for _ in range(2))
            assert local_lower(model_a, h) <= local_upper(model_a, h)

    def test_vacuous_is_sup(self):
        model = vacuous(3)
        h = (1, -2, 5)
        assert local_upper(model, h) == 5
        assert local_lower(model, h) == -2

    def test_front_ends_take_any_sequence_of_numbers(self, model_a):
        assert local_upper(model_a, [0, 1]) == Fraction(7, 10)
        assert local_upper(model_a, ("0", 1)) == Fraction(7, 10)
        assert local_lower(model_a, iter((0.0, 1.0))) == 0.3
        with pytest.raises(NotBoundedBelow):
            local_upper(model_a, [0, float("-inf")])
        with pytest.raises(ValueError, match="length"):
            local_upper(model_a, [0, 1, 2])


class TestCredalValidation:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            CredalSet([(-0.1, 1.1)])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            CredalSet([(0.5, 0.6)])

    def test_exact_masses_must_sum_to_exactly_one(self):
        with pytest.raises(ValueError):
            CredalSet([(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**13))])
        CredalSet([(Fraction(1, 3), Fraction(2, 3)), (1, 0)])

    def test_float_masses_keep_the_sum_tolerance(self):
        CredalSet([(0.1, 0.2, 0.7)])
        CredalSet([(0.5, 0.5 + 1e-13)])

    def test_rejects_tiny_negative_float_mass(self):
        # Accepted, it would give the upper expectation of (inf, 0) as -inf.
        with pytest.raises(ValueError):
            CredalSet([(-1e-13, 1 + 1e-13)])

    def test_rejects_nan_mass(self):
        with pytest.raises(ValueError):
            CredalSet([(float("nan"), 1.0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CredalSet([])

    def test_state_space_validation(self):
        with pytest.raises(ValueError):
            StateSpace(())
        with pytest.raises(ValueError):
            StateSpace(("a", "a"))
        sp = StateSpace(("a", "b"))
        assert sp.index("b") == 1
        with pytest.raises(ValueError):
            sp.index("c")
