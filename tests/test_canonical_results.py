"""Every scalar the public API returns is a canonical raw payload.

``payload(v) is v`` holds for an int, a Fraction, a finite float and the
two canonical infinity objects, and for nothing else: not a bool, not a
float infinity that is not ``POS_INF`` / ``NEG_INF``.  On exact inputs
every finite result is an int or a Fraction, never a float, and the
certificate checks are exact on float inputs too.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gtue import (
    POS_INF,
    Process,
    brute_force_upper,
    certificate_bound,
    check_supermartingale,
    clamp_above_sequence,
    doob_gain_checks,
    doob_transform,
    eval_finitary,
    eval_limit,
    eval_lower_finitary,
    eval_process,
    levy_bound_checks,
    levy_transform,
    local_lower,
    local_upper,
    min_tail,
    path_liminf,
    payload,
    selection_count,
)
from gtue.testing import (
    float_variable,
    random_finitary,
    random_gamble,
    random_supermartingale,
    random_tree,
)


def _results(rng, rational: bool) -> list:
    """(label, value) for every scalar-returning entry point on one random instance."""
    arity, depth = rng.choice((2, 3)), rng.randint(1, 3)
    tree = random_tree(rng, arity, depth, rational=rational)
    f = random_finitary(rng, arity, depth, inf_probability=0.2)
    g = random_gamble(rng, arity, depth)
    if not rational:
        tree, f, g = tree.map_masses(float), float_variable(f), float_variable(g)
    s = tuple(rng.randrange(arity) for _ in range(rng.randint(0, depth)))
    leaf = s + tuple(rng.randrange(arity) for _ in range(depth - len(s)))
    out = [
        ("eval_finitary", eval_finitary(tree, f, s)),
        ("eval_lower_finitary", eval_lower_finitary(tree, g, s)),
        ("eval_limit", eval_limit(tree, clamp_above_sequence(f), s).value),
        ("certificate_bound", certificate_bound(tree, eval_process(tree, f), f, s)),
        ("value_at", f.value_at(leaf)),
        ("sup", f.sup()),
        ("inf", f.inf()),
    ]
    if selection_count(tree, depth, s) <= 5000:
        out.append(("brute_force_upper", brute_force_upper(tree, f, s)))
    model = tree.local_model_at(())
    out += [("local_upper", local_upper(model, f.values[:arity])),
            ("local_lower", local_lower(model, g.values[:arity]))]

    M = random_supermartingale(tree, rng, depth, rational=rational)
    out += [("Process.value_at", M.value_at(s)), ("min_value", M.min_value()),
            ("path_liminf", path_liminf(M, leaf)), ("min_tail", min_tail(M, s))]
    # Lowering the root below its local upper expectation plants a violation.
    lowered = Process(arity, depth, ((M.levels[0][0] - 10,),) + M.levels[1:])
    out.append(("worst_violation gap", check_supermartingale(tree, lowered).worst_violation[1]))

    transform = doob_transform(tree, M, (), 1, 2)
    for check in doob_gain_checks(M, transform):
        out += [("GainCheck.gain", check.gain), ("GainCheck.telescoped", check.telescoped)]
    low, high = g.inf(), g.sup()
    if low < high:
        span = Fraction(high - low)
        levy = levy_transform(tree, g, (), 1 + span / 3, 1 + 2 * span / 3, 1)
        for check in levy_bound_checks(levy):
            out += [("GrowthCheck.value", check.value),
                    ("GrowthCheck.threshold", check.threshold)]
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rational=st.booleans())
def test_public_scalars_are_canonical_payloads(seed, rational):
    for label, value in _results(random.Random(seed), rational):
        assert payload(value) is value, (label, value)
        # The certificate checks lift float inputs losslessly, so they are exact in both modes.
        if rational or label.startswith(("GainCheck", "GrowthCheck")):
            assert value is POS_INF or type(value) in (int, Fraction), (label, value)
