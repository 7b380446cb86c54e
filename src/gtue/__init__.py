"""Game-theoretic upper expectations on imprecise probability trees.

A finite state space, a credal set attached to every situation, and the
global upper expectation computed by exact backward recursion, together
with the supermartingale calculus that certifies it: verification,
truncation, mixtures, the Doob upcrossing transform and the Lévy
multiplicative transform, an axiom audit harness, and a brute-force
enumeration oracle.
"""

from .audit import (
    AuditReport,
    AxiomResult,
    audit_axioms,
    broken_point_spread_bonus,
    broken_sup_plus_one,
    upper_envelope,
    vacuous_functional,
)
from .constructions import (
    CutSystem,
    GainCheck,
    GrowthCheck,
    Transform,
    doob_gain_checks,
    doob_mixture,
    doob_transform,
    levy_bound_checks,
    levy_transform,
)
from .credal import (
    CredalSet,
    StateSpace,
    local_lower,
    local_upper,
    upper_row,
    vacuous,
)
from .evaluate import (
    EvalResult,
    TreeModel,
    certificate_bound,
    eval_finitary,
    eval_limit,
    eval_lower_finitary,
    eval_process,
)
from .oracle import brute_force_upper, selection_count
from .process import (
    Process,
    SupermartingaleVerdict,
    check_supermartingale,
    constant_process,
    from_values,
    min_tail,
    mix,
    path_liminf,
    shift,
    truncate,
)
from .tree import (
    Cut,
    FinitarySequence,
    FinitaryVariable,
    Monotonicity,
    Situation,
    clamp_above_sequence,
    clamp_below_sequence,
    constant,
    explicit_sequence,
    indicator,
    is_complete,
    level_cut,
    lift,
)
from .xreal import NEG_INF, POS_INF, add, neg, payload, scale, to_text

from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
