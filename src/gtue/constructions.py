"""Upcrossing machinery: the Doob transform and the Lévy multiplicative transform.

Both transforms are one walk, ``_crossing_walk``, over the root's subtree
with a per-path crossing state.  A path is *idle* until its driving
quantity first drops below a (that node joins the current V cut and the
path turns *active*), and active until the quantity first exceeds b (that
node joins the U cut, one upcrossing is complete, and the path turns idle
again).  First-hit semantics make the cuts pairwise incomparable by
construction.  Only the update inside an open window differs: the Doob
transform mirrors the base increments,

    M'(child) = M'(s) + (M(child) - M(s)),

and the Lévy transform multiplies by the certificate ratio E(child)/E(s);
both copy the parent's value while idle.  The active region is taken as
"at or after the V member and not at or after any U member", so paths
that drop below a and never recover to b keep mirroring; the closed
bracket alone would be empty whenever the U cut is, which contradicts
the case analysis the bounds rely on.

The realized-bound checkers never read the walker's state: they replay
the emitted cuts top-down (``CutSystem.realized``, one step per node,
on ranks), so a certificate whose cuts disagree with its process fails.

Window parameters are rationals and all transform arithmetic runs on
exact raw payloads through the ``xreal.raw_*`` forms (finite floats are
lifted losslessly), so the telescoping gain identity, the per-upcrossing
width bound and the (b/a)^k growth bound are machine-checkable with zero
tolerance; the GainCheck and GrowthCheck fields are those payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadWindow,
    HorizonMismatch,
    NonFiniteRoot,
    SpaceMismatch,
    WeightSumMismatch,
    WindowOutsideRange,
)
from .evaluate import TreeModel, backward_levels
from .process import Process, constant_process, mix
from .tree import Cut, FinitaryVariable, Situation, level_cut, rank, subtree_block, unrank
from .xreal import NEG_INF, POS_INF, payload, raw_add, raw_neg, raw_scale



@dataclass(frozen=True)
class CutSystem:
    """Interleaved first-hit cuts (V_k, U_k) for k = 1..K, below a root.

    The crossing state of a situation is (hits, open_v): the completed
    (v_k, u_k) pairs on its chain and the V member of the open window, or
    None when the path is idle.  ``realized`` steps every node on ranks;
    ``chain_state`` and ``hits_along`` replay one chain of situations.
    """

    root: Situation
    pairs: tuple[tuple[Cut, Cut], ...]

    def __post_init__(self):
        object.__setattr__(self, "root", tuple(self.root))
        # V_1, U_1, V_2, ...: every member of each cut follows, strictly, a member
        # of the cut before it.
        chain = [(f"{kind}_{k}", cut) for k, pair in enumerate(self.pairs, start=1)
                 for kind, cut in zip("VU", pair)]
        for (before, earlier), (name, cut) in zip(chain, chain[1:]):
            for m in cut:
                if not m or earlier.member_before(m[:-1]) is None:
                    raise ValueError(f"{name} member {m} follows no {before} member")

    def _replay(self, s: Situation):
        """The crossing state at s, replayed down its chain; None off the subtree."""
        s = tuple(s)
        if s[:len(self.root)] != self.root:
            return None
        hits, open_v = (), None
        for depth in range(len(self.root), len(s) + 1):
            node = s[:depth]
            if len(hits) < len(self.pairs):
                v_cut, u_cut = self.pairs[len(hits)]
                if open_v is None:
                    if node in v_cut.members:
                        open_v = node
                elif node in u_cut.members:
                    hits, open_v = hits + ((open_v, node),), None
        return hits, open_v

    def chain_state(self, s: Situation) -> tuple[int, bool] | None:
        """(completed upcrossings, active?) for a situation below the root."""
        state = self._replay(s)
        return None if state is None else (len(state[0]), state[1] is not None)

    def hits_along(self, s: Situation) -> list[tuple[Situation, Situation]]:
        """Completed (v_k, u_k) pairs on the chain of s, in order."""
        state = self._replay(s)
        return [] if state is None else list(state[0])

    def realized(self, arity: int, horizon: int):
        """Replay every node of the root's subtree, top-down in level order, on ranks.

        Yields (depth, index, hits, active) with index the node's rank and
        hits its completed pairs as ((depth, rank) of v_k, (depth, rank) of
        u_k); one step per node, so a whole pass is O(nodes).
        """
        # ranks[depth][k]: V_{k+1}'s and U_{k+1}'s member ranks there; past the last pair, none.
        ranks = [[(set(), set()) for _ in self.pairs] + [((), ())] for _ in range(horizon + 1)]
        on_tree = frozenset(range(arity))
        for k, pair in enumerate(self.pairs):
            for side, cut in enumerate(pair):
                for m in cut.members:
                    if len(m) <= horizon and on_tree.issuperset(m):
                        ranks[len(m)][k][side].add(rank(m, arity))
        states = [((), None)]  # across the subtree block, in rank order
        for depth in range(len(self.root), horizon + 1):
            here = ranks[depth]
            stepped = []
            for i, state in zip(subtree_block(self.root, depth, arity), states):
                hits, open_v = state
                v_here, u_here = here[len(hits)]
                if open_v is None:
                    if i in v_here:
                        state = hits, (depth, i)
                elif i in u_here:
                    state = hits + ((open_v, (depth, i)),), None
                yield depth, i, state[0], state[1] is not None
                stepped.append(state)
            states = [state for state in stepped for _ in range(arity)]


@dataclass(frozen=True)
class Transform:
    process: Process
    cuts: CutSystem
    window: tuple[Fraction, Fraction]


def _window(a, b) -> tuple[Fraction, Fraction]:
    a, b = _rational(a), _rational(b)
    if not 0 < a < b:
        raise BadWindow(f"need 0 < a < b, got a={a}, b={b}")
    return a, b


def _rational(x) -> Fraction:
    x = payload(x)
    if x is POS_INF or x is NEG_INF:
        raise BadWindow("window parameters must be finite rationals")
    return Fraction(x)


def _exact(v):
    """Losslessly lift a finite float payload to a Fraction; +inf passes through."""
    if isinstance(v, float) and v is not POS_INF:
        return Fraction(v)
    return v


def _exact_pmf(pmf) -> tuple:
    """The PMF in Fractions, renormalised to sum to exactly one.

    Float masses lift losslessly, but their binary values need not sum
    to exactly one (0.7 + 0.3 does not); exact masses are unchanged.
    """
    exact = [Fraction(mass) for mass in pmf]
    total = sum(exact)
    return tuple(mass / total for mass in exact)


def _crossing_walk(driver, arity: int, root: Situation, root_value, a, b,
                   terminal_cut: Cut | None, open_at_root: bool, step) -> Transform:
    """The first-hit walk shared by both transforms.

    ``driver`` holds the level tables of the watched quantity.  Only the
    root's subtree is walked, one ``subtree_block`` per depth, and every
    other node stays pinned at ``root_value``.  Below the root a node
    copies its parent's output while idle and takes step(parent_out,
    driver_here, driver_parent) while active.  With ``open_at_root``
    false the root opens no window even when its driver is below a.
    """
    horizon = len(driver) - 1
    out = [[root_value] * arity**d for d in range(horizon + 1)]
    top = len(root)
    opens = open_at_root and driver[top][rank(root, arity)] < a
    # k -> (depth, rank) of the members of V_k and of U_k, unranked once at the end.
    hits: dict[int, tuple[list, list]] = {1: ([(top, rank(root, arity))], [])} if opens else {}
    states = [(0, opens)]  # (completed, active) across the subtree block one level up
    for depth in range(top + 1, horizon + 1):
        here, out_here = driver[depth], out[depth]
        above, out_above = driver[depth - 1], out[depth - 1]
        block = []
        for j, i in enumerate(subtree_block(root, depth, arity)):
            parent = i // arity
            completed, active = states[j // arity]
            if active:
                out_here[i] = step(out_above[parent], here[i], above[parent])
                if here[i] > b:
                    hits[completed + 1][1].append((depth, i))
                    completed, active = completed + 1, False
            else:
                out_here[i] = out_above[parent]
                if here[i] < a:
                    hits.setdefault(completed + 1, ([], []))[0].append((depth, i))
                    active = True
            block.append((completed, active))
        states = block

    pairs = tuple(tuple(Cut(frozenset(unrank(i, d, arity) for d, i in side)) for side in sides)
                  for sides in hits.values())
    return Transform(Process(arity, horizon, out, terminal_cut), CutSystem(root, pairs), (a, b))


def doob_transform(tree: TreeModel, M: Process, t: Situation, a, b) -> Transform:
    """The additive upcrossing transform of a non-negative supermartingale.

    Off the subtree of t the output is pinned at M(t); below t it mirrors
    the base increments exactly while the path is inside an upcrossing
    window and freezes otherwise.  After k completed upcrossings the
    accumulated gain is the telescoping sum of the k window passages,
    each strictly wider than b - a.
    """
    a, b = _window(a, b)
    t = tuple(t)
    if tree.space.size != M.arity:
        raise SpaceMismatch("process and tree disagree on the state space")
    if M.horizon > tree.max_depth:
        raise HorizonMismatch("process extends beyond the tree's depth bound")
    subtree_block(t, M.horizon, M.arity)  # refuses a root beyond the horizon or off the tree
    base = [[_exact(v) for v in level] for level in M.levels]
    root_value = base[len(t)][rank(t, M.arity)]
    if root_value is POS_INF:
        raise NonFiniteRoot("the base process must be finite at the transform root")
    if M.min_value() < 0:
        raise ValueError("the base process must be non-negative")

    return _crossing_walk(
        base, M.arity, t, root_value, a, b, M.terminal_cut, open_at_root=True,
        step=lambda out, child, parent: raw_add(out, raw_add(child, raw_neg(parent))))


@dataclass(frozen=True)
class GainCheck:
    """One realized post-upcrossing situation of a Doob transform."""

    situation: Situation
    upcrossings: int
    gain: object  # raw payloads
    telescoped: object
    identity_ok: bool
    terms_exceed_width: bool
    bound_ok: bool

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.terms_exceed_width and self.bound_ok


def doob_gain_checks(M: Process, transform: Transform) -> list[GainCheck]:
    """Exact telescoping-identity and gain checks at every realized post-U node."""
    a, b = transform.window
    cuts = transform.cuts
    width = b - a

    root_value = _exact(M.levels[len(cuts.root)][rank(cuts.root, M.arity)])
    checks = []
    for depth, i, hits, active in cuts.realized(M.arity, M.horizon):
        if active or not hits:
            continue
        telescoped = 0
        terms_ok = True
        for (v_depth, v), (u_depth, u) in hits:
            term = raw_add(_exact(M.levels[u_depth][u]), raw_neg(_exact(M.levels[v_depth][v])))
            if not term > width:
                terms_ok = False
            telescoped = raw_add(telescoped, term)
        gain = raw_add(transform.process.levels[depth][i], raw_neg(root_value))
        target = raw_scale(len(hits), width)
        checks.append(GainCheck(
            unrank(i, depth, M.arity), len(hits), gain, telescoped,
            identity_ok=(gain == telescoped),
            terms_exceed_width=terms_ok,
            bound_ok=not (gain < target)))
    return checks


def doob_mixture(tree: TreeModel, M: Process, t: Situation, windows, weights) -> Process:
    """Convex mixture of per-window Doob transforms, normalized to 1 at t.

    The finite stand-in for the countable mixture over all rational
    windows: the result is a non-negative supermartingale with value one
    at t, a t-test certificate whose growth witnesses oscillation across
    any of the chosen windows.
    """
    windows = list(windows)
    weights = [_rational(w) for w in weights]
    if len(windows) != len(weights):
        raise ValueError("one weight per window required")
    if any(w <= 0 for w in weights):
        raise WeightSumMismatch("mixture weights must be positive")
    if sum(weights) != 1:
        raise WeightSumMismatch(f"weights sum to {sum(weights)}, not 1")
    transforms = [doob_transform(tree, M, t, a, b) for a, b in windows]
    combined = mix([tr.process for tr in transforms], weights)
    t = tuple(t)
    root_value = combined.value_at(t)
    if root_value is POS_INF or root_value == 0:
        raise ValueError("normalization needs a finite positive value at the root")
    factor = Fraction(1) / root_value  # exact: each transform is, and so are the weights
    return combined.map(lambda v: raw_scale(factor, v))


def levy_transform(tree: TreeModel, f: FinitaryVariable, s_prime: Situation,
                   a, b, delta) -> Transform:
    """The multiplicative test supermartingale tracking a finitary gamble.

    The gamble is shifted by delta above its infimum so it is strictly
    positive; the canonical certificate below each V member is the
    conditional-value process of the shifted gamble, whose value at the
    member is below a and whose terminal values equal the gamble, so no
    near-optimal bookkeeping is needed.  The output starts at one, stays
    positive, multiplies by the certificate ratio inside each window
    passage, and after k completed upcrossings exceeds (b/a)^k.
    """
    a, b = _window(a, b)
    delta = _rational(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not (f.bounded_below and f.bounded_above):
        raise ValueError("the tracked variable must be a finitary gamble")
    s_prime = tuple(s_prime)

    exact = [Fraction(v) for v in f.values]
    low = min(exact)
    arity, horizon = f.arity, f.depth
    shifted = FinitaryVariable(arity, horizon, tuple(v - low + delta for v in exact))

    block = subtree_block(s_prime, horizon, arity)
    reachable = shifted.values[block.start:block.stop]
    lo = min(reachable)
    hi = max(reachable)
    if lo == hi:
        # Constant target: the conditional values never move, no window
        # can open, and the transform is identically one.
        trivial = constant_process(arity, horizon, 1, level_cut(arity, horizon))
        return Transform(trivial, CutSystem(s_prime, ()), (a, b))
    if a <= lo:
        raise WindowOutsideRange(
            f"no situation can have a conditional value below a={a}: "
            f"the shifted gamble never drops under {lo}")
    if b >= hi:
        raise WindowOutsideRange(
            f"the certificate can never exceed b={b}: the shifted gamble "
            f"tops out at {hi}")

    driver = backward_levels(tree.map_points(_exact_pmf), shifted)
    return _crossing_walk(
        driver, arity, s_prime, 1, a, b, level_cut(arity, horizon), open_at_root=False,
        step=lambda out, child, parent: out * (child / parent))


@dataclass(frozen=True)
class GrowthCheck:
    """One realized post-upcrossing situation of a Levy transform."""

    situation: Situation
    upcrossings: int
    value: object  # raw payloads
    threshold: object
    bound_ok: bool

    @property
    def passed(self) -> bool:
        return self.bound_ok


def levy_bound_checks(transform: Transform) -> list[GrowthCheck]:
    """Check T > (b/a)^k at every realized post-U situation."""
    a, b = transform.window
    process = transform.process
    checks = []
    for depth, i, hits, active in transform.cuts.realized(process.arity, process.horizon):
        if active or not hits:
            continue
        threshold = (b / a) ** len(hits)
        value = process.levels[depth][i]
        checks.append(GrowthCheck(unrank(i, depth, process.arity), len(hits), value, threshold,
                                  bound_ok=value > threshold))
    return checks
