"""The benchmark workloads: a fixed op list per seed, and each op's checker.

An op is one ``gtue`` command line.  Its checker receives the exit code
and stdout and returns a Verdict; it compares the report against the
plain arithmetic in ``reference``, never against gtue itself.

Two defects of the program at the commit that introduced this benchmark
fail ops here.  The checker counts them as failed ops like any other,
and names them so that a new kind of wrong answer stays distinguishable
from them (see KNOWN_DEFECTS).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import fixtures as fx
from reference import (
    INF,
    agrees,
    backward_levels,
    crossing_walk,
    parse_exact,
    parse_float,
    supermartingale_violations,
    upper_value,
)

KNOWN_DEFECTS = {
    "rational-audit-float-tol":
        "rational `check --axioms` fails order-checked axioms on a valid model: "
        "the CLI passes tol as float 0.0, which turns exact comparisons inexact",
    "clamp-plateau":
        "`eval` of a clamp_above sequence reports `converged` at a finite value "
        "when the limit is +inf (the iterates plateau before diverging)",
}


class Verdict(NamedTuple):
    kind: str  # "ok", "known" (a KNOWN_DEFECTS entry) or "fail"
    detail: str = ""


OK = Verdict("ok")


def fail(detail: str) -> Verdict:
    return Verdict("fail", detail)


@dataclass
class Op:
    label: str
    argv: list
    check: Callable[[int, str], Verdict]
    reference: Callable[[], object] | None = None  # the value an `eval` must report

    def verdict(self, code: int, out: str) -> Verdict:
        """The check's verdict; a report it cannot read is a failed op."""
        try:
            return self.check(code, out)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            return fail(f"malformed report: {exc!r}")


@dataclass(frozen=True)
class Scale:
    """Instance sizes: FULL for measurement, TINY for the self-test."""

    binary_depth: int
    ternary_depth: int
    certify_depth: int
    eval_instances: int
    certify_instances: int
    mixed_instances: int


FULL = Scale(binary_depth=12, ternary_depth=8, certify_depth=10,
             eval_instances=16, certify_instances=4, mixed_instances=24)
TINY = Scale(binary_depth=4, ternary_depth=3, certify_depth=4,
             eval_instances=4, certify_instances=1, mixed_instances=6)


def _report(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _number(raw, rational: bool):
    return parse_exact(raw) if rational else parse_float(raw)


def _lazy(compute):
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]
    return get


# -- eval-float ---------------------------------------------------------------

def eval_float(seed: int, workdir: str, scale: Scale) -> list:
    """Float `eval` on stationary and by_depth trees.

    Binary and ternary trees alternate; stationary and by_depth pairs
    alternate.  Each credal set has 1-3 grid PMFs, some with zero masses.
    About 1% of the workload's cells are +inf, all in the ternary
    variables: each +inf sits at a state that every PMF above the leaves
    gives zero mass, so `0 * inf = 0` is exercised and the upper
    expectation stays finite and is checked to 1e-9.  (In a binary tree
    such a state would leave the credal set a single point.)
    """
    rng = random.Random(f"eval-float/{seed}")
    ops = []
    for j in range(scale.eval_instances):
        arity, depth = (2, scale.binary_depth) if j % 2 == 0 else (3, scale.ternary_depth)
        kind = "stationary" if (j // 2) % 2 == 0 else "by_depth"
        if kind == "stationary":
            points = (lambda d, i, j=j: 2 + (j // 4) % 2)
        else:
            points = (lambda d, i, j=j: 1 + (d + j) % 3)
        zero = rng.randrange(arity) if arity == 3 else None
        tree = fx.make_tree(rng, arity, depth, kind, points, rational=False, leaf_zero=zero)
        values = fx.make_values(rng, arity**depth, inf_share=0.05 if arity == 3 else 0,
                                rational=False, inf_at=lambda i, a=arity, z=zero: i % a == z)
        tree_path = fx.write_json(workdir, f"ef{j}-tree.json", tree.doc())
        var_path = fx.write_json(workdir, f"ef{j}-var.json", fx.variable_doc(arity, values))
        want = _lazy(lambda tree=tree, values=values:
                     upper_value(tree.model_at, tree.arity, values))
        ops.append(Op(f"eval#{j}", ["eval", tree_path, var_path],
                      _check_eval(want, rational=False), reference=want))
    return ops


def _check_eval(want, rational: bool, oracle_selections=None):
    def check(code: int, out: str) -> Verdict:
        if code != 0:
            return fail(f"exit code {code}")
        report = _report(out)
        if report is None or report.get("status") != "exact":
            return fail("not an exact-status report")
        got = _number(report["value"], rational)
        if not agrees(got, want(), rational):
            return fail(f"value {report['value']} != reference {want()}")
        if oracle_selections is not None:
            if report.get("selection_count") != oracle_selections:
                return fail(f"selection_count {report.get('selection_count')} "
                            f"!= {oracle_selections}")
            if report.get("oracle_match") is not True or \
                    not agrees(_number(report["oracle_value"], rational), want(), rational):
                return fail(f"oracle value {report.get('oracle_value')} != {want()}")
        return OK
    return check


# -- certify-exact --------------------------------------------------------------

def certify_exact(seed: int, workdir: str, scale: Scale) -> list:
    """Rational `check`, `doob-certificate` and `levy-certificate` in turn.

    One by_depth binary tree per instance, a seeded non-negative
    supermartingale for `check` and `doob-certificate`, and a finitary
    gamble for `levy-certificate`.  Windows come from the instance so
    that at least one upcrossing completes.
    """
    rng = random.Random(f"certify-exact/{seed}")
    ops = []
    depth = scale.certify_depth
    for j in range(scale.certify_instances):
        tree = fx.make_tree(rng, 2, depth, "by_depth",
                            lambda d, i, j=j: 1 + (d + j) % 3, rational=True)
        process = fx.make_supermartingale(rng, tree)
        gamble = fx.make_values(rng, 2**depth, inf_share=0, rational=True)
        delta = Fraction(1)
        low = min(gamble)
        conditional = backward_levels(tree.model_at, 2, [v - low + delta for v in gamble])
        doob_a, doob_b = fx.crossing_window(process, 2, from_root=True)
        levy_a, levy_b = fx.crossing_window(conditional, 2, from_root=False)

        tree_path = fx.write_json(workdir, f"ce{j}-tree.json", tree.doc())
        proc_path = fx.write_json(workdir, f"ce{j}-process.json", fx.process_doc(process, 2))
        gamble_path = fx.write_json(workdir, f"ce{j}-gamble.json",
                                    fx.variable_doc(2, gamble))
        labels = fx.situation_labels(2, depth)
        ops.append(Op(f"check#{j}", ["check", tree_path, proc_path, "--rational"],
                      _check_supermartingale_report(tree, process)))
        ops.append(Op(f"doob#{j}",
                      ["doob-certificate", tree_path, proc_path, "--a", str(doob_a),
                       "--b", str(doob_b), "--rational"],
                      _check_transform(tree, labels, process, doob_a, doob_b, "doob")))
        ops.append(Op(f"levy#{j}",
                      ["levy-certificate", tree_path, gamble_path, "--a", str(levy_a),
                       "--b", str(levy_b), "--delta", str(delta), "--rational"],
                      _check_transform(tree, labels, conditional, levy_a, levy_b, "levy")))
    return ops


def _check_supermartingale_report(tree, levels):
    expected = _lazy(lambda: supermartingale_violations(tree.model_at, tree.arity, levels) == 0)

    def check(code: int, out: str) -> Verdict:
        report = _report(out)
        if report is None or "supermartingale" not in report:
            return fail(f"exit code {code}, no supermartingale report")
        entry = report["supermartingale"]
        if entry.get("is_supermartingale") is not expected():
            return fail(f"is_supermartingale {entry.get('is_supermartingale')} "
                        f"!= reference {expected()}")
        if entry.get("is_bounded_below") is not True:
            return fail("process reported unbounded below")
        if code != (0 if expected() else 2):
            return fail(f"exit code {code}")
        return OK
    return check


def _check_transform(tree, labels, base_levels, a, b, kind: str):
    """Re-check an emitted transform process and its realized bounds.

    ``base_levels`` is the quantity whose crossings drive the transform:
    the base process for Doob, the conditional values of the shifted
    gamble for Levy.
    """
    realized = _lazy(lambda: crossing_walk(base_levels, tree.arity, a, b,
                                           from_root=kind == "doob"))

    def check(code: int, out: str) -> Verdict:
        if code != 0:
            return fail(f"exit code {code}")
        report = _report(out)
        raw = report["process"]["values"]
        levels = [[parse_exact(raw[label]) for label in level] for level in labels]
        summary = report["summary"]
        rows = summary["realized_checks"]
        pairs = report["cuts"]["pairs"]
        root = levels[0][0]
        if kind == "doob":
            if root != base_levels[0][0]:
                return fail(f"transform root {root} != base root {base_levels[0][0]}")
            if min(min(level) for level in levels) < 0:
                return fail("transform process goes negative")
        elif root != 1 or min(min(level) for level in levels) <= 0:
            return fail("multiplicative transform must start at 1 and stay positive")
        bad = supermartingale_violations(tree.model_at, tree.arity, levels)
        if bad:
            return fail(f"emitted transform violates the supermartingale inequality "
                        f"at {bad} situations")
        if summary.get("is_supermartingale") is not True or \
                summary.get("all_checks_passed") is not True:
            return fail("summary reports a failed check")
        if not pairs or len(rows) != realized():
            return fail(f"{len(rows)} realized checks, reference walk gives {realized()}")
        index = {label: (d, i) for d, level in enumerate(labels)
                 for i, label in enumerate(level)}
        for row in rows:
            d, i = index[row["situation"]]
            k = row["upcrossings"]
            if k < 1 or row.get("passed") is not True:
                return fail(f"realized check at {row['situation']!r} not passed")
            if kind == "doob":
                gain = parse_exact(row["gain"])
                if gain != levels[d][i] - root or gain < k * (b - a):
                    return fail(f"gain {gain} at {row['situation']!r} breaks the bound")
            else:
                value, threshold = parse_exact(row["value"]), parse_exact(row["threshold"])
                if value != levels[d][i] or threshold != (b / a) ** k or not value > threshold:
                    return fail(f"growth {value} at {row['situation']!r} breaks (b/a)^{k}")
        return OK
    return check


# -- small-mixed ----------------------------------------------------------------

def small_mixed(seed: int, workdir: str, scale: Scale) -> list:
    """Many ternary depth-3 trees: all model kinds, both modes.

    Each instance runs `eval --oracle`, `eval` of a clamp_above sequence
    and, on stationary and by_depth trees, `check --axioms --trials 20`:
    six fast ops to two audits per three instances.  One instance in four
    is rational.  Rational fast ops cost several times the float ones, so
    with half of them rational the median op would sit on the edge
    between the two groups and jump between them from seed to seed.
    """
    rng = random.Random(f"small-mixed/{seed}")
    ops = []
    arity, depth = 3, 3
    # Extreme-point counts keep the oracle's selection count near 10^3-10^4.
    points = {"stationary": lambda d, i: 2,
              "by_depth": lambda d, i: (3, 2, 2)[d],
              "table": lambda d, i: 3 if d == 0 else 2 if d == 1 else 1 + i % 2}
    for j in range(scale.mixed_instances):
        kind = ("stationary", "by_depth", "table")[j % 3]
        rational = (j // 3) % 4 == 1
        tree = fx.make_tree(rng, arity, depth, kind, points[kind], rational)
        var = fx.make_values(rng, arity**depth, inf_share=0.1, rational=rational)
        base = fx.make_values(rng, arity**depth, inf_share=0.1, rational=rational)
        mode = "rat" if rational else "flt"
        tree_path = fx.write_json(workdir, f"sm{j}-tree.json", tree.doc())
        var_path = fx.write_json(workdir, f"sm{j}-var.json", fx.variable_doc(arity, var))
        seq_path = fx.write_json(workdir, f"sm{j}-seq.json",
                                 {"kind": "clamp_above", "base": fx.variable_doc(arity, base)})
        selections = 1
        for level in tree.models:
            for model in level:
                selections *= len(model)
        flag = ["--rational"] if rational else []
        ops.append(Op(f"oracle-{kind}-{mode}#{j}",
                      ["eval", tree_path, var_path, "--oracle"] + flag,
                      _check_eval(_lazy(lambda t=tree, v=var: upper_value(t.model_at, arity, v)),
                                  rational, oracle_selections=selections)))
        ops.append(Op(f"clamp-{kind}-{mode}#{j}", ["eval", tree_path, seq_path] + flag,
                      _check_clamp(tree, base, rational)))
        if kind != "table":
            ops.append(Op(f"axioms-{kind}-{mode}#{j}",
                          ["check", tree_path, "--axioms", "--trials", "20"] + flag,
                          _check_axioms(tree.distinct_models(), rational)))
    return ops


def _check_clamp(tree, base: list, rational: bool):
    """By upward continuity the clamp_above limit is the base's upper expectation."""
    want = _lazy(lambda: upper_value(tree.model_at, tree.arity, base))

    def rung(n: int):
        level = 2**n
        return upper_value(tree.model_at, tree.arity, [min(v, level) for v in base])

    def check(code: int, out: str) -> Verdict:
        if code != 0:
            return fail(f"exit code {code}")
        report = _report(out)
        if report is None or report.get("status") != "converged":
            return fail("limit not reported as converged")
        got = _number(report["value"], rational)
        if agrees(got, want(), rational):
            return OK
        # The known plateau: the last two rungs of the ladder min(base, 2^n)
        # agree, so the engine stops at that rung although the limit is +inf.
        n = report.get("iterations", 0) - 1
        if want() == INF and n >= 1 and agrees(got, rung(n), rational) \
                and agrees(rung(n - 1), rung(n), rational):
            return Verdict("known", "clamp-plateau")
        return fail(f"limit {report['value']} != reference {want()}")
    return check


# The axioms seen failing on valid models in rational audits at the commit
# that introduced this benchmark.  All are checked through le_within(a, b,
# tol), where a float tol rounds the exact right-hand side.  A failure of
# any other axiom is not the known defect.
KNOWN_RATIONAL_AUDIT_FAILURES = {"E2", "E5", "E8", "E10", "C1", "C2",
                                 "countable_subadditivity"}


def _check_axioms(models: int, rational: bool):
    def check(code: int, out: str) -> Verdict:
        report = _report(out)
        if report is None or not isinstance(report.get("axioms"), list):
            return fail(f"exit code {code}, no axiom report")
        audits = report["axioms"]
        if len(audits) != models:
            return fail(f"{len(audits)} audits for {models} distinct local models")
        failed = {f["axiom"] for audit in audits for f in audit["failures"]}
        if not failed and code == 0 and all(audit["all_passed"] and
                                            audit["alternative_characterisation_consistent"]
                                            for audit in audits):
            return OK
        if rational and code == 2 and failed and \
                failed <= KNOWN_RATIONAL_AUDIT_FAILURES:
            return Verdict("known", "rational-audit-float-tol")
        return fail(f"exit code {code}, axioms failed on a valid model: {sorted(failed)}")
    return check


WORKLOADS = {
    "eval-float": eval_float,
    "certify-exact": certify_exact,
    "small-mixed": small_mixed,
}
