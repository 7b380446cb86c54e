"""Command-line front end.

Subcommands:

* ``eval``              conditional upper (or lower) expectation of a
                        finitary variable, with an optional brute-force
                        cross-check, or the limit along a monotone
                        sequence template, answered exactly from the
                        limit the template carries (an explicit list's
                        last item);
* ``check``             supermartingale verification of a process file,
                        and/or an axiom audit of the tree's local models;
* ``doob-certificate``  the additive upcrossing transform plus its cuts
                        and verification summary;
* ``levy-certificate``  the multiplicative transform likewise.

``main`` resolves each run once: the settings, then the tree, then the
subcommand, which returns its report and whether its checks passed.
Exit codes: 0 success, 1 input or usage error, 2 a verification check
failed.  Reports go to stdout as a single JSON document; parse failures
print only to stderr.

Setting GTUE_RATIONAL=1 switches to exact rational arithmetic: numeric
literals in input files are taken exactly and outputs are emitted as
exact decimal (or p/q) strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import jsonio
from .audit import audit_axioms, upper_envelope
from .constructions import (
    doob_gain_checks,
    doob_transform,
    levy_bound_checks,
    levy_transform,
)
from .errors import GTUEError, SchemaError
from .evaluate import STATUS_EXACT, eval_finitary, eval_limit, eval_lower_finitary
from .oracle import DEFAULT_CAP, brute_force_upper, selection_count
from .process import check_supermartingale
from .tree import FinitarySequence, FinitaryVariable
from .xreal import check_tol, close_within, payload

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILED_CHECK = 2


def _settings(args) -> tuple:
    """The run's ``(rational, tol)``, from GTUE_RATIONAL, ``--rational`` and ``--tol``."""
    rational = os.environ.get("GTUE_RATIONAL", "") == "1" or args.rational
    if args.tol is None:
        return rational, 0 if rational else 1e-9
    if not rational:
        return rational, check_tol(float(args.tol))
    # Exact inputs get an exact tolerance, read by the one number grammar;
    # a float would make every comparison against it inexact.
    return rational, check_tol(_number_option("--tol", args.tol))


def _number_option(option: str, text: str):
    """The payload of an option's number text, by the one number grammar; text outside
    it is an input error that names the option."""
    try:
        return payload(text)
    except ValueError as exc:
        raise SchemaError(f"{option}: {exc}") from None


def _emit(document):
    print(json.dumps(document, indent=2))


def _add_worst_violation(entry, verdict, space, rational):
    """Report a failed supermartingale check's worst node and gap, if any."""
    if verdict.worst_violation is not None:
        situation, gap = verdict.worst_violation
        entry["worst_violation"] = {"situation": jsonio.situation_to_text(space, situation),
                                    "gap": jsonio.encode_number(gap, rational)}


def cmd_eval(args, tree, rational, tol) -> tuple:
    subject = jsonio.load_variable_or_sequence(args.variable, tree.space, rational)
    situation = jsonio.situation_from_text(tree.space, args.situation)

    if isinstance(subject, FinitarySequence):
        if args.lower or args.oracle:
            raise SchemaError("--lower and --oracle apply to finitary variables, not sequences")
        result = eval_limit(tree, subject, situation)
        return {"value": jsonio.encode_number(result.value, rational),
                "status": result.status, "iterations": result.iterations,
                "method": result.method}, True

    assert isinstance(subject, FinitaryVariable)
    if args.lower:
        value = eval_lower_finitary(tree, subject, situation)
    else:
        value = eval_finitary(tree, subject, situation)
    report = {"value": jsonio.encode_number(value, rational), "status": STATUS_EXACT,
              "iterations": 0}
    if not args.oracle:
        return report, True
    if args.lower:
        raise SchemaError("--oracle cross-checks the upper expectation only")
    oracle_value = brute_force_upper(tree, subject, situation, cap=args.oracle_cap)
    report["selection_count"] = selection_count(tree, subject.depth, situation)
    report["oracle_value"] = jsonio.encode_number(oracle_value, rational)
    report["oracle_match"] = close_within(oracle_value, value, tol)
    return report, report["oracle_match"]


def cmd_check(args, tree, rational, tol) -> tuple:
    report = {}
    ok = True

    if args.process is not None:
        process = jsonio.load_process(args.process, tree.space, rational)
        verdict = check_supermartingale(tree, process, tol=tol)
        # Process refuses -inf, so the key is always true; the report format keeps it.
        entry = {"is_supermartingale": verdict.is_supermartingale, "is_bounded_below": True}
        _add_worst_violation(entry, verdict, tree.space, rational)
        report["supermartingale"] = entry
        ok = ok and verdict.is_supermartingale
    elif not args.axioms:
        raise SchemaError("check needs a process file, --axioms, or both")

    if args.axioms:
        audits = audit_axioms([upper_envelope(model) for model in tree.distinct_models()],
                              tree.space, trials=args.trials, seed=args.seed, tol=tol)
        report["axioms"] = [{
            "all_passed": audit.all_passed,
            "alternative_characterisation_consistent": audit.alt_characterisation_consistent,
            "failures": [{"axiom": r.name, "counterexample": r.counterexample}
                         for r in audit.failures()]} for audit in audits]
        ok = ok and all(audit.all_passed for audit in audits)

    return report, ok


def cmd_certify(args, tree, rational, tol) -> tuple:
    space = tree.space
    root = jsonio.situation_from_text(space, args.situation)

    if args.kind == "doob":
        process = jsonio.load_process(args.subject, space, rational)
        transform = doob_transform(tree, process, root, _number_option("--a", args.a),
                                   _number_option("--b", args.b))
        checks = doob_gain_checks(process, transform)
        check_rows = [{"situation": jsonio.situation_to_text(space, c.situation),
                       "upcrossings": c.upcrossings,
                       "gain": jsonio.encode_number(c.gain, rational),
                       "passed": c.passed} for c in checks]
    else:
        variable = jsonio.load_variable_or_sequence(args.subject, space, rational)
        if not isinstance(variable, FinitaryVariable):
            raise SchemaError("levy-certificate expects a finitary variable file")
        transform = levy_transform(tree, variable, root, _number_option("--a", args.a),
                                   _number_option("--b", args.b),
                                   _number_option("--delta", args.delta))
        checks = levy_bound_checks(transform)
        check_rows = [{"situation": jsonio.situation_to_text(space, c.situation),
                       "upcrossings": c.upcrossings,
                       "value": jsonio.encode_number(c.value, rational),
                       "threshold": jsonio.encode_number(c.threshold, rational),
                       "passed": c.passed} for c in checks]

    verdict = check_supermartingale(tree, transform.process, tol=tol)
    all_ok = verdict.is_supermartingale and all(c.passed for c in checks)
    summary = {"is_supermartingale": verdict.is_supermartingale,
               "realized_checks": check_rows,
               "all_checks_passed": all_ok}
    _add_worst_violation(summary, verdict, space, rational)

    process_doc = jsonio.dump_process(transform.process, space, rational)
    cuts_doc = jsonio.dump_cuts(transform.cuts, space)
    if args.out_process:
        with open(args.out_process, "w", encoding="utf-8") as handle:
            json.dump(process_doc, handle, indent=2)
    if args.out_cuts:
        with open(args.out_cuts, "w", encoding="utf-8") as handle:
            json.dump(cuts_doc, handle, indent=2)
    return {"process": process_doc, "cuts": cuts_doc, "summary": summary}, all_ok


def _add_common(parser):
    parser.add_argument("--tol", default=None,
                        help="comparison tolerance (default 1e-9, or 0 in rational mode, "
                             "where it is parsed exactly)")
    parser.add_argument("--rational", action="store_true",
                        help="exact rational arithmetic (same as GTUE_RATIONAL=1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtue",
        description="Game-theoretic upper expectations on imprecise probability trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a variable or sequence")
    p_eval.add_argument("tree")
    p_eval.add_argument("variable")
    p_eval.add_argument("--situation", default="",
                        help="dot-separated state labels; empty for the initial situation")
    p_eval.add_argument("--lower", action="store_true", help="conjugate lower expectation")
    p_eval.add_argument("--oracle", action="store_true",
                        help="cross-check against the brute-force oracle")
    p_eval.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP,
                        help="refusal cap on brute-force selections")
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="verify a supermartingale / audit axioms")
    p_check.add_argument("tree")
    p_check.add_argument("process", nargs="?", default=None)
    p_check.add_argument("--axioms", action="store_true",
                         help="audit the tree's local models")
    p_check.add_argument("--trials", type=int, default=200,
                         help="audit trials per local model")
    p_check.add_argument("--seed", type=int, default=0, help="seed for randomized audits")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    for kind, help_text, subject_help in (
            ("doob", "additive upcrossing certificate", "base process file"),
            ("levy", "multiplicative growth certificate", "finitary gamble file")):
        p_cert = sub.add_parser(f"{kind}-certificate", help=help_text)
        p_cert.add_argument("tree")
        p_cert.add_argument("subject", help=subject_help)
        p_cert.add_argument("--situation", default="", help="transform root situation")
        p_cert.add_argument("--a", required=True, help="lower window level (rational)")
        p_cert.add_argument("--b", required=True, help="upper window level (rational)")
        if kind == "levy":
            p_cert.add_argument("--delta", default="1",
                                help="positive shift above the infimum (rational)")
        p_cert.add_argument("--out-process", default=None,
                            help="also write the transform process JSON here")
        p_cert.add_argument("--out-cuts", default=None,
                            help="also write the cuts JSON here")
        _add_common(p_cert)
        p_cert.set_defaults(func=cmd_certify, kind=kind)

    return parser


# Options whose value may start with "-" (-1/2, -inf), which argparse would
# read as another option when it comes as its own token.
_SIGNED_OPTIONS = ("--a", "--b", "--delta", "--tol")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call of main, not at import."""
    return build_parser()


def _join_signed_values(argv: list) -> list:
    """Write ``--a -1/2`` as ``--a=-1/2``, so argparse takes the value as a value."""
    out = []
    for token in argv:
        if out and out[-1] in _SIGNED_OPTIONS and token.startswith("-") \
                and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = _join_signed_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which would
        # read as a failed verification check.
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        rational, tol = _settings(args)
        tree = jsonio.load_tree(args.tree, rational)
        document, ok = args.func(args, tree, rational, tol)
        _emit(document)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GTUEError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        # OverflowError: an exact value too large for the float arithmetic
        # it meets, e.g. a 400-digit integer times a float mass.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK if ok else EXIT_FAILED_CHECK


if __name__ == "__main__":
    sys.exit(main())
