import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

import gtue.xreal
from gtue import (
    CredalSet,
    FinitaryVariable,
    Monotonicity,
    Process,
    StateSpace,
    add,
    audit,
    check_supermartingale,
    clamp_above_sequence,
    clamp_below_sequence,
    cli,
    doob_gain_checks,
    doob_transform,
    eval_finitary,
    eval_limit,
    eval_process,
    explicit_sequence,
    jsonio,
    level_cut,
    levy_bound_checks,
    levy_transform,
    neg,
)
from gtue.errors import GTUEError, SchemaError
from gtue.evaluate import TreeModel
from gtue.tree import situations_at, subtree_block
from gtue.xreal import POS_INF, payload

F = Fraction

TREE_A = {"states": ["0", "1"],
          "model": {"type": "stationary", "extreme_points": [[0.7, 0.3], [0.3, 0.7]]},
          "max_depth": 4}
TREE_HALVES = {"states": ["0", "1"],
               "model": {"type": "stationary", "extreme_points": [[0.5, 0.5]]},
               "max_depth": 2}
TREE_RIGHT = {"states": ["0", "1"],
              "model": {"type": "stationary", "extreme_points": [[0, 1]]},
              "max_depth": 2}
INDICATOR_11 = {"depth": 2, "values": [0, 0, 0, 1]}
DOOB_PROCESS = {"horizon": 2,
                "values": {"": 1.5, "0": 0.5, "1": 1.5, "0.0": 2.5, "0.1": 0.5,
                           "1.0": 0, "1.1": 1.5},
                "terminal_cut": ["0.0", "0.1", "1.0", "1.1"]}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def run_cli(argv, capsys, env=None):
    old = dict(os.environ)
    os.environ.update(env or {})
    try:
        code = cli.main(argv)
    finally:
        os.environ.clear()
        os.environ.update(old)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestEvalCommand:
    def test_float_mode_value(self, files, capsys):
        code, report, _ = run_cli(
            ["eval", files("t.json", TREE_A), files("f.json", INDICATOR_11),
             "--situation", ""], capsys)
        assert code == 0
        assert report["status"] == "exact"
        assert abs(report["value"] - 0.49) < 1e-9

    def test_rational_mode_exact_string(self, files, capsys):
        code, report, _ = run_cli(
            ["eval", files("t.json", TREE_A), files("f.json", INDICATOR_11)],
            capsys, env={"GTUE_RATIONAL": "1"})
        assert code == 0
        assert report["value"] == "0.49"

    def test_conditioning_and_lower(self, files, capsys):
        code, report, _ = run_cli(
            ["eval", files("t.json", TREE_A), files("f.json", INDICATOR_11),
             "--situation", "1", "--lower", "--rational"], capsys)
        assert code == 0
        assert report["value"] == "0.3"

    def test_oracle_cross_check(self, files, capsys):
        code, report, _ = run_cli(
            ["eval", files("t.json", TREE_A), files("f.json", INDICATOR_11),
             "--oracle", "--rational"], capsys)
        assert code == 0
        assert report["oracle_match"] is True
        assert report["selection_count"] == 8

    def test_oracle_cap_refusal(self, files, capsys):
        code, report, err = run_cli(
            ["eval", files("t.json", TREE_A), files("f.json", INDICATOR_11),
             "--oracle", "--oracle-cap", "7"], capsys)
        assert code == 1
        assert report is None
        assert "CapExceeded" in err

    def test_oracle_cap_refusal_names_the_cap_on_a_deep_tree(self, files, capsys):
        """The exact count 3**(2**14 - 1) has 7,817 digits, past str()'s default limit."""
        tree = {"states": ["0", "1"],
                "model": {"type": "stationary",
                          "extreme_points": [["1/2", "1/2"], ["1/3", "2/3"], ["1/4", "3/4"]]},
                "max_depth": 14}
        f = {"depth": 14, "values": [0] * 2**14}
        code, report, err = run_cli(
            ["eval", files("t.json", tree), files("f.json", f), "--oracle", "--rational"], capsys)
        assert (code, report) == (1, None)
        assert err.strip() == "CapExceeded: at least 14348907 selections exceed the cap 10000000"

    def test_oracle_cap_counts_the_queried_subtree(self, files, capsys):
        tree = {"states": ["0", "1"],
                "model": {"type": "stationary",
                          "extreme_points": [[0.5, 0.5], [0.25, 0.75], [0.125, 0.875]]},
                "max_depth": 4}
        f = {"depth": 4, "values": list(range(16))}
        code, report, _ = run_cli(
            ["eval", files("t.json", tree), files("f.json", f), "--oracle",
             "--situation", "0.1.1"], capsys)
        assert code == 0
        assert report["value"] == report["oracle_value"] == 6.875
        assert report["selection_count"] == 3

    @pytest.mark.parametrize("flags", [[], ["--oracle"], ["--rational"],
                                       ["--oracle", "--rational"]])
    def test_neg_inf_outside_the_queried_subtree(self, files, capsys, flags):
        f = files("f.json", {"depth": 2, "values": [1, 2, "-inf", 4]})
        code, report, _ = run_cli(
            ["eval", files("t.json", TREE_A), f, "--situation", "0"] + flags, capsys)
        assert code == 0
        assert report["value"] in ("1.7", 1.7)
        if "--oracle" in flags:
            assert report["oracle_match"] is True
        code, report, err = run_cli(
            ["eval", files("t.json", TREE_A), f, "--situation", "1"] + flags, capsys)
        assert (code, report) == (1, None)
        assert "NotBoundedBelow" in err

    @pytest.mark.parametrize("flags", [[], ["--rational"]])
    @pytest.mark.parametrize("kind", ["clamp_above", "clamp_below"])
    def test_clamp_template_with_neg_inf_outside_the_queried_subtree(self, files, capsys, kind,
                                                                      flags):
        seq = files("s.json", {"kind": kind, "base": {"depth": 2, "values": [1, 2, "-inf", 4]}})
        code, report, _ = run_cli(
            ["eval", files("t.json", TREE_A), seq, "--situation", "0"] + flags, capsys)
        assert code == 0
        assert report["value"] in ("1.7", 1.7)
        assert report["method"] == "continuity"
        code, report, err = run_cli(
            ["eval", files("t.json", TREE_A), seq, "--situation", ""] + flags, capsys)
        assert (code, report) == (1, None)
        assert "NotBoundedBelow" in err

    def test_lower_with_pos_inf_outside_the_queried_subtree(self, files, capsys):
        f = files("f.json", {"depth": 2, "values": [1, 2, "inf", 4]})
        code, report, _ = run_cli(
            ["eval", files("t.json", TREE_A), f, "--situation", "0", "--lower", "--rational"],
            capsys)
        assert (code, report["value"]) == (0, "1.3")
        code, report, err = run_cli(
            ["eval", files("t.json", TREE_A), f, "--situation", "", "--lower"], capsys)
        assert (code, report) == (1, None)
        assert "NotBoundedAbove" in err

    def test_oracle_on_a_sequence_is_input_error(self, files, capsys):
        seq = {"kind": "clamp_above", "base": {"depth": 1, "values": [0, 1]}}
        code, report, err = run_cli(
            ["eval", files("t.json", TREE_A), files("s.json", seq), "--oracle"], capsys)
        assert (code, report) == (1, None)
        assert "--oracle" in err

    def test_oracle_comparison_honours_tol(self, files, capsys, monkeypatch):
        exact = cli.brute_force_upper
        monkeypatch.setattr(cli, "brute_force_upper",
                            lambda *args, **kwargs: add(exact(*args, **kwargs), 1e-6))
        argv = ["eval", files("t.json", TREE_A), files("f.json", INDICATOR_11), "--oracle"]
        code, report, _ = run_cli(argv + ["--tol", "1e-5"], capsys)
        assert (code, report["oracle_match"]) == (0, True)
        code, report, _ = run_cli(argv, capsys)
        assert (code, report["oracle_match"]) == (2, False)

    def test_sequence_convergence(self, files, capsys):
        seq = {"kind": "clamp_above", "base": {"depth": 1, "values": [0, "inf"]}}
        tree_b = {"states": ["0", "1"],
                  "model": {"type": "stationary", "extreme_points": [[1, 0]]},
                  "max_depth": 4}
        code, report, _ = run_cli(
            ["eval", files("t.json", tree_b), files("s.json", seq)], capsys)
        assert code == 0
        assert report == {"value": 0.0, "status": "converged", "iterations": 1,
                          "method": "continuity"}

    def test_divergent_sequence(self, files, capsys):
        seq = {"kind": "clamp_above", "base": {"depth": 1, "values": [0, "inf"]}}
        code, report, _ = run_cli(
            ["eval", files("t.json", TREE_A), files("s.json", seq)], capsys)
        assert code == 0
        assert report["value"] == "inf"
        assert report["status"] == "converged"

    def test_order_broken_past_the_budget_exits_one(self, files, capsys):
        items = [{"depth": 0, "values": [n]} for n in range(20)] + [{"depth": 0, "values": [0]}]
        seq = {"kind": "explicit", "items": items, "monotonicity": "non_decreasing"}
        code, report, err = run_cli(
            ["eval", files("t.json", TREE_A), files("s.json", seq)], capsys)
        assert code == 1
        assert report is None
        assert "MonotonicityViolated" in err

    @pytest.mark.parametrize("flags, text", [([], float), (["--rational"], str)])
    @pytest.mark.parametrize("items, want", [
        ([{"depth": 1, "values": [0, 0]}] * 2 + [{"depth": 1, "values": [5, 5]}], 5),
        ([{"depth": 0, "values": [v]} for v in (0, 1e-10, 7)], 7)])
    def test_explicit_list_reports_its_last_item(self, files, capsys, items, want, flags, text):
        seq = {"kind": "explicit", "items": items, "monotonicity": "non_decreasing"}
        # --tol plays no part in a limit: the last item's value is reported.
        code, report, _ = run_cli(
            ["eval", files("t.json", TREE_HALVES), files("s.json", seq), "--tol", "1e-9"]
            + flags, capsys)
        assert code == 0
        assert report == {"value": text(want), "status": "converged", "iterations": 1,
                          "method": "continuity"}

    @pytest.mark.parametrize("flags, want", [([], 3.0), (["--rational"], "3")])
    def test_only_the_last_item_must_be_bounded_below(self, files, capsys, flags, want):
        items = [{"depth": 1, "values": ["-inf", 0]}, {"depth": 1, "values": [0, 0]},
                 {"depth": 0, "values": [3]}]
        seq = {"kind": "explicit", "items": items, "monotonicity": "non_decreasing"}
        code, report, _ = run_cli(
            ["eval", files("t.json", TREE_A), files("s.json", seq)] + flags, capsys)
        assert code == 0
        assert report["value"] == want

    def test_plateau_before_divergence_reports_inf(self, files, capsys):
        tree = {"states": ["0", "1"],
                "model": {"type": "stationary", "extreme_points": [[1 - 1e-12, 1e-12]]},
                "max_depth": 2}
        seq = {"kind": "clamp_above", "base": {"depth": 2, "values": [0, 0, 0, "inf"]}}
        code, report, _ = run_cli(
            ["eval", files("t.json", tree), files("s.json", seq)], capsys)
        assert code == 0
        assert report == {"value": "inf", "status": "converged", "iterations": 1,
                          "method": "continuity"}

    def test_parse_error_goes_to_stderr_only(self, files, capsys):
        code, report, err = run_cli(
            ["eval", files("t.json", TREE_A), files("bad.json", {"depth": 2})],
            capsys)
        assert code == 1
        assert report is None
        assert "values" in err

    def test_usage_error_exits_one(self, files, capsys):
        # argparse's own exit code 2 would read as a failed verification check.
        tree, f = files("t.json", TREE_A), files("f.json", INDICATOR_11)
        doob = ["doob-certificate", tree, files("p.json", DOOB_PROCESS), "--a", "1", "--b", "2"]
        # Each option sits only on the subcommand that reads it.
        for argv in (["eval", tree], ["eval", tree, f, "--budget", "8"],
                     ["eval", tree, f, "--seed", "1"],
                     ["check", tree, "--axioms", "--oracle-cap", "7"],
                     doob + ["--seed", "1"], doob + ["--oracle-cap", "7"]):
            code, report, err = run_cli(argv, capsys)
            assert (code, report) == (1, None)
            assert "usage" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "tree", "process", "--tol", "-1"], "tol must be non-negative"),
    (["eval", "tree", "variable", "--oracle", "--lower"],
     "--oracle cross-checks the upper expectation only"),
    (["check", "tree"], "check needs a process file, --axioms, or both"),
    (["levy-certificate", "tree", "sequence", "--a", "1", "--b", "2"],
     "levy-certificate expects a finitary variable file"),
], ids=["negative-tol", "oracle-lower", "check-nothing", "levy-sequence"])
def test_refuses_invalid_input(files, capsys, argv, message):
    paths = {"tree": files("t.json", TREE_A), "variable": files("f.json", INDICATOR_11),
             "process": files("p.json", DOOB_PROCESS),
             "sequence": files("s.json", {"kind": "clamp_above", "base": INDICATOR_11})}
    code, report, err = run_cli([paths.get(arg, arg) for arg in argv], capsys)
    assert (code, report) == (1, None)
    assert message in err


class TestCheckCommand:
    def test_constant_passes(self, files, capsys):
        proc = {"horizon": 1, "values": {"": 2, "0": 2, "1": 2}}
        code, report, _ = run_cli(
            ["check", files("t.json", TREE_A), files("p.json", proc)], capsys)
        assert code == 0
        assert report["supermartingale"]["is_supermartingale"] is True

    def test_gap_fixture_exits_two(self, files, capsys):
        proc = {"horizon": 1, "values": {"": 1, "0": 2, "1": 2}}
        code, report, _ = run_cli(
            ["check", files("t.json", TREE_A), files("p.json", proc)], capsys)
        assert code == 2
        violation = report["supermartingale"]["worst_violation"]
        assert violation["situation"] == ""
        assert abs(violation["gap"] - 1.0) < 1e-12

    def test_eval_process_round_trips_to_exit_zero(self, files, capsys, tmp_path):
        from gtue import eval_process, indicator

        tree = jsonio.tree_from_obj(TREE_A)
        process = eval_process(tree, indicator(2, 2, [(1, 1)]))
        doc = jsonio.dump_process(process, tree.space, rational=False)
        code, report, _ = run_cli(
            ["check", files("t.json", TREE_A), files("p.json", doc)], capsys)
        assert code == 0
        assert report["supermartingale"]["is_supermartingale"] is True

    def test_axiom_audit(self, files, capsys):
        code, report, _ = run_cli(
            ["check", files("t.json", TREE_A), "--axioms", "--trials", "40"], capsys)
        assert code == 0
        assert report["axioms"][0]["all_passed"] is True

    @pytest.mark.parametrize("make", [
        audit.upper_envelope,
        # A planted failure per model, so each entry's counterexamples are its own.
        lambda model: audit.broken_point_spread_bonus(
            state=model.extreme_points[0].index(max(model.extreme_points[0])))],
        ids=["envelope", "planted"])
    def test_table_tree_audit_has_one_entry_per_model(self, make, files, capsys, monkeypatch):
        tree = {"states": ["0", "1", "2"], "max_depth": 2,
                "model": {"type": "table", "entries": {
                    "": [[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]], "0": [[0.1, 0.8, 0.1]],
                    "1": [[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]], "2": [[0.7, 0.2, 0.1]]}}}
        monkeypatch.setattr(cli, "upper_envelope", make)
        code, report, _ = run_cli(["check", files("t.json", tree), "--axioms",
                                   "--trials", "30", "--seed", "5"], capsys)
        models = jsonio.tree_from_obj(tree).distinct_models()
        assert len(models) == 3
        alone = [audit.audit_axioms([make(model)], StateSpace(("0", "1", "2")),
                                    trials=30, seed=5)[0] for model in models]
        assert report["axioms"] == [{
            "all_passed": r.all_passed,
            "alternative_characterisation_consistent": r.alt_characterisation_consistent,
            "failures": [{"axiom": f.name, "counterexample": f.counterexample}
                         for f in r.failures()]} for r in alone]
        assert code == (0 if make is audit.upper_envelope else 2)

    def test_rational_axiom_audit_is_exact(self, files, capsys):
        # A float tolerance would turn the exact right-hand sides inexact
        # and fail order-checked axioms on this valid model.
        code, report, _ = run_cli(
            ["check", files("t.json", TREE_A), "--axioms", "--trials", "40", "--rational"],
            capsys)
        assert code == 0
        assert report["axioms"][0]["all_passed"] is True

    def test_rational_audit_of_a_tiny_charge(self, files, capsys):
        # The +inf cell's upper probability 1/10^400 underflows a float to 0.0.
        tree = {"states": ["0", "1"], "max_depth": 1,
                "model": {"type": "stationary",
                          "extreme_points": [[f"1/{10**400}", f"{10**400 - 1}/{10**400}"]]}}
        code, report, err = run_cli(
            ["check", files("t.json", tree), "--axioms", "--trials", "20", "--rational"],
            capsys)
        assert (code, err) == (0, "")
        assert report["axioms"][0]["all_passed"] is True

    def test_rational_tol_is_parsed_exactly(self):
        def tol(*argv):
            return cli._settings(cli.build_parser().parse_args(argv))[1]

        assert tol("check", "t.json", "--rational", "--tol", "1e-9") == F(1, 10**9)
        assert tol("check", "t.json", "--tol", "1e-9") == 1e-9

    def test_horizon_mismatch_is_input_error(self, files, capsys):
        proc = {"horizon": 3,
                "values": {"": 1, "0": 1, "1": 1, "0.0": 1, "0.1": 1, "1.0": 1,
                           "1.1": 1, "0.0.0": 1, "0.0.1": 1, "0.1.0": 1, "0.1.1": 1,
                           "1.0.0": 1, "1.0.1": 1, "1.1.0": 1, "1.1.1": 1}}
        code, report, err = run_cli(
            ["check", files("t.json", TREE_RIGHT), files("p.json", proc)], capsys)
        assert code == 1
        assert report is None
        assert "Horizon" in err or "horizon" in err


class TestCertifyCommands:
    def test_doob_certificate(self, files, capsys, tmp_path):
        out_proc = str(tmp_path / "out_proc.json")
        out_cuts = str(tmp_path / "out_cuts.json")
        code, report, _ = run_cli(
            ["doob-certificate", files("t.json", TREE_RIGHT),
             files("p.json", DOOB_PROCESS), "--a", "1", "--b", "2",
             "--out-process", out_proc, "--out-cuts", out_cuts, "--rational"],
            capsys)
        assert code == 0
        summary = report["summary"]
        assert summary["is_supermartingale"] is True
        assert summary["all_checks_passed"] is True
        gain_rows = {row["situation"]: row for row in summary["realized_checks"]}
        assert gain_rows["0.0"]["gain"] == "2"
        assert report["cuts"]["pairs"][0]["U"] == ["0.0"]
        with open(out_proc) as handle:
            emitted = json.load(handle)
        assert emitted == report["process"]
        with open(out_cuts) as handle:
            assert json.load(handle) == report["cuts"]

    def test_doob_bad_window_exits_one(self, files, capsys):
        code, report, err = run_cli(
            ["doob-certificate", files("t.json", TREE_RIGHT),
             files("p.json", DOOB_PROCESS), "--a", "2", "--b", "1"], capsys)
        assert code == 1
        assert report is None
        assert "BadWindow" in err

    @pytest.mark.parametrize("a, b", [("1", "inf"), ("-inf", "1"), ("1", "Infinity")])
    def test_doob_infinite_window_exits_one(self, files, capsys, a, b):
        code, report, err = run_cli(
            ["doob-certificate", files("t.json", TREE_RIGHT),
             files("p.json", DOOB_PROCESS), f"--a={a}", f"--b={b}"], capsys)
        assert (code, report) == (1, None)
        assert err.startswith("BadWindow: ")

    def test_levy_certificate(self, files, capsys):
        code, report, _ = run_cli(
            ["levy-certificate", files("t.json", TREE_A),
             files("f.json", INDICATOR_11), "--a", "6/5", "--b", "8/5",
             "--delta", "1", "--rational"], capsys)
        assert code == 0
        assert report["summary"]["is_supermartingale"] is True
        assert report["process"]["values"][""] == "1"

    @pytest.mark.parametrize("kind, option, value, other, message", [
        ("doob", "--a", "-1/2", ["--b", "2"], "BadWindow: need 0 < a < b"),
        ("doob", "--b", "-inf", ["--a", "1"], "BadWindow: window parameters must be finite"),
        ("levy", "--delta", "-1/2", ["--a", "6/5", "--b", "8/5"],
         "error: delta must be positive"),
        ("doob", "--tol", "-1/3", ["--a", "1", "--b", "2"],
         "error: could not convert string to float"),
    ])
    def test_negative_value_as_its_own_token(self, files, capsys, kind, option, value, other,
                                             message):
        # argparse would read "-1/2" or "-inf" as another option: the value
        # must reach the command and give the error the "=" form gives.
        subject = files("p.json", DOOB_PROCESS) if kind == "doob" else \
            files("f.json", INDICATOR_11)
        argv = [f"{kind}-certificate", files("t.json", TREE_RIGHT), subject] + other
        results = [run_cli(argv + tail, capsys) for tail in ([option, value],
                                                              [f"{option}={value}"])]
        assert results[0] == results[1]
        code, report, err = results[0]
        assert (code, report) == (1, None)
        assert err.startswith(message), err


class TestRoundTrips:
    def test_process_round_trip_exact_in_rational_mode(self, tmp_path):
        from gtue import eval_process, indicator

        raw = {"states": ["0", "1"],
               "model": {"type": "stationary",
                         "extreme_points": [[F(7, 10), F(3, 10)], [F(3, 10), F(7, 10)]]},
               "max_depth": 4}
        tree = jsonio.tree_from_obj(raw)
        process = eval_process(tree, indicator(2, 2, [(1, 1)]))
        doc = jsonio.dump_process(process, tree.space, rational=True)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        back = jsonio.load_process(str(path), tree.space, rational=True)
        assert back.levels == process.levels
        assert back.terminal_cut == process.terminal_cut

    def test_variable_round_trip(self, tmp_path):
        from gtue import FinitaryVariable

        f = FinitaryVariable(2, 1, (F(1, 3), float("inf")))
        doc = jsonio.dump_variable(f, rational=True)
        path = tmp_path / "v.json"
        path.write_text(json.dumps(doc))
        space = jsonio.tree_from_obj(TREE_A).space
        back = jsonio.load_variable_or_sequence(str(path), space, rational=True)
        assert back.values == f.values

    def test_tree_kinds_parse(self):
        by_depth = {"states": ["0", "1"], "max_depth": 2,
                    "model": {"type": "by_depth",
                              "levels": [[[0.5, 0.5]], [[1, 0], [0, 1]]]}}
        table = {"states": ["0", "1"], "max_depth": 1,
                 "model": {"type": "table", "entries": {"": [[0.5, 0.5]]}}}
        assert isinstance(jsonio.tree_from_obj(by_depth), TreeModel)
        assert isinstance(jsonio.tree_from_obj(table), TreeModel)

    def test_schema_diagnostics_carry_paths(self, tmp_path):
        bad = {"states": ["0", "1"], "max_depth": 2,
               "model": {"type": "stationary", "extreme_points": [[0.5, 0.6]]}}
        with pytest.raises(Exception) as err:
            jsonio.tree_from_obj(bad)
        assert "extreme_points" in str(err.value) or "model" in str(err.value)

    @pytest.mark.parametrize("pmf, flags", [
        # 1/2 + 10^-13: exact masses get no tolerance on their sum.
        ([0.5, 0.5000000000001], ["--rational"]),
        # A negative float mass, however small, is rejected.
        ([-1e-13, 1.0000000000001], []),
    ])
    def test_invalid_pmf_is_input_error(self, files, capsys, pmf, flags):
        tree = {"states": ["0", "1"], "max_depth": 1,
                "model": {"type": "stationary", "extreme_points": [pmf]}}
        variable = {"depth": 1, "values": ["inf", 0]}
        code, report, err = run_cli(
            ["eval", files("t.json", tree), files("f.json", variable)] + flags, capsys)
        assert code == 1
        assert report is None
        assert "extreme_points" in err

    def test_transform_process_reparses_bit_exact(self, tmp_path):
        from gtue import doob_transform, from_values, CredalSet, StateSpace
        from gtue.evaluate import TreeModel as TM

        tree = TM.stationary(StateSpace(("0", "1")), CredalSet([(0, 1)]), 2)
        M = jsonio.process_from_obj(
            json.loads(json.dumps(DOOB_PROCESS)), tree.space)
        transform = doob_transform(tree, M, (), 1, 2)
        doc = jsonio.dump_process(transform.process, tree.space, rational=True)
        path = tmp_path / "tr.json"
        path.write_text(json.dumps(doc))
        back = jsonio.load_process(str(path), tree.space, rational=True)
        assert back.levels == transform.process.levels


TREE_HALF = {"states": ["0", "1"],
             "model": {"type": "stationary", "extreme_points": [[0.5, 0.5]]},
             "max_depth": 2}
RISING = {"horizon": 1, "values": {"": 0, "0": 5, "1": 7}}


class TestInputEdge:
    def test_infinite_tol_is_rejected(self, files, capsys):
        # With tol = inf every verification would pass: RISING is no supermartingale.
        tree, proc = files("t.json", TREE_HALF), files("p.json", RISING)
        for argv in (["check", tree, proc],
                     ["doob-certificate", tree, proc, "--a", "1", "--b", "2"]):
            code, report, err = run_cli(argv + ["--tol", "inf"], capsys)
            assert (code, report) == (1, None)
            assert "tol must be finite" in err

    @pytest.mark.parametrize("doc, field", [
        ("tree", "tree.max_depth"), ("variable", "variable.depth"),
        ("process", "process.horizon")])
    def test_bool_is_not_an_integer_field(self, files, capsys, doc, field):
        tree = dict(TREE_HALF, max_depth=True) if doc == "tree" else TREE_HALF
        if doc == "process":
            argv = ["check", files("t.json", tree),
                    files("p.json", {"horizon": True, "values": {"": 0, "0": 0, "1": 0}})]
        else:
            variable = {"depth": True if doc == "variable" else 1, "values": [0, 1]}
            argv = ["eval", files("t.json", tree), files("f.json", variable)]
        code, report, err = run_cli(argv, capsys)
        assert (code, report) == (1, None)
        assert field in err

    @pytest.mark.parametrize("states, bad", [(["", "x"], 0), (["a", "b.c"], 1)])
    def test_state_labels_cannot_collide_with_situation_text(self, files, capsys,
                                                              states, bad):
        tree = files("t.json", dict(TREE_HALF, states=states))
        code, report, err = run_cli(
            ["levy-certificate", tree, files("f.json", {"depth": 1, "values": [0, 1]}),
             "--a", "5/4", "--b", "7/4"], capsys)
        assert (code, report) == (1, None)
        assert f"tree.states[{bad}]" in err

    def test_a_table_entry_the_tree_never_reads_is_input_error(self, files, capsys):
        pmf = [[0.5, 0.5]]
        tree = files("t.json", {"states": ["0", "1"], "max_depth": 1, "model": {
            "type": "table", "entries": {"": pmf, "0": pmf, "0.0.0": pmf}}})
        code, report, err = run_cli(
            ["eval", tree, files("f.json", {"depth": 1, "values": [0, 1]})], capsys)
        assert (code, report) == (1, None)
        assert "input error: tree.model: table assignment has situation (0,) at or past " \
               "max_depth 1" in err

    @pytest.mark.parametrize("literal", ["1e400", "-1e400"])
    def test_overflowing_variable_literal_is_input_error(self, files, tmp_path, capsys,
                                                         literal):
        variable = tmp_path / "f.json"
        variable.write_text(f'{{"depth": 1, "values": [{literal}, 0]}}')
        argv = ["eval", files("t.json", TREE_A), str(variable)]
        code, report, err = run_cli(argv, capsys)
        assert (code, report) == (1, None)
        assert "variable.values[0]" in err and "overflows" in err
        # Rational mode reads the literal exactly.
        code, report, _ = run_cli(argv + ["--rational"], capsys)
        assert code == 0

    def test_overflowing_process_literal_is_input_error(self, files, tmp_path, capsys):
        process = tmp_path / "p.json"
        process.write_text('{"horizon": 1, "values": {"": 1e400, "0": 0, "1": 0}}')
        code, report, err = run_cli(["check", files("t.json", TREE_A), str(process)], capsys)
        assert (code, report) == (1, None)
        assert "process.values['']" in err and "overflows" in err

    @pytest.mark.parametrize("flags", [[], ["--rational"]])
    def test_number_text_outside_the_grammar_is_input_error(self, files, capsys, flags):
        # Fraction("1_0") is 10 from Python 3.11 on; the grammar refuses it on every version.
        process = files("p.json", {"horizon": 0, "values": {"": "1_0"}})
        code, report, err = run_cli(["check", files("t.json", TREE_HALF), process] + flags,
                                    capsys)
        assert (code, report) == (1, None)
        assert err == "input error: process.values['']: cannot parse '1_0' as a number\n"

    @pytest.mark.parametrize("tol", ["1_0", "1 /2", "1/0", "٣"])
    def test_rational_tol_outside_the_grammar_is_input_error(self, files, capsys, tol):
        argv = ["check", files("t.json", TREE_HALF), files("p.json", RISING), "--rational"]
        code, report, err = run_cli(argv + ["--tol", tol], capsys)
        assert (code, report) == (1, None)
        assert err == f"input error: --tol: cannot parse {tol!r} as a number\n"

    def test_a_terminal_cut_member_that_is_not_text_is_input_error(self, files, capsys):
        process = files("p.json", RISING | {"terminal_cut": [0, 1]})
        code, report, err = run_cli(["check", files("t.json", TREE_HALF), process], capsys)
        assert (code, report) == (1, None)
        assert err.startswith("input error: process.terminal_cut"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [[], ["--rational"]])
    def test_infinity_tokens_read_as_the_documented_strings(self, files, tmp_path, capsys,
                                                            flags):
        variable = tmp_path / "f.json"
        variable.write_text('{"depth": 1, "values": [Infinity, 0]}')
        code, report, _ = run_cli(["eval", files("t.json", TREE_A), str(variable)] + flags,
                                  capsys)
        assert (code, report["value"]) == (0, "inf")
        variable.write_text('{"depth": 1, "values": [-Infinity, 0]}')
        code, report, err = run_cli(["eval", files("t.json", TREE_A), str(variable)] + flags,
                                    capsys)
        assert (code, report) == (1, None)
        assert "NotBoundedBelow" in err

    def test_decoding_normalises_each_cell_once(self, monkeypatch):
        tree = jsonio.tree_from_obj(TREE_A)
        doc = {"depth": 3, "values": [0, 1.5, "2/3", "inf", 4, -0.25, Fraction(1, 7), 7]}
        calls = []

        def counting_payload(value):
            calls.append(value)
            return payload(value)

        monkeypatch.setattr(jsonio, "payload", counting_payload)
        monkeypatch.setattr(gtue.xreal, "payload", counting_payload)
        f = jsonio.variable_from_obj(doc, tree.space)
        monkeypatch.undo()
        assert calls == doc["values"]
        assert f.values == tuple(map(payload, doc["values"]))

    @pytest.mark.parametrize("bad", [True, None, [1], "x", "1/0", float("nan"), math.nan,
                                     math.inf, -math.inf, float("1e400")],
                             ids=["bool", "null", "array", "text", "zero-denominator",
                                  "nan", "canonical-nan", "overflow", "negative-overflow",
                                  "fresh-overflow"])
    def test_bad_variable_cell_is_named(self, bad):
        tree = jsonio.tree_from_obj(TREE_A)
        with pytest.raises(SchemaError) as from_table:
            jsonio.variable_from_obj({"depth": 1, "values": [0, bad]}, tree.space)
        with pytest.raises(SchemaError) as from_cell:
            jsonio.decode_number(bad, "variable.values[1]")
        assert str(from_table.value) == str(from_cell.value)

    @pytest.mark.parametrize("values", [
        [0.25, -1.5, 3.0, -0.0, 2.5, 1e300, -4.0, 5e-324],
        [0.25, "inf", 3, -0.0, "inf", 7, -4.0, 10**400],
        [F(1, 3), 2, F(-5, 7), 0, "inf", 1, 2, 3],
    ], ids=["floats", "floats-ints-inf-text", "fractions"])
    def test_plain_table_makes_no_payload_call(self, monkeypatch, values):
        tree = jsonio.tree_from_obj(TREE_A)
        calls = []

        def counting_payload(value):
            calls.append(value)
            return payload(value)

        monkeypatch.setattr(jsonio, "payload", counting_payload)
        monkeypatch.setattr(gtue.xreal, "payload", counting_payload)
        f = jsonio.variable_from_obj({"depth": 3, "values": values}, tree.space)
        monkeypatch.undo()
        assert calls == []
        assert all(type(got) is type(want) and repr(got) == repr(want)
                   for got, want in zip(f.values, map(payload, values)))
        assert all((got is POS_INF) == (raw == "inf") for got, raw in zip(f.values, values))

    def test_value_too_large_for_floats_is_input_error(self, files, capsys):
        # Exact 10^400 times the float mass 0.5 overflows float arithmetic.
        code, report, err = run_cli(
            ["eval", files("t.json", TREE_HALF),
             files("f.json", {"depth": 1, "values": ["1e400", 0]})], capsys)
        assert (code, report) == (1, None)
        assert "too large" in err

    @pytest.mark.parametrize("values", [[10**400, "inf"], ["inf", 10**400]])
    def test_plus_inf_beside_a_value_too_large_for_floats_reads_inf(self, files, capsys,
                                                                     values):
        code, report, err = run_cli(
            ["eval", files("t.json", TREE_HALF),
             files("f.json", {"depth": 1, "values": values})], capsys)
        assert (code, report["value"], err) == (0, "inf", "")


class TestParserBuiltOnce:
    def test_import_builds_no_parser(self):
        # Work at import shows in every set-up of the benchmark.
        code = ("import argparse\n"
                "calls = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(self, *args, **kwargs):\n"
                "    calls.append(1)\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "import gtue.cli\n"
                "print(len(calls))\n"
                "gtue.cli.main(['eval'])\n"
                "print(len(calls))\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        at_import, after_main = map(int, result.stdout.split())
        assert at_import == 0
        assert after_main > 0  # the count sees the parser main builds

    def test_main_builds_the_parser_once(self, files, capsys, monkeypatch):
        built = []

        def counting_build():
            built.append(1)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        tree, f = files("t.json", TREE_A), files("f.json", INDICATOR_11)
        for argv in (["eval", tree, f], ["eval", tree], ["check", tree, "--axioms",
                                                         "--trials", "5"],
                     ["eval", tree, f, "--rational"], ["--help"]):
            cli.main(argv)
        capsys.readouterr()
        assert built == [1]

    @pytest.mark.parametrize("first, then", [
        (["eval", "T", "F", "--rational"], ["eval", "T", "F"]),
        (["eval", "T", "F", "--lower"], ["eval", "T", "F"]),
        (["eval", "T"], ["eval", "T", "F"]),
        (["doob-certificate", "R", "P", "--a", "1", "--b", "2", "--rational"],
         ["eval", "T", "F"]),
        (["eval", "T", "F", "--situation", "1", "--tol", "0.5", "--oracle"],
         ["eval", "T", "F", "--oracle"]),
    ], ids=["rational", "lower", "usage-error", "doob", "situation-tol"])
    def test_a_call_leaves_nothing_for_the_next(self, files, capsys, first, then):
        paths = {"T": files("t.json", TREE_A), "F": files("f.json", INDICATOR_11),
                 "R": files("r.json", TREE_RIGHT), "P": files("p.json", DOOB_PROCESS)}

        def run(argv):
            return run_cli([paths.get(token, token) for token in argv], capsys)

        cli._parser.cache_clear()
        alone = run(then)
        cli._parser.cache_clear()
        run(first)
        assert run(then) == alone


_HUGE = 10**40
_ODD = st.sampled_from((True, float("nan"), "-inf", -0.25))  # never valid as a mass
_VALUES = st.one_of(
    st.integers(-5, 5), st.floats(-5, 5), st.sampled_from(("inf", 0, 1, 2)),
    # Exact values with a huge denominator.
    st.integers(-5 * _HUGE, 5 * _HUGE).map(lambda n: f"{n}/{_HUGE + 1}"))


def _spoil(draw, cells, odd, rate=10):
    """Replace one cell by an odd value, one time in ``rate``."""
    # A middle value: Hypothesis favours the bounds of a range.
    if cells and draw(st.integers(0, rate - 1)) == rate // 2:
        cells[draw(st.integers(0, len(cells) - 1))] = draw(odd)
    return cells


@st.composite
def _pmf(draw, arity):
    cuts = sorted(draw(st.lists(st.integers(0, 20), min_size=arity - 1,
                                max_size=arity - 1)))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [20])]
    if draw(st.booleans()):
        # Twentieths print as exact decimals, so rational mode reads them exactly.
        pmf = [w / 20 for w in weights]
    else:
        # Exact masses with huge denominators: "p/q" strings parse to Fractions.
        pmf = [f"{w * _HUGE}/{20 * _HUGE}" for w in weights]
    return _spoil(draw, pmf, _ODD, rate=40)


@st.composite
def _eval_documents(draw):
    """A tree, a variable and a situation at the JSON edge, valid or not."""
    arity = draw(st.integers(2, 3))
    states = _spoil(draw, [f"s{i}" for i in range(arity)], st.sampled_from(("", "s.0")))
    depth = draw(st.integers(0, 3))
    max_depth = draw(st.sampled_from((depth, depth + 1) * 5 + (True,)))
    levels = int(max_depth)
    kind = draw(st.sampled_from(("stationary", "by_depth", "table")))
    if kind == "stationary":
        model = {"type": kind, "extreme_points": draw(st.lists(_pmf(arity), min_size=1,
                                                               max_size=3))}
    elif kind == "by_depth":
        model = {"type": kind, "levels": [draw(st.lists(_pmf(arity), min_size=1,
                                                        max_size=2))
                                          for _ in range(levels)]}
    else:
        entries = {}
        for d in range(levels):
            for i in range(arity**d):
                path = [states[(i // arity**k) % arity] for k in range(d - 1, -1, -1)]
                entries[".".join(path)] = draw(st.lists(_pmf(arity), min_size=1,
                                                        max_size=2))
        model = {"type": kind, "entries": entries}
    tree = {"states": states, "model": model, "max_depth": max_depth}
    values = draw(st.lists(_VALUES, min_size=arity**depth, max_size=arity**depth))
    variable = {"depth": draw(st.sampled_from((depth,) * 9 + (True,))),
                "values": _spoil(draw, values, st.sampled_from((True, float("nan"), "-inf")))}
    # Down to the leaves, and one time in ten one step past them.
    length = draw(st.integers(0, depth)) + (draw(st.integers(0, 9)) == 5)
    path = draw(st.lists(st.sampled_from(states), min_size=length, max_size=length))
    flags = draw(st.lists(st.sampled_from(("--rational", "--rational", "--lower")),
                          unique=True))
    return tree, variable, ".".join(path), flags


@settings(max_examples=150, deadline=None)
@given(document=_eval_documents())
def test_eval_edge_exits_cleanly_and_agrees_with_whole_levels(document):
    """main returns 0 or 1 and never raises; every answer matches eval_process.

    eval_process computes whole levels, independently of the subtree walk
    that answers a conditional query.  The value at s depends on s's
    subtree only, so cells outside it (which may be infinite) are zeroed
    before the whole-level reference is computed.
    """
    tree_doc, variable_doc, situation, flags = document
    with tempfile.TemporaryDirectory() as workdir:
        tree_path = os.path.join(workdir, "t.json")
        variable_path = os.path.join(workdir, "f.json")
        for path, doc in ((tree_path, tree_doc), (variable_path, variable_doc)):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(["eval", tree_path, variable_path,
                             "--situation", situation] + flags)
        assert code in (0, 1)
        # A JSON bool is no integer, and a label must not collide with situation text.
        if variable_doc["depth"] is True or tree_doc["max_depth"] is True or \
                any(not x or "." in x for x in tree_doc["states"]):
            assert code == 1
        if code == 1:
            return
        rational = "--rational" in flags
        tree = jsonio.load_tree(tree_path, rational)
        f = jsonio.load_variable_or_sequence(variable_path, tree.space, rational)
        s = jsonio.situation_from_text(tree.space, situation)
        block = subtree_block(s, f.depth, f.arity)
        f = FinitaryVariable(f.arity, f.depth, [v if i in block else 0
                                                for i, v in enumerate(f.values)])
        if "--lower" in flags:
            want = neg(eval_process(tree, f.map(neg)).value_at(s))
        else:
            want = eval_process(tree, f).value_at(s)
    assert json.loads(out.getvalue())["value"] == jsonio.encode_number(want, rational)


# Bare literals too large for a float, written into the JSON text by _dump.
_OVER, _NEG_OVER = "<1e400>", "<-1e400>"
_CELLS = st.one_of(
    st.integers(-5, 5), st.floats(-5, 5),
    st.sampled_from(("1/3", "2.5e-3", "inf", math.inf)),
    st.integers(-5 * _HUGE, 5 * _HUGE).map(lambda n: f"{n}/{_HUGE + 1}"))
_ODD_CELLS = st.sampled_from((True, False, math.nan, "-inf", -math.inf, _OVER, _NEG_OVER,
                              "1/0", "x"))


class _Refused(Exception):
    """A cell that main must refuse with exit code 1."""


def _cell(raw, rational: bool):
    """The test's own reading of one cell: int, Fraction or float."""
    if isinstance(raw, bool) or raw in ("1/0", "x") or raw != raw:
        raise _Refused(raw)
    if raw in (_OVER, _NEG_OVER):
        if not rational:
            raise _Refused(raw)
        return F(10**400) if raw == _OVER else F(-10**400)
    if raw in ("inf", "-inf") or raw in (math.inf, -math.inf):
        return float(raw)
    if isinstance(raw, str):
        return F(raw)
    # Rational mode reads a float literal's decimal text exactly.
    return F(repr(raw)) if rational and isinstance(raw, float) else raw


def _dump(path, doc):
    text = json.dumps(doc).replace(f'"{_OVER}"', "1e400").replace(f'"{_NEG_OVER}"', "-1e400")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


@st.composite
def _edge_cases(draw):
    """A valid tree and a sequence template or process whose cells may be odd."""
    arity = draw(st.integers(2, 3))
    points = []
    for _ in range(draw(st.integers(1, 2))):
        cuts = sorted(draw(st.lists(st.integers(0, 20), min_size=arity - 1,
                                    max_size=arity - 1)))
        points.append([b - a for a, b in zip([0] + cuts, cuts + [20])])
    masses_as_text = draw(st.booleans())
    rational = draw(st.booleans())

    def cells(count):
        return _spoil(draw, draw(st.lists(_CELLS, min_size=count, max_size=count)),
                      _ODD_CELLS, rate=3)

    def variable():
        depth = draw(st.integers(0, 2))
        return {"depth": depth, "values": cells(arity**depth)}

    kind = draw(st.sampled_from(("clamp_above", "clamp_below", "explicit") + ("process",) * 3))
    if kind == "process":
        horizon = draw(st.integers(0, 2))
        levels = [[".".join(str(x) for x in s) for s in situations_at(d, arity)]
                  for d in range(horizon + 1)]
        labels = [label for level in levels for label in level]
        subject = {"horizon": horizon, "values": dict(zip(labels, cells(len(labels))))}
        if draw(st.booleans()):
            subject["terminal_cut"] = levels[-1]
    elif kind == "explicit":
        subject = {"kind": kind,
                   "items": [variable() for _ in range(draw(st.integers(1, 3)))],
                   "monotonicity": draw(st.sampled_from(
                       ("non_decreasing", "non_increasing", "none")))}
    else:
        subject = {"kind": kind, "base": variable()}
    situation = ".".join(str(x) for x in draw(st.lists(st.integers(0, arity - 1),
                                                       max_size=2)))
    return arity, points, masses_as_text, rational, subject, situation


def _expected(arity, points, masses_as_text, rational, subject, situation):
    """What main must report, from the test's own reading of every cell.

    Returns ("eval", EvalResult) or ("check", verdict); raises _Refused,
    a GTUEError, ValueError or OverflowError where main must exit 1.
    """
    def mass(w):
        return F(w, 20) if rational or masses_as_text else w / 20

    tree = TreeModel.stationary(StateSpace(tuple(str(x) for x in range(arity))),
                                CredalSet([tuple(mass(w) for w in p) for p in points]), 3)
    tol = 0 if rational else 1e-9  # main's default tolerance

    def variable(doc):
        return FinitaryVariable(arity, doc["depth"],
                                [_cell(raw, rational) for raw in doc["values"]])

    if "horizon" in subject:
        horizon = subject["horizon"]
        levels = [[_cell(subject["values"][".".join(str(x) for x in s)], rational)
                   for s in situations_at(d, arity)] for d in range(horizon + 1)]
        cut = level_cut(arity, horizon) if "terminal_cut" in subject else None
        return "check", check_supermartingale(tree, Process(arity, horizon, levels, cut), tol)
    s = tuple(int(x) for x in situation.split(".")) if situation else ()
    kind = subject["kind"]
    if kind == "explicit":
        items = [variable(item) for item in subject["items"]]
        seq = explicit_sequence(items, Monotonicity(subject["monotonicity"]))
        result = eval_limit(tree, seq, s)
        # The list is repeated at its tail: the last item is the limit.
        assert result.value == eval_finitary(tree, items[-1], s)
        return "eval", result
    base = variable(subject["base"])
    seq = (clamp_above_sequence if kind == "clamp_above" else clamp_below_sequence)(base)
    result = eval_limit(tree, seq, s)
    assert result.value == eval_finitary(tree, base, s)
    return "eval", result


@settings(max_examples=200, deadline=None)
@given(case=_edge_cases())
def test_sequence_and_process_cells_decode_like_the_library(case):
    """main returns a documented code, never raises, and agrees with the library.

    Every cell is also read by the test itself (``_cell``); an exit-0
    value must equal eval_finitary, and a check verdict
    check_supermartingale, on objects built from that reading.
    """
    arity, points, masses_as_text, rational, subject, situation = case
    tree_doc = {"states": [str(x) for x in range(arity)], "max_depth": 3,
                "model": {"type": "stationary", "extreme_points": [
                    [f"{w}/20" if masses_as_text else w / 20 for w in p] for p in points]}}
    command = "check" if "horizon" in subject else "eval"
    with tempfile.TemporaryDirectory() as workdir:
        tree_path = os.path.join(workdir, "t.json")
        subject_path = os.path.join(workdir, "s.json")
        _dump(tree_path, tree_doc)
        _dump(subject_path, subject)
        argv = [command, tree_path, subject_path] + (["--rational"] if rational else [])
        if command == "eval":
            argv += ["--situation", situation]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    event(f"{command} exit {code}")
    try:
        kind, want = _expected(*case)
    except (_Refused, GTUEError, ValueError, OverflowError):
        assert code == 1
        return
    report = json.loads(out.getvalue())
    if kind == "eval":
        assert code == 0
        assert (report["value"], report["status"], report["iterations"]) == \
            (jsonio.encode_number(want.value, rational), want.status, want.iterations)
    else:
        entry = report["supermartingale"]
        assert code == (0 if want.is_supermartingale else 2)
        assert (entry["is_supermartingale"], entry["is_bounded_below"]) == \
            (want.is_supermartingale, True)
        if want.worst_violation is not None:
            s, gap = want.worst_violation
            assert entry["worst_violation"] == {
                "situation": ".".join(str(x) for x in s),
                "gap": jsonio.encode_number(gap, rational)}


# Non-negative cells, so many Doob bases are admissible; 0 and 5, drawn twice as
# often, make crossings likely.
_CONTRAST = st.sampled_from((0, 5))
_GAMBLE_CELLS = st.one_of(
    _CONTRAST, _CONTRAST, st.integers(0, 5), st.floats(0, 5), st.sampled_from(("1/3", "2.5e-3")),
    st.integers(0, 5 * _HUGE).map(lambda n: f"{n}/{_HUGE + 1}"))
_BASE_CELLS = st.one_of(_GAMBLE_CELLS, st.sampled_from(("inf", math.inf)))


@st.composite
def _certificate_cases(draw):
    """A valid tree, a Doob base process or Lévy gamble whose cells may be odd, a window."""
    arity = draw(st.integers(2, 3))
    points = []
    for _ in range(draw(st.integers(1, 2))):
        cuts = sorted(draw(st.lists(st.integers(0, 20), min_size=arity - 1,
                                    max_size=arity - 1)))
        points.append([b - a for a, b in zip([0] + cuts, cuts + [20])])
    kind = draw(st.sampled_from(("doob", "levy")))
    depth = draw(st.integers(0, 3))
    if kind == "doob":
        levels = [[".".join(str(x) for x in s) for s in situations_at(d, arity)]
                  for d in range(depth + 1)]
        labels = [label for level in levels for label in level]
        cells = draw(st.lists(_BASE_CELLS, min_size=len(labels), max_size=len(labels)))
        subject = {"horizon": depth,
                   "values": dict(zip(labels, _spoil(draw, cells, _ODD_CELLS, rate=4)))}
        if draw(st.booleans()):
            subject["terminal_cut"] = levels[-1]
    else:
        cells = draw(st.lists(_GAMBLE_CELLS, min_size=arity**depth, max_size=arity**depth))
        subject = {"depth": depth, "values": _spoil(draw, cells, _ODD_CELLS, rate=4)}
    # Mostly near the top, where crossings have room; one time in ten past the horizon.
    length = min(draw(st.sampled_from((0, 0, 1, 2))), depth) + (draw(st.integers(0, 9)) == 5)
    root = ".".join(str(x) for x in draw(st.lists(st.integers(0, arity - 1),
                                                  min_size=length, max_size=length)))
    # 0 < a < b, swapped or with a zero delta one time in ten.
    window = [draw(st.sampled_from(("1", "3/2"))),
              draw(st.sampled_from(("2", "5/2", "3", "4")))]
    if draw(st.integers(0, 9)) == 5:
        window.reverse()
    if kind == "levy":
        window.append(draw(st.sampled_from(("1/2",) * 9 + ("0",))))
    return (arity, points, draw(st.booleans()), draw(st.booleans()), kind, subject, root,
            window)


def _certificate_expected(arity, points, masses_as_text, rational, kind, subject, root,
                          window):
    """The transform, its realized checks and its verdict, from the test's own cells."""
    def mass(w):
        return F(w, 20) if rational or masses_as_text else w / 20

    tree = TreeModel.stationary(StateSpace(tuple(str(x) for x in range(arity))),
                                CredalSet([tuple(mass(w) for w in p) for p in points]), 3)
    s = tuple(int(x) for x in root.split(".")) if root else ()
    if kind == "doob":
        horizon = subject["horizon"]
        levels = [[_cell(subject["values"][".".join(str(x) for x in u)], rational)
                   for u in situations_at(d, arity)] for d in range(horizon + 1)]
        cut = level_cut(arity, horizon) if "terminal_cut" in subject else None
        M = Process(arity, horizon, levels, cut)
        transform = doob_transform(tree, M, s, *window)
        checks = doob_gain_checks(M, transform)
    else:
        f = FinitaryVariable(arity, subject["depth"],
                             [_cell(raw, rational) for raw in subject["values"]])
        transform = levy_transform(tree, f, s, *window)
        checks = levy_bound_checks(transform)
    tol = 0 if rational else 1e-9  # main's default tolerance
    return transform, checks, check_supermartingale(tree, transform.process, tol)


@settings(max_examples=200, deadline=None)
@given(case=_certificate_cases())
def test_certificate_documents_decode_like_the_library(case):
    """doob- and levy-certificate exit with a documented code and report the library's answer.

    Every cell is read by the test itself (``_cell``); an exit-0 or -2
    report must hold the transform, cuts, realized checks and verdict of
    the library calls on objects built from that reading.
    """
    arity, points, masses_as_text, rational, kind, subject, root, window = case
    tree_doc = {"states": [str(x) for x in range(arity)], "max_depth": 3,
                "model": {"type": "stationary", "extreme_points": [
                    [f"{w}/20" if masses_as_text else w / 20 for w in p] for p in points]}}
    with tempfile.TemporaryDirectory() as workdir:
        tree_path = os.path.join(workdir, "t.json")
        subject_path = os.path.join(workdir, "s.json")
        _dump(tree_path, tree_doc)
        _dump(subject_path, subject)
        argv = [f"{kind}-certificate", tree_path, subject_path, "--situation", root,
                "--a", window[0], "--b", window[1]] + (["--rational"] if rational else [])
        if kind == "levy":
            argv += ["--delta", window[2]]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 1, 2)
    event(f"{kind} exit {code}")
    try:
        transform, checks, verdict = _certificate_expected(*case)
    except (_Refused, GTUEError, ValueError, OverflowError):
        assert code == 1
        return
    event(f"{kind} with realized checks" if checks else f"{kind} without realized checks")
    report = json.loads(out.getvalue())

    def text(u):
        return ".".join(str(x) for x in u)

    def number(value):
        return jsonio.encode_number(value, rational)

    process = transform.process
    assert report["process"]["values"] == {
        text(u): number(process.value_at(u))
        for d in range(process.horizon + 1) for u in situations_at(d, arity)}
    assert sorted(report["process"].get("terminal_cut") or ()) == \
        sorted(text(m) for m in process.terminal_cut or ())
    assert [(sorted(pair["V"]), sorted(pair["U"])) for pair in report["cuts"]["pairs"]] == \
        [(sorted(map(text, v)), sorted(map(text, u))) for v, u in transform.cuts.pairs]
    if kind == "doob":
        rows = [{"situation": text(c.situation), "upcrossings": c.upcrossings,
                 "gain": number(c.gain), "passed": c.passed} for c in checks]
    else:
        rows = [{"situation": text(c.situation), "upcrossings": c.upcrossings,
                 "value": number(c.value), "threshold": number(c.threshold),
                 "passed": c.passed} for c in checks]
    ok = verdict.is_supermartingale and all(c.passed for c in checks)
    want = {"is_supermartingale": verdict.is_supermartingale, "realized_checks": rows,
            "all_checks_passed": ok}
    if verdict.worst_violation is not None:
        s, gap = verdict.worst_violation
        want["worst_violation"] = {"situation": text(s), "gap": number(gap)}
    assert report["summary"] == want
    assert code == (0 if ok else 2)


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "gtue.cli", "--help"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "doob-certificate" in result.stdout


def test_cli_import_adds_only_stdlib_and_gtue_modules():
    """The library is pure standard library: importing gtue.cli adds no third-party module.

    ``site`` may preload third-party modules, so only what the import adds
    is checked, in a fresh interpreter.
    """
    code = ("import sys; before = set(sys.modules); import gtue.cli; "
            "print('\\n'.join(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    added = result.stdout.split()
    assert "gtue.cli" in added
    assert [name for name in added if name.split(".")[0] not in
            sys.stdlib_module_names | {"gtue"}] == []
