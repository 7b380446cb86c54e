import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from gtue import cli, jsonio
from gtue.evaluate import TreeModel

F = Fraction

TREE_A = {"states": ["0", "1"],
          "model": {"type": "stationary", "extreme_points": [[0.7, 0.3], [0.3, 0.7]]},
          "max_depth": 4}
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

    def test_budget_exhaustion_exit_code(self, files, capsys):
        items = [{"depth": 0, "values": [-(2 ** -n)]} for n in range(40)]
        seq = {"kind": "explicit", "items": items, "monotonicity": "non_decreasing"}
        code, report, _ = run_cli(
            ["eval", files("t.json", TREE_A), files("s.json", seq),
             "--budget", "8", "--tol", "0"], capsys)
        assert code == 3
        assert report["status"] == "budget_exhausted"
        assert report["bound_direction"] == "lower"

    def test_order_broken_past_the_budget_exits_one(self, files, capsys):
        items = [{"depth": 0, "values": [n]} for n in range(20)] + [{"depth": 0, "values": [0]}]
        seq = {"kind": "explicit", "items": items, "monotonicity": "non_decreasing"}
        code, report, err = run_cli(
            ["eval", files("t.json", TREE_A), files("s.json", seq), "--budget", "8"], capsys)
        assert code == 1
        assert report is None
        assert "MonotonicityViolated" in err

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

    def test_rational_axiom_audit_is_exact(self, files, capsys):
        # A float tolerance would turn the exact right-hand sides inexact
        # and fail order-checked axioms on this valid model.
        code, report, _ = run_cli(
            ["check", files("t.json", TREE_A), "--axioms", "--trials", "40", "--rational"],
            capsys)
        assert code == 0
        assert report["axioms"][0]["all_passed"] is True

    def test_rational_tol_is_parsed_exactly(self):
        def tol(*argv):
            return cli._config_from_args(cli.build_parser().parse_args(argv)).tol

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

    def test_levy_certificate(self, files, capsys):
        code, report, _ = run_cli(
            ["levy-certificate", files("t.json", TREE_A),
             files("f.json", INDICATOR_11), "--a", "6/5", "--b", "8/5",
             "--delta", "1", "--rational"], capsys)
        assert code == 0
        assert report["summary"]["is_supermartingale"] is True
        assert report["process"]["values"][""] == "1"


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
        from gtue import FinitaryVariable, XR

        f = FinitaryVariable(2, 1, (XR(F(1, 3)), XR(float("inf"))))
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
        from gtue import doob_transform, from_values, CredalSet, StateSpace, XR
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


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "gtue.cli", "--help"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "doob-certificate" in result.stdout
