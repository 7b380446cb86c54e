"""The benchmark's tracer against the library it patches.

``perfbench/tracing.py`` wraps gtue functions by module attribute name.
A renamed or removed target would crash a traced benchmark run, so the
tracer is installed on the imported gtue here, used for a traced
``eval`` of a variable and of a ``clamp_above`` sequence, ``check``,
``check --axioms``, ``doob-certificate`` and ``levy-certificate``, and
uninstalled: every name it patches must exist, its hooks must read the
arguments they expect, and every attribute must come back.
"""

import importlib.util
import io
import json
import os
import sys
from contextlib import redirect_stdout

import gtue.cli

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every gtue module, and of CutSystem, by identity."""
    owners = [module for name, module in sys.modules.items()
              if name == "gtue" or name.startswith("gtue.")]
    owners.append(sys.modules["gtue.constructions"].CutSystem)
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_patches_existing_names_and_restores_them(tmp_path):
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        installed = _bindings()
        assert any(installed[key] is not before[key] for key in before)
        tree = tmp_path / "t.json"
        tree.write_text(json.dumps({"states": ["0", "1"], "max_depth": 2, "model": {
            "type": "stationary", "extreme_points": [[0.5, 0.5], [0.25, 0.75]]}}))
        variable = tmp_path / "f.json"
        variable.write_text(json.dumps({"depth": 2, "values": [0, 1, 2, "inf"]}))
        sequence = tmp_path / "s.json"
        sequence.write_text(json.dumps({"kind": "clamp_above",
                                        "base": {"depth": 2, "values": [0, 1, 2, "inf"]}}))
        # The upper expectations of [0, 1, 2, 3]: a supermartingale.
        process = tmp_path / "p.json"
        process.write_text(json.dumps({"horizon": 2, "values": {
            "": 2.25, "0": 0.75, "1": 2.75, "0.0": 0, "0.1": 1, "1.0": 2, "1.1": 3},
            "terminal_cut": ["0.0", "0.1", "1.0", "1.1"]}))
        # Shifted by 1: node 0's upper expectation 3 drops below 7/2, leaf 0.0's 5 exceeds 4.
        gamble = tmp_path / "g.json"
        gamble.write_text(json.dumps({"depth": 2, "values": [4, 0, 2, 2]}))
        with redirect_stdout(io.StringIO()):
            codes = [gtue.cli.main(["eval", str(tree), str(variable), "--situation", "1"]),
                     gtue.cli.main(["eval", str(tree), str(sequence)]),
                     gtue.cli.main(["check", str(tree), str(process)]),
                     gtue.cli.main(["check", str(tree), "--axioms", "--trials", "2"]),
                     gtue.cli.main(["doob-certificate", str(tree), str(process),
                                    "--a", "1", "--b", "2"]),
                     gtue.cli.main(["levy-certificate", str(tree), str(gamble),
                                    "--a", "7/2", "--b", "4"])]
        assert codes == [0, 0, 0, 0, 0, 0]
        # The limit hook reads EvalResult.iterations.
        assert tracer.counters["evaluate.limit_iterations"] == 1
        assert tracer.counters["evaluate.nodes"] > 0
        assert tracer.counters["jsonio.bytes_in"] > 0
        assert tracer.counters["process.nodes_checked"] > 0
        assert tracer.counters["constructions.realized_checks"] > 0
        # The float tree's audit goes through whatever cli.upper_envelope returns.
        assert tracer.counters["audit.functional_calls"] > 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
