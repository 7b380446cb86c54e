import json
from fractions import Fraction

import pytest

import gtue.xreal
from gtue import POS_INF, StateSpace, from_values, jsonio, level_cut
from gtue.errors import SchemaError
from gtue.tree import situations_at
from gtue.xreal import payload

F = Fraction
SPACE = StateSpace(("ab", "c", "d"))
# A valid horizon-1 process on SPACE; each case below spoils it once.
VALUES = {"": 1, "ab": 1, "c": 2, "d": 3}


def _decode(values, horizon=1):
    return jsonio.process_from_obj({"horizon": horizon, "values": values}, SPACE)


@pytest.mark.parametrize("values, message", [
    (VALUES | {"x": 1}, "process.values['x']: unknown state label 'x'"),
    # A mistyped key stands in for "d": the unknown label is named, not the missing "d".
    ({"": 1, "ab": 1, "c": 2, "dd": 3}, "process.values['dd']: unknown state label 'dd'"),
    ({"": 1, "ab": 1, "c": 2}, "process.values: missing situation 'd' at depth 1"),
    (VALUES | {"c": True}, "process.values['c']: expected a number, got bool"),
    (VALUES | {"c": None}, "process.values['c']: expected a number, got NoneType"),
    (VALUES | {"c": "x"}, "process.values['c']: cannot parse 'x' as a number"),
    (VALUES | {"c": float("1e400")},
     "process.values['c']: literal overflows a float (infinities are \"inf\", \"-inf\")"),
    (VALUES | {"ab.c": "x"}, "process.values['ab.c']: cannot parse 'x' as a number"),
    (VALUES | {"c": "-inf"}, "process: processes must be bounded below: -inf value found"),
], ids=["unknown-label", "mistyped-key", "missing-situation", "bool", "non-number", "text",
        "overflow", "bad-value-past-horizon", "neg-inf"])
def test_a_single_fault_is_named(values, message):
    with pytest.raises(SchemaError) as refused:
        _decode(values)
    assert str(refused.value) == message


@pytest.mark.parametrize("values, message", [
    # A situation is missing, or a key names none: every key is read in file order first.
    ({"": 1, "ab": "x", "c": 2}, "process.values['ab']: cannot parse 'x' as a number"),
    ({"": "x", "ab": 1, "c": 2}, "process.values['']: cannot parse 'x' as a number"),
    (VALUES | {"ab": "x", "zz": 1}, "process.values['ab']: cannot parse 'x' as a number"),
    ({"": 1, "zz": 1, "ab": 1, "c": 2}, "process.values['zz']: unknown state label 'zz'"),
    # Every key names a situation up to the horizon: bad values are found in rank order.
    ({"": 1, "d": "y", "ab": 1, "c": "x"}, "process.values['c']: cannot parse 'x' as a number"),
], ids=["bad-value-and-missing", "bad-root-and-missing", "bad-value-and-unknown-key",
        "unknown-key-and-missing", "two-bad-values"])
def test_the_first_of_two_faults_is_named_in_the_documented_order(values, message):
    with pytest.raises(SchemaError) as refused:
        _decode(values)
    assert str(refused.value) == message


def test_a_missing_situation_is_named_before_deeper_depths_are_built(monkeypatch):
    built, texts = [], jsonio.situation_texts

    def counting_texts(space, depth):
        built.append(depth)
        return texts(space, depth)

    monkeypatch.setattr(jsonio, "situation_texts", counting_texts)
    with pytest.raises(SchemaError, match="missing situation 'ab' at depth 1"):
        _decode({"": 1}, horizon=40)  # 3**40 situations at the horizon
    assert built == [0, 1]


def test_a_valid_key_past_the_horizon_is_ignored():
    assert _decode(VALUES | {"ab.c": 7, "d.d.ab": "inf"}).levels == ((1,), (1, 2, 3))


@pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
def test_dump_and_load_round_trip_in_rank_order(rational):
    cells = {(): F(5, 2), (0,): POS_INF, (2, 1): POS_INF, (1, 2): F(1, 3)}

    def value(s):
        v = cells.get(s, F(len(s) + sum(s), 4))
        return v if rational or v is POS_INF else float(v)

    M = from_values(3, 2, value, level_cut(3, 2))
    doc = jsonio.dump_process(M, SPACE, rational)
    assert list(doc["values"]) == [".".join(SPACE.labels[x] for x in s)
                                   for d in range(3) for s in situations_at(d, 3)]
    assert doc["values"]["ab"] == "inf" and doc["values"]["d.c"] == "inf"
    back = jsonio.process_from_obj(
        json.loads(json.dumps(doc), parse_float=Fraction if rational else None), SPACE)
    assert back == M
    assert all(type(got) is type(want) for got, want in zip(
        (v for level in back.levels for v in level), (v for level in M.levels for v in level)))
    assert back.value_at((0,)) is POS_INF


def test_each_process_cell_is_normalised_at_most_once(monkeypatch):
    calls = []

    def counting_payload(value):
        calls.append(value)
        return payload(value)

    monkeypatch.setattr(jsonio, "payload", counting_payload)
    monkeypatch.setattr(gtue.xreal, "payload", counting_payload)
    # Level 0 is a plain table and is taken whole; level 1 holds text, read cell by cell.
    M = _decode({"": 0, "ab": 1.5, "c": "2/3", "d": F(1, 7)})
    monkeypatch.undo()
    assert calls == [1.5, "2/3", F(1, 7)]
    assert M.levels == ((0,), (1.5, F(2, 3), F(1, 7)))


_TREE = {"states": ["0", "1"], "max_depth": 1,
         "model": {"type": "stationary", "extreme_points": [[0.5, 0.5]]}}
_BINARY = StateSpace(("0", "1"))
_PROCESS = {"horizon": 1, "values": {"": 0, "0": 0, "1": 0}}


def _tree_with(**model):
    return jsonio.tree_from_obj(_TREE | {"model": _TREE["model"] | model})


@pytest.mark.parametrize("refused, match", [
    (lambda: _tree_with(extreme_points=[["inf", 0]]),
     r"extreme_points\[0\]\[0\]: probability masses must be finite"),
    (lambda: _tree_with(extreme_points=[]), "expected a non-empty array of PMF arrays"),
    (lambda: _tree_with(extreme_points=[0.5]), r"extreme_points\[0\]: expected a PMF array"),
    (lambda: jsonio.tree_from_obj(_TREE | {"states": [0, 1]}),
     "tree.states: expected an array of strings"),
    (lambda: jsonio.tree_from_obj(_TREE | {"states": ["0", "0"]}),
     "tree.states: state labels must be unique"),
    (lambda: _tree_with(type="by_depth", levels={}), "tree.model.levels: expected an array"),
    (lambda: _tree_with(type="table", entries=[]), "tree.model.entries: expected an object"),
    (lambda: _tree_with(type="table", entries={"x": [[1, 0]]}),
     "tree.model: unknown state label 'x'"),
    (lambda: _tree_with(type="tabular"), "tree.model.type: unknown kind 'tabular'"),
    (lambda: jsonio.variable_from_obj({"depth": 1, "values": {}}, _BINARY),
     "variable.values: expected an array"),
    (lambda: jsonio.variable_from_obj({"depth": 1, "values": [0]}, _BINARY),
     "variable.values: expected 2 entries for depth 1, got 1"),
    (lambda: jsonio.sequence_from_obj([0, 1], _BINARY), "variable: expected an object"),
    (lambda: jsonio.sequence_from_obj({"kind": "explicit", "items": []}, _BINARY),
     "sequence.items: expected a non-empty array"),
    (lambda: jsonio.sequence_from_obj(
        {"kind": "explicit", "items": [{"depth": 0, "values": [1]}], "monotonicity": "up"},
        _BINARY), "sequence.monotonicity: unknown value 'up'"),
    (lambda: jsonio.sequence_from_obj({"kind": "ladder"}, _BINARY),
     "sequence.kind: unknown template 'ladder'"),
    (lambda: jsonio.process_from_obj({"horizon": 1, "values": [0, 0, 0]}, _BINARY),
     "process.values: expected an object keyed by situations"),
    (lambda: jsonio.process_from_obj(_PROCESS | {"terminal_cut": "0"}, _BINARY),
     "process.terminal_cut: expected an array of situations"),
    (lambda: jsonio.process_from_obj(_PROCESS | {"terminal_cut": ["0", "2"]}, _BINARY),
     "process.terminal_cut: unknown state label '2'"),
], ids=["infinite-mass", "no-points", "point-not-array", "states-not-text", "states-repeat",
        "levels-not-array", "entries-not-object", "entry-unknown-label", "unknown-model",
        "values-not-array", "values-length", "sequence-not-object", "items-empty",
        "unknown-monotonicity", "unknown-template", "process-values-not-object",
        "cut-not-array", "cut-unknown-label"])
def test_refuses_invalid_input(refused, match):
    with pytest.raises(SchemaError, match=match):
        refused()
