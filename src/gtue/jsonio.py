"""JSON schemas for trees, variables, sequences, processes, and transforms.

One file holds one object.  Numbers are decimal and decode to raw
payloads (``xreal.payload``), and ``encode_number`` writes payloads
back with ``xreal.to_text`` or as JSON floats.  Infinities
are the strings "inf" and "-inf"; the tokens Infinity and -Infinity read
as those strings, and a float-mode literal too large for a float is
refused.  In rational mode every numeric literal is parsed exactly (its
raw decimal text goes to ``xreal.fraction_from_text``, the one number
grammar, which also reads numbers given as strings) and values are
emitted as exact decimal strings, or "p/q" when the value has no finite
decimal expansion, so round trips are bit-exact.

Situations are dot-separated state labels; the empty string is the
initial situation.  A state label is therefore non-empty and contains
no ".".  Each table (a variable's values, a PMF, one depth of a process)
decodes through ``decode_table``.  Process values and terminal-cut
members are read and written by the rank-order texts of each depth's
situations; if a situation is missing or a key names none, every key and
its value is first read in file order, and a cut member is parsed only
when it matches no text.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product

from .credal import CredalSet, StateSpace
from .errors import SchemaError
from .evaluate import TreeModel
from .process import Process
from .tree import (
    Cut,
    FinitaryVariable,
    Monotonicity,
    Situation,
    clamp_above_sequence,
    clamp_below_sequence,
    explicit_sequence,
    rank,
    situations_at,
)
from .xreal import (NEG_INF, POS_INF, Payloads, fraction_from_text, payload, plain_payloads,
                    to_text)

# json's non-standard constants.  The infinities read as their strings, so a
# float infinity reaching decode_number comes from an overflowed literal.
_CONSTANTS = {"Infinity": "inf", "-Infinity": "-inf", "NaN": math.nan}
_INFINITIES = (math.inf, -math.inf)


def load_json(path: str, rational: bool):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle, parse_float=fraction_from_text if rational else None,
                         parse_constant=_CONSTANTS.__getitem__)


def situation_from_text(space: StateSpace, text: str) -> Situation:
    if text == "":
        return ()
    return tuple(space.index(label) for label in text.split("."))


def situation_to_text(space: StateSpace, s: Situation) -> str:
    return ".".join(space.labels[x] for x in s)


def situation_texts(space: StateSpace, depth: int) -> list:
    """The situations of a depth as text, in rank order (``tree.situations_at``)."""
    return list(map(".".join, product(space.labels, repeat=depth)))


def decode_number(raw, where: str):
    """A JSON number or numeric string as a raw payload (``xreal.payload``)."""
    kind = type(raw)
    if kind not in (int, float, str, Fraction):
        raise SchemaError(f"{where}: expected a number, got {kind.__name__}")
    if kind is float and raw in _INFINITIES:
        raise SchemaError(f"{where}: literal overflows a float (infinities are \"inf\", \"-inf\")")
    try:
        return payload(raw)
    except ValueError:
        raise SchemaError(f"{where}: cannot parse {raw!r} as a number") from None


def decode_table(cells, name) -> Payloads:
    """JSON cells as payloads: ``plain_payloads``, else ``decode_number`` on cell ``name(i)``."""
    return plain_payloads(cells) or Payloads(decode_number(raw, name(i))
                                              for i, raw in enumerate(cells))


def encode_number(value, rational: bool):
    """A raw payload as JSON: text in rational mode or for an infinity, else a float."""
    # Identity, not `in`: `in` would run Fraction.__eq__(float) per cell of a dump.
    if rational or value is POS_INF or value is NEG_INF:
        return to_text(value)
    return float(value)


def _require(mapping, key, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _natural(mapping, key, where: str) -> int:
    """A required non-negative integer field; a JSON bool is not one."""
    value = _require(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(f"{where}.{key}: expected a non-negative integer")
    return value


def load_credal(raw, where: str) -> CredalSet:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{where}: expected a non-empty array of PMF arrays")
    points = []
    for i, pmf in enumerate(raw):
        if not isinstance(pmf, list):
            raise SchemaError(f"{where}[{i}]: expected a PMF array")
        pmf = decode_table(pmf, lambda j: f"{where}[{i}][{j}]")
        for j, mass in enumerate(pmf):
            if mass is POS_INF or mass is NEG_INF:
                raise SchemaError(f"{where}[{i}][{j}]: probability masses must be finite")
        points.append(pmf)
    try:
        return CredalSet(points)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def tree_from_obj(obj) -> TreeModel:
    states = _require(obj, "states", "tree")
    if not isinstance(states, list) or not all(isinstance(x, str) for x in states):
        raise SchemaError("tree.states: expected an array of strings")
    for i, label in enumerate(states):
        # Situation text joins labels with ".", so "" or "a.b" would collide.
        if not label or "." in label:
            raise SchemaError(f"tree.states[{i}]: a state label must be non-empty "
                              f"and contain no '.', got {label!r}")
    try:
        space = StateSpace(tuple(states))
    except ValueError as exc:
        raise SchemaError(f"tree.states: {exc}") from None
    max_depth = _natural(obj, "max_depth", "tree")
    model = _require(obj, "model", "tree")
    kind = _require(model, "type", "tree.model")
    try:
        if kind == "stationary":
            credal = load_credal(_require(model, "extreme_points", "tree.model"),
                                 "tree.model.extreme_points")
            return TreeModel.stationary(space, credal, max_depth)
        if kind == "by_depth":
            levels_raw = _require(model, "levels", "tree.model")
            if not isinstance(levels_raw, list):
                raise SchemaError("tree.model.levels: expected an array")
            levels = [load_credal(level, f"tree.model.levels[{d}]")
                      for d, level in enumerate(levels_raw)]
            return TreeModel.by_depth(space, levels, max_depth)
        if kind == "table":
            entries = _require(model, "entries", "tree.model")
            if not isinstance(entries, dict):
                raise SchemaError("tree.model.entries: expected an object")
            table = {situation_from_text(space, key):
                     load_credal(value, f"tree.model.entries[{key!r}]")
                     for key, value in entries.items()}
            return TreeModel.table(space, table, max_depth)
    except ValueError as exc:
        raise SchemaError(f"tree.model: {exc}") from None
    raise SchemaError(f"tree.model.type: unknown kind {kind!r}")


def load_tree(path: str, rational: bool) -> TreeModel:
    return tree_from_obj(load_json(path, rational))


def variable_from_obj(obj, space: StateSpace, where: str = "variable") -> FinitaryVariable:
    depth = _natural(obj, "depth", where)
    values = _require(obj, "values", where)
    if not isinstance(values, list):
        raise SchemaError(f"{where}.values: expected an array")
    if len(values) != space.size**depth:
        raise SchemaError(f"{where}.values: expected {space.size ** depth} entries "
                          f"for depth {depth}, got {len(values)}")
    return FinitaryVariable(space.size, depth,
                            decode_table(values, lambda i: f"{where}.values[{i}]"))


def dump_variable(f: FinitaryVariable, rational: bool):
    return {"depth": f.depth, "values": [encode_number(v, rational) for v in f.values]}


def sequence_from_obj(obj, space: StateSpace):
    """Either a bare finitary variable or a sequence template.

    Templates: {"kind": "clamp_above", "base": <variable>} for the
    non-decreasing clamp ladder, {"kind": "clamp_below", "base": ...} for
    the lower-cut sweep, {"kind": "explicit", "items": [...],
    "monotonicity": "non_decreasing"|"non_increasing"|"none"}.
    Returns a FinitaryVariable or a FinitarySequence.
    """
    if not isinstance(obj, dict):
        raise SchemaError("variable: expected an object")
    if "kind" not in obj:
        return variable_from_obj(obj, space)
    kind = obj["kind"]
    if kind in ("clamp_above", "clamp_below"):
        base = variable_from_obj(_require(obj, "base", "sequence"), space, "sequence.base")
        return (clamp_above_sequence if kind == "clamp_above" else clamp_below_sequence)(base)
    if kind == "explicit":
        items_raw = _require(obj, "items", "sequence")
        if not isinstance(items_raw, list) or not items_raw:
            raise SchemaError("sequence.items: expected a non-empty array")
        items = [variable_from_obj(item, space, f"sequence.items[{i}]")
                 for i, item in enumerate(items_raw)]
        mono_raw = obj.get("monotonicity", "none")
        try:
            mono = Monotonicity(mono_raw)
        except ValueError:
            raise SchemaError(f"sequence.monotonicity: unknown value {mono_raw!r}") from None
        return explicit_sequence(items, mono)
    raise SchemaError(f"sequence.kind: unknown template {kind!r}")


def load_variable_or_sequence(path: str, space: StateSpace, rational: bool):
    return sequence_from_obj(load_json(path, rational), space)


def process_from_obj(obj, space: StateSpace) -> Process:
    horizon = _natural(obj, "horizon", "process")
    values = _require(obj, "values", "process")
    if not isinstance(values, dict):
        raise SchemaError("process.values: expected an object keyed by situations")
    texts = []  # the depths whose situations are all present
    for level in (situation_texts(space, depth) for depth in range(horizon + 1)):
        if not all(map(values.__contains__, level)):
            break
        texts.append(level)
    if len(texts) <= horizon or len(values) > sum(map(len, texts)):
        for key in values:  # a situation is missing, or a key is none of these: read each in turn
            try:
                situation_from_text(space, key)
            except ValueError as exc:
                raise SchemaError(f"process.values[{key!r}]: {exc}") from None
            decode_number(values[key], f"process.values[{key!r}]")
    if len(texts) <= horizon:
        missing = next(text for text in level if text not in values)
        raise SchemaError(f"process.values: missing situation {missing!r} at depth {len(texts)}")
    levels = [decode_table(list(map(values.__getitem__, level)),
                           lambda i: f"process.values[{level[i]!r}]") for level in texts]
    cut = None
    if obj.get("terminal_cut") is not None:
        raw_cut = obj["terminal_cut"]
        if not isinstance(raw_cut, list):
            raise SchemaError("process.terminal_cut: expected an array of situations")
        known = {}  # text -> situation, for every depth up to the horizon
        for depth, level in enumerate(texts):
            known.update(zip(level, situations_at(depth, space.size)))
        try:
            members = frozenset(map(known.__getitem__, raw_cut))
        except (KeyError, TypeError):  # some member is no text of these depths
            members = frozenset(_cut_member(space, known, i, item)
                                for i, item in enumerate(raw_cut))
        try:
            cut = Cut(members)
        except ValueError as exc:
            raise SchemaError(f"process.terminal_cut: {exc}") from None
    try:
        return Process(space.size, horizon, tuple(levels), cut)
    except ValueError as exc:
        raise SchemaError(f"process: {exc}") from None


def _cut_member(space: StateSpace, known: dict, i: int, item) -> Situation:
    """Terminal-cut member ``i``: a text of ``known``, else parsed, which names a bad label."""
    if not isinstance(item, str):
        raise SchemaError(f"process.terminal_cut[{i}]: expected a situation string, "
                          f"got {type(item).__name__}")
    if item in known:
        return known[item]
    try:
        return situation_from_text(space, item)
    except ValueError as exc:
        raise SchemaError(f"process.terminal_cut: {exc}") from None


def load_process(path: str, space: StateSpace, rational: bool) -> Process:
    return process_from_obj(load_json(path, rational), space)


def _member_texts(cut: Cut, texts: list, arity: int) -> list:
    """A cut's members in its order, read from ``texts``, the rank-order texts of each depth."""
    depths = set(map(len, cut.members))
    if len(depths) == 1 and len(cut) == arity ** (depth := depths.pop()):
        return texts[depth]  # a whole level: its rank order is the cut's order
    return [texts[len(m)][rank(m, arity)] for m in cut]


def dump_process(M: Process, space: StateSpace, rational: bool):
    texts = [situation_texts(space, depth) for depth in range(M.horizon + 1)]
    values = {text: encode_number(v, rational)
              for level_texts, level in zip(texts, M.levels) for text, v in zip(level_texts, level)}
    out = {"horizon": M.horizon, "values": values}
    if M.terminal_cut is not None:
        out["terminal_cut"] = _member_texts(M.terminal_cut, texts, M.arity)
    return out


def dump_cuts(cuts, space: StateSpace):
    deepest = max((cut.max_depth() for pair in cuts.pairs for cut in pair), default=0)
    texts = [situation_texts(space, depth) for depth in range(deepest + 1)]
    return {"root": situation_to_text(space, cuts.root),
            "pairs": [{"V": _member_texts(v_cut, texts, space.size),
                       "U": _member_texts(u_cut, texts, space.size)}
                      for v_cut, u_cut in cuts.pairs]}
