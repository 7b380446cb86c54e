"""Tracing gtue from outside: wrap functions where their callers look them up.

Nothing under ``src/`` changes.  ``install`` replaces module attributes
such as ``gtue.cli.eval_finitary`` (the name ``cmd_eval`` calls) or
``gtue.evaluate.backward_levels`` with wrappers, and ``uninstall`` puts
the originals back.

Layer boundaries record spans (name, start, end, parent, op id) in
memory; per-node functions (``local_upper``, ``add``, ``scale``,
``unrank``, ``chain_state``) only bump counters, because a span per call
would cost more than the call.  ``write`` dumps both as JSON at the end.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from time import perf_counter

def _nodes_recursed(args, kwargs, result):
    f = args[1]
    down_to = args[2] if len(args) > 2 else kwargs.get("down_to", 0)
    return {"evaluate.nodes": sum(f.arity**d for d in range(down_to, f.depth))}


def _nodes_checked(args, kwargs, result):
    process = args[1]
    return {"process.nodes_checked": sum(process.arity**d for d in range(process.horizon))}


def _bytes_in(args, kwargs, result):
    return {"jsonio.bytes_in": os.path.getsize(args[0])}


def _limit_iterations(args, kwargs, result):
    return {"evaluate.limit_iterations": result.iterations}


def _selections(args, kwargs, result):
    return {"oracle.selections": result}


def _realized(args, kwargs, result):
    return {"constructions.realized_checks": len(result)}


# (span name, [(module, attribute)], hook) for layer boundaries.  A hook
# turns (args, kwargs, result) into counter increments.
SPANS = (
    ("jsonio.load", [("gtue.jsonio", "load_tree"), ("gtue.jsonio", "load_process"),
                     ("gtue.jsonio", "load_variable_or_sequence")], _bytes_in),
    ("jsonio.dump", [("gtue.cli", "_emit"), ("gtue.jsonio", "dump_process"),
                     ("gtue.jsonio", "dump_cuts")], None),
    ("evaluate.eval", [("gtue.cli", "eval_finitary"), ("gtue.cli", "eval_lower_finitary")],
     None),
    ("evaluate.limit", [("gtue.cli", "eval_limit")], _limit_iterations),
    ("evaluate.backward_levels", [("gtue.evaluate", "backward_levels"),
                                  ("gtue.constructions", "backward_levels")],
     _nodes_recursed),
    ("oracle.selection_count", [("gtue.cli", "selection_count")], _selections),
    ("oracle.brute_force", [("gtue.cli", "brute_force_upper")], None),
    ("process.check", [("gtue.cli", "check_supermartingale")], _nodes_checked),
    ("constructions.transform", [("gtue.cli", "doob_transform"),
                                 ("gtue.cli", "levy_transform")], None),
    ("constructions.checks", [("gtue.cli", "doob_gain_checks"),
                              ("gtue.cli", "levy_bound_checks")], _realized),
    ("audit.audit", [("gtue.cli", "audit_axioms")], None),
)

# (counter, source module, function name): every gtue module binding that
# name to the same function gets the counting wrapper.
COUNTERS = (
    ("xreal.add_calls", "gtue.xreal", "add"),
    ("xreal.scale_calls", "gtue.xreal", "scale"),
    ("tree.unrank_calls", "gtue.tree", "unrank"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = Counter()
        self._stack = []
        self._op = None
        self._saved = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, op_id=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if op_id is not None:
            self._op = op_id
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn, hook):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if hook is not None:
                self.counters.update(hook(args, kwargs, result))
            return result
        return traced

    def _count_wrapper(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _rebind(self, attr, original, wrapper):
        """Patch every gtue module that binds ``attr`` to ``original``."""
        for key, owner in list(sys.modules.items()):
            if (key == "gtue" or key.startswith("gtue.")) and \
                    getattr(owner, attr, None) is original:
                self._patch(owner, attr, wrapper)

    def install(self):
        for name, targets, hook in SPANS:
            for module, attr in targets:
                owner = sys.modules[module]
                self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr), hook))

        for counter, module, attr in COUNTERS:
            original = getattr(sys.modules[module], attr)
            self._rebind(attr, original, self._count_wrapper(counter, original))

        original_upper = sys.modules["gtue.credal"].local_upper
        counters = self.counters

        def local_upper(model, h):
            counters["credal.local_upper_calls"] += 1
            counters["credal.points_evaluated"] += len(model.extreme_points)
            return original_upper(model, h)
        self._rebind("local_upper", original_upper, local_upper)

        cut_system = sys.modules["gtue.constructions"].CutSystem
        for attr in ("chain_state", "hits_along"):
            self._patch(cut_system, attr,
                        self._count_wrapper("constructions.chain_state_calls",
                                            getattr(cut_system, attr)))

        cli = sys.modules["gtue.cli"]
        make_functional = cli.upper_envelope

        def upper_envelope(model):
            return self._count_wrapper("audit.functional_calls", make_functional(model))
        self._patch(cli, "upper_envelope", upper_envelope)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def layer_totals(self) -> dict:
        """Busy milliseconds per span name, and the op spans' self time."""
        busy = Counter()
        child_time = Counter()
        for name, start, end, parent, _op in self.spans:
            duration = (end - start) * 1000
            busy[name] += duration
            if parent >= 0:
                child_time[parent] += duration
        cli_self = sum(
            (end - start) * 1000 - child_time[index]
            for index, (name, start, end, parent, _op) in enumerate(self.spans)
            if parent < 0)
        return {"busy": busy, "cli_self_ms": cli_self}

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counters": dict(self.counters)}, handle)
