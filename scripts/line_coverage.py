#!/usr/bin/env python3
"""Count the statements in src/gtue's function bodies that a test run never reaches.

Runs pytest in this process under a ``sys.settrace`` line tracer on the
files of src/gtue, then prints each module's unreached statements (by
first line) and their total.  A statement counts when its first line holds
bytecode, so docstrings do not.  Tests that run gtue in a subprocess
(``test_scripts.py``, ``test_same_outputs.py``) reach nothing here.
Hypothesis runs derandomized and without its example database, so two
runs at one commit give the same count.

Usage: python scripts/line_coverage.py [pytest arguments, e.g. tests/test_tree.py -q]
"""

import ast
import dis
import os
import sys

import pytest
from hypothesis import settings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gtue")


def statements(path: str) -> set:
    """First lines of the statements in function bodies that hold bytecode."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines = {node.lineno for function in ast.walk(ast.parse(source))
             if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
             for top in function.body for node in ast.walk(top) if isinstance(node, ast.stmt)}
    codes, with_bytecode = [compile(source, path, "exec")], set()
    while codes:
        code = codes.pop()
        with_bytecode.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_code"))
    return lines & with_bytecode


def main(argv) -> int:
    paths = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                   if name.endswith(".py"))
    reached = {path: set() for path in paths}

    def on_line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    # gtue from src/, here and in the subprocesses some tests start; the tests
    # package from the root, as under `python -m pytest`.
    src = os.path.dirname(PACKAGE)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    sys.path[:0] = [src, ROOT]
    settings.register_profile("line_coverage", derandomize=True, database=None)
    settings.load_profile("line_coverage")
    sys.settrace(lambda frame, event, arg:
                 on_line if frame.f_code.co_filename in reached else None)
    try:
        code = pytest.main(list(argv))
    finally:
        sys.settrace(None)
    missed = total = 0
    for path in paths:
        wanted = statements(path)
        unreached = sorted(wanted - reached[path])
        missed, total = missed + len(unreached), total + len(wanted)
        print(f"{os.path.relpath(path, ROOT)}: {len(unreached)} unreached "
              f"{', '.join(map(str, unreached))}".rstrip())
    print(f"total: {missed} of {total} statements unreached")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
