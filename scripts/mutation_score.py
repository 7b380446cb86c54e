#!/usr/bin/env python3
"""Mutation score of modules of src/gtue: the share of one-site mutants the tests kill.

A mutant changes one operator at one site of the module's syntax tree:
``<``/``<=`` and ``>``/``>=`` swap, as do ``==``/``!=``, ``is``/``is not``
and ``in``/``not in`` in comparisons, and ``+``/``-`` in arithmetic, where
``*`` becomes ``+`` (DeMillo, Lipton & Sayward, 1978).  Each mutant is
written with ``ast.unparse`` into a temporary copy of the checkout's
``src/`` and ``tests/``, and the module's tests run there with ``-x``,
Hypothesis derandomized and without its example database, and the cache
off; the checkout itself is only read.  A mutant is killed when the tests
fail or run past ``TIMEOUT`` seconds, and survives when they pass.  The
unmutated module, unparsed the same way, must pass first.

Usage: python scripts/mutation_score.py [--root DIR] [--module audit ...]
                                        [--tests tests/test_x.py ...]

Without ``--module`` it scores audit, credal, oracle and xreal, each
against its own test files (``TESTS``); ``--tests`` replaces them for
every module.
It prints one line per mutant, then each module's score.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 300  # seconds; a test run past it kills its mutant
TESTS = {
    "audit": ["tests/test_audit.py", "tests/test_audit_golden.py"],
    "credal": ["tests/test_credal.py", "tests/test_audit.py"],
    "oracle": ["tests/test_oracle.py", "tests/test_cli.py"],
    # Variables, processes and JSON tables reach xreal's table normaliser.
    "xreal": ["tests/test_xreal.py", "tests/test_canonical_results.py",
              "tests/test_audit_golden.py", "tests/test_tree.py", "tests/test_process.py",
              "tests/test_jsonio.py"],
}
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
# Loaded with -p in every test run: the same examples each run, none saved.
PROFILE = """from hypothesis import settings
settings.register_profile("mutation", derandomize=True, database=None)
settings.load_profile("mutation")
"""


def sites(tree) -> list:
    """(node, op index or None, line) of every mutable operator, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, i, node.lineno) for i, op in enumerate(node.ops)
                      if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, None, node.lineno))
    return sorted(found, key=lambda site: (site[2], site[0].col_offset, site[1] or 0))


def mutant(source: str, index: int) -> tuple:
    """(mutated source, 'old -> new', line) for the site ``index`` of ``sites``."""
    tree = ast.parse(source)
    node, op_index, line = sites(tree)[index]
    if op_index is None:
        old = type(node.op)
        node.op = SWAPS[old]()
    else:
        old = type(node.ops[op_index])
        node.ops[op_index] = SWAPS[old]()
    return ast.unparse(tree), f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}", line


def run_tests(work: str, tests: list) -> str:
    """'passed', 'failed' or 'timeout' for the tests in the copy at ``work``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(work, "src"), work]),
               PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-p", "mutation_profile", *tests]
    try:
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def score(root: str, module: str, tests: list) -> tuple:
    """(killed, total) for the module's mutants, printing one line per mutant."""
    with open(os.path.join(root, "src", "gtue", f"{module}.py"), encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines()
    count = len(sites(ast.parse(source)))
    with tempfile.TemporaryDirectory(prefix="mutation-") as work:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(root, part), os.path.join(work, part), ignore=ignore)
        shutil.copy(os.path.join(root, "pyproject.toml"), work)
        with open(os.path.join(work, "mutation_profile.py"), "w", encoding="utf-8") as handle:
            handle.write(PROFILE)
        target = os.path.join(work, "src", "gtue", f"{module}.py")

        def write(text):
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)

        write(ast.unparse(ast.parse(source)))
        if run_tests(work, tests) != "passed":
            sys.exit(f"{module}: the tests fail on the unmutated module")
        killed = 0
        for index in range(count):
            text, change, line = mutant(source, index)
            write(text)
            outcome = run_tests(work, tests)
            killed += outcome != "passed"
            verdict = "survived" if outcome == "passed" else f"killed ({outcome})"
            print(f"{module}.py:{line}: {change}: {verdict}: {lines[line - 1].strip()}",
                  flush=True)
    return killed, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="the checkout (default: this one)")
    parser.add_argument("--module", action="append", help="a module of src/gtue, repeatable")
    parser.add_argument("--tests", nargs="+", help="test files, relative to the root")
    args = parser.parse_args(argv)
    scores = {}
    for module in args.module or list(TESTS):
        tests = args.tests or TESTS.get(module)
        if not tests:
            parser.error(f"no test files known for {module}: give --tests")
        scores[module] = score(os.path.abspath(args.root), module, tests)
    for module, (killed, total) in scores.items():
        print(f"{module}: {killed} of {total} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
