#!/usr/bin/env python3
"""Check that two checkouts print the same thing on every benchmark op.

Each checkout runs in its own subprocess, which imports that checkout's
src/gtue and perfbench/workloads.py, builds every workload's ops at each
seed and replays each op once through ``gtue.cli.main``.  The ops of the
two checkouts are compared by (exit code, sha256 of stdout); the labels
of the ops that differ are printed, and the exit code is 1 if any do.

Usage: python scripts/same_outputs.py PARENT CHANGE [--seeds 1 9001] [--tiny]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Runs inside each checkout's subprocess: argv is root, workdir, tiny, seeds...
WORKER = r"""
import hashlib, io, json, os, shutil, sys
from contextlib import redirect_stderr, redirect_stdout
root, work, tiny, seeds = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import gtue.cli
from workloads import FULL, TINY, WORKLOADS
for name in sorted(WORKLOADS):
    for seed in map(int, seeds):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        for i, op in enumerate(WORKLOADS[name](seed, work, TINY if tiny else FULL)):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    code = gtue.cli.main(op.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:
                    code, out = -1, io.StringIO(type(exc).__name__)
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            print(json.dumps([f"{name} seed {seed} #{i} {op.label}", code, digest]))
"""


def outputs(root: str, work: str, seeds, tiny: bool) -> dict:
    """Op label -> [exit code, stdout digest] for one checkout."""
    argv = [sys.executable, "-B", "-c", WORKER, root, work, "1" if tiny else "0"] + seeds
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{root}: the replay failed\n{done.stderr}")
    return {label: result for label, *result in map(json.loads, done.stdout.splitlines())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", nargs="+", default=["1", "9001"])
    parser.add_argument("--tiny", action="store_true", help="the self-test's small instances")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        # One fixture directory for both, so the argv of an op is the same in each.
        work = os.path.join(scratch, "work")
        before, after = (outputs(os.path.abspath(root), work, args.seeds, args.tiny)
                         for root in (args.parent, args.change))
    differ = [label for label in {**before, **after} if before.get(label) != after.get(label)]
    for label in differ:
        print(f"differs: {label} {before.get(label)} -> {after.get(label)}")
    print(f"{len(before)} ops against {len(after)}, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
