"""Number text reads the same on every CPython the package supports.

``xreal.payload`` reads number text through the library's own parser, so
a text's payload, or its refusal, must not depend on the interpreter
(``Fraction(text)``'s grammar changed between 3.10 and 3.12).  The test
runs a fixed table of texts through ``gtue.xreal.payload`` under each
other CPython 3.10 or later it can start (``python3.N`` on the PATH and
the versions of a pyenv installation), with ``PYTHONPATH=src``, and
compares every answer with the running interpreter's.  The library is
stdlib-only, so those interpreters need no packages.
"""

import glob
import json
import os
import platform
import shutil
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TEXTS = [
    # Read by one Python version and refused by another through Fraction(text).
    "1_0", "1 /2", "1/ 2", "1_000.5", "1e1_0", "٣", "١/٢", "1e٣",
    # The grammar.
    "0", "-0", "+007", "1/2", "-3/6", "+10/4", ".5", "5.", "-2.5e-3", "1E5", "1e+05",
    "12.75E-2", f"{10**30}/{3**40}", " 3 ", "\t-1/3\n",
    # The infinities.
    "inf", "-inf", "+inf", "Infinity", "-Infinity", "--inf",
    # Refused everywhere.
    "", ".", "e5", "1e", "1.2.3", "1/2/3", "1/-2", "1/0", "0x10", "nan", "1.5j", "½",
]

PROBE = """
import json, sys
from gtue.xreal import payload
out = []
for text in json.loads(sys.stdin.read()):
    try:
        value = payload(text)
    except Exception as exc:
        out.append(["refused", type(exc).__name__])
    else:
        out.append([type(value).__name__, str(value)])
print(json.dumps(out))
"""

IDENTIFY = "import sys; print(sys.implementation.name, sys.version_info >= (3, 10), " \
           "sys.version.split()[0])"


def _run(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env,
                              **kwargs)
    except (OSError, subprocess.TimeoutExpired):
        return None


def _other_interpreters() -> dict:
    """Version -> executable, for each other CPython 3.10 or later that starts."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    pyenv = shutil.which("pyenv")
    if pyenv:
        done = _run([pyenv, "root"])
        if done is not None and done.returncode == 0 and done.stdout.strip():
            pattern = os.path.join(done.stdout.strip(), "versions", "*", "bin", "python3")
            candidates += sorted(glob.glob(pattern))
    found = {}
    for path in filter(None, candidates):
        done = _run([path, "-c", IDENTIFY])
        fields = done.stdout.split() if done is not None and done.returncode == 0 else []
        if fields[:2] == ["cpython", "True"] and fields[2] != platform.python_version():
            found.setdefault(fields[2], path)
    return found


def _answers(python) -> list:
    """The probe's answer for each text under one interpreter."""
    done = _run([python, "-c", PROBE], input=json.dumps(TEXTS))
    assert done is not None and done.returncode == 0, (python, done and done.stderr)
    return json.loads(done.stdout)


def test_number_text_reads_the_same_on_every_interpreter():
    others = _other_interpreters()
    if not others:
        pytest.skip("no other CPython 3.10 or later can be started here")
    expected = _answers(sys.executable)
    differ = {version: [(text, want, got) for text, want, got
                        in zip(TEXTS, expected, _answers(path)) if want != got]
              for version, path in sorted(others.items())}
    assert not any(differ.values()), (f"read unlike {platform.python_version()}", differ)
