"""The byte-identity tool: a checkout against itself, and against a changed copy."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "same_outputs.py")


def _compare(parent, change):
    return subprocess.run([sys.executable, SCRIPT, parent, change, "--tiny", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)


def test_a_checkout_matches_itself():
    result = _compare(ROOT, ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].endswith(", 0 differ")


def test_a_changed_report_is_named(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, part), tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "gtue" / "cli.py"
    text = cli.read_text()
    assert "json.dumps(document, indent=2)" in text
    cli.write_text(text.replace("json.dumps(document, indent=2)", "json.dumps(document)"))
    result = _compare(ROOT, str(tmp_path))
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    assert any(line.startswith("differs: eval-float seed 1 #0 ") for line in lines)
    assert not lines[-1].endswith(", 0 differ")
