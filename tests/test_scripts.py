"""Smoke tests for the runnable files under scripts/: each still runs to the
end against the current engine."""

import io
import subprocess
import sys
from pathlib import Path

import pytest

from relang.shell import run as shell_run

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
# what scripts/library.rl prints in each format, and its snapshot, as
# committed text: an order change that hit a first run and a reload alike
# shows here
EXPECTED = Path(__file__).resolve().parent / "expected"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = shell_run(argv, stdin=io.StringIO(), stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def test_library_script_survives_a_save_and_load(tmp_path):
    snap = tmp_path / "library.snap"
    out = _run([str(SCRIPTS / "library.rl"), "--format", "sexpr", "--save", str(snap)])
    assert '({"Dawkins" "The Selfish Gene"})' in out.split("\n")
    # the loaded snapshot saves to the same bytes and prints every output
    # statement of the script (one a line) as the first run did
    assert _run(["--db", str(snap), "--dump"]) == snap.read_text()
    outputs = [
        line for line in (SCRIPTS / "library.rl").read_text().splitlines() if line.startswith("output ")
    ]
    assert len(outputs) == len(out.splitlines()) == 5
    reloaded = _run(["--db", str(snap), "--format", "sexpr", "-e", " ".join(outputs)])
    assert reloaded == out


@pytest.mark.parametrize("fmt", ["sexpr", "csv", "tabular"])
def test_library_script_prints_its_committed_text(fmt):
    assert _run([str(SCRIPTS / "library.rl"), "--format", fmt]) == (EXPECTED / f"library.{fmt}").read_text(encoding="utf-8")


def test_library_script_dumps_its_committed_snapshot():
    printed = (EXPECTED / "library.sexpr").read_text(encoding="utf-8")
    assert _run([str(SCRIPTS / "library.rl"), "--format", "sexpr", "--dump"]) == printed + (EXPECTED / "library.snapshot").read_text(encoding="utf-8")


def test_join_elimination_experiment_agrees_with_brute_force():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "join_elimination_experiment.py"), "3", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "engine == brute force on all" in done.stdout
