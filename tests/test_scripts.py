"""Smoke tests of the example scripts: each runs in a fresh process on the source tree."""

import os
import pathlib
import subprocess
import sys

import pytest

import meanscape as ms

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _run(script: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)


def test_scripts_are_found():
    # an empty glob would leave the parametrized smoke test with nothing to run
    assert ROOT / "scripts" / "agm_convergence.py" in SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.name)
def test_script_exits_cleanly(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_agm_convergence_prints_the_compound_limit():
    proc = _run(ROOT / "scripts" / "agm_convergence.py")
    assert proc.returncode == 0, proc.stderr
    limit = repr(ms.make_agm()(1.0, 2.0))
    assert f"AGM(1, 2): limit = {limit} after " in proc.stdout
