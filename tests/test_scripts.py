"""Smoke tests of the example scripts: each runs in a fresh process on the source tree."""

import importlib.util
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


def test_code_lines_counts_neither_docstrings_nor_comments_nor_blank_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source = ('"""A module\ndocstring."""\n\n# a comment\nx = 1  # and a comment\n'
              's = """a string\nof two lines"""\n\n\nclass C:\n    """Doc."""\n\n'
              '    def f(self):\n        return (1,\n                2)\n')
    # x = 1; both lines of s; class C; def f; both lines of the return
    assert module.code_lines(source) == 7
    proc = _run(ROOT / "scripts" / "code_lines.py")
    counts = {name: int(n) for name, n in (line.split() for line in proc.stdout.splitlines())}
    assert counts.pop("total") == sum(counts.values()) and "core.py" in counts
