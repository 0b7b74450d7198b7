"""The per-test time limit of ``conftest.py`` fails a test that runs past
its budget, by name, and gives ``extended`` tests none."""

import os
import subprocess
import sys
from pathlib import Path

import etskit

CONFTEST = Path(__file__).resolve().parent / "conftest.py"

TESTS = '''
import time

import pytest


@pytest.mark.time_limit(1)
def test_slow():
    time.sleep(30)


@pytest.mark.extended
@pytest.mark.time_limit(1)
def test_extended_slow():
    time.sleep(1.5)


def test_fast():
    pass
'''


def test_time_limit_fails_the_slow_test_by_name(tmp_path):
    (tmp_path / "conftest.py").write_text(CONFTEST.read_text())
    (tmp_path / "test_budget.py").write_text(TESTS)
    env = dict(os.environ, PYTHONPATH=str(Path(etskit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    out = proc.stdout
    assert proc.returncode == 1, out
    assert "test_budget.py::test_slow ran past its 1 s time limit" in out
    assert "1 failed, 2 passed" in out
