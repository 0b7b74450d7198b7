"""The address-space limit of ``conftest.py`` fails a test that allocates
past it, by name, and lets the other tests pass."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import etskit
from conftest import TEST_MEMORY_LIMIT_MB, resource

CONFTEST = Path(__file__).resolve().parent / "conftest.py"
SMALL_CAP_MB = 128

TESTS = '''
def test_hoard():
    hoard = []  # still held when the limit is reached
    for _ in range(64):  # 1 GB
        hoard.append(bytearray(16 << 20))


def test_small():
    assert len(bytearray(16 << 20)) == 16 << 20
'''


@pytest.mark.skipif(resource is None, reason="no POSIX address-space limit")
def test_memory_limit_fails_the_hoarding_test_by_name(tmp_path):
    text = CONFTEST.read_text()
    line = f"TEST_MEMORY_LIMIT_MB = {TEST_MEMORY_LIMIT_MB}\n"
    assert text.count(line) == 1
    (tmp_path / "conftest.py").write_text(
        text.replace(line, f"TEST_MEMORY_LIMIT_MB = {SMALL_CAP_MB}\n")
    )
    (tmp_path / "test_hoard.py").write_text(TESTS)
    env = dict(os.environ, PYTHONPATH=str(Path(etskit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    out = proc.stdout
    assert proc.returncode == 1, out
    assert "FAILED test_hoard.py::test_hoard - MemoryError" in out
    assert "1 failed, 1 passed" in out
