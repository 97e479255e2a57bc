"""The benchmark's self-test, as part of the suite: a change to the package
API that breaks the calls the benchmark makes fails here, not only when the
benchmark runs."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELFTEST = os.path.join(ROOT, "bench", "selftest.py")


@pytest.mark.skipif(not os.path.exists(SELFTEST),
                    reason="no bench/ in this tree")
def test_benchmark_selftest():
    done = subprocess.run([sys.executable, SELFTEST], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
