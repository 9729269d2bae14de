"""The benchmark's self-tests (bench/selftest.py) pass against src/.

They run every workload at minimum size, traced and untraced, and read
the SearchResult fields the benchmark uses, so a change to the program
that would make a benchmark run fail shows here.  Nothing but the
ignored bench/out/ is written."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
