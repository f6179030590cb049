"""The benchmark's own self-test, run as part of the suite.

A change that drops a function binding the benchmark's tracer wraps, or that
breaks one of the benchmark's output checks, fails here rather than only when
the benchmark itself is run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
