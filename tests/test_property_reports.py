"""A failing property test is reported under the project's warning filters, and the tests after it still run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_failing_property_test_prints_its_example_and_the_run_goes_on(tmp_path):
    # Reporting the failure imports Hypothesis's patch writer, whose imports
    # warn; unless pyproject.toml ignores that warning, error::DeprecationWarning
    # ends the run with an INTERNALERROR before the example is printed or the
    # next test runs.
    (tmp_path / "test_report.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "test_report.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 passed" in output
