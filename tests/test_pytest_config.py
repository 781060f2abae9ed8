"""The repository's pytest configuration reports a failing hypothesis test as one failure.

On a failure hypothesis imports libcst to suggest a patch, and libcst's
import warns; ``filterwarnings = ["error"]`` alone turns that warning into
an INTERNALERROR that aborts the session.  The child runs with plain
asserts and without pytest-benchmark, which keeps it near one second.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate])
@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-p", "no:benchmark", "--assert=plain", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1 and "1 failed" in proc.stdout
