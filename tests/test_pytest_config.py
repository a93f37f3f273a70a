"""The suite's own pytest configuration."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_after_the_failing_property():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    """Under the repo's warning filters, a failing Hypothesis test is
    reported as a failure and the tests after it still run. Reporting the
    failure imports libcst, whose `mypy_extensions.TypedDict` warning the
    `error::DeprecationWarning` filter would turn into an INTERNALERROR
    that ends the session."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    env = dict(os.environ, HYPOTHESIS_STORAGE_DIRECTORY=str(tmp_path / "hypothesis"))
    out = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
                          "-p", "no:cacheprovider", "test_property.py"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
