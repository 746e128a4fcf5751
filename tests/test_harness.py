"""The test run itself: a failing test must not hide the tests after it."""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_next():
    pass
"""


def test_failing_property_does_not_stop_the_session(tmp_path):
    # runs under the project's own pytest settings, warning filters included
    (tmp_path / "test_throwaway.py").write_text(_FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(_PYPROJECT), "--rootdir", str(tmp_path), "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout + out.stderr
    assert out.returncode == 1, out.stdout
    assert "1 failed, 1 passed" in out.stdout, out.stdout
