"""The pytest configuration itself: a failing property test is reported as
one failure and the rest of the session still runs."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # on failure hypothesis's plugin may import libcst, whose deprecation
    # warning the config's filterwarnings = error would turn into an INTERNALERROR
    (tmp_path / "test_property.py").write_text(ONE_FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in proc.stdout, output
    assert "INTERNALERROR" not in output
