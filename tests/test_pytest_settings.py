"""The suite's own pytest settings, checked in a child pytest session."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 3


def test_after():
    pass
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # Reporting a failing example makes hypothesis import libcst, which warns
    # a DeprecationWarning; the settings must let it through so the session
    # reports the example and runs the next test.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    config = os.path.join(ROOT, "pyproject.toml")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", config, "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = child.stdout + child.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
