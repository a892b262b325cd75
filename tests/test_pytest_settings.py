"""The suite's pytest settings in pyproject.toml, run on a throwaway test
file in a subprocess."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

ONE_FAILING_PROPERTY_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # warnings are errors, and a failing @given test makes the hypothesis
    # plugin import its patch writer, whose imports warn
    (tmp_path / "test_property.py").write_text(ONE_FAILING_PROPERTY_TEST, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example: test_fails(" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
