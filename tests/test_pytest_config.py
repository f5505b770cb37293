"""The pytest configuration in ``pyproject.toml``: a warning fails its test,
and a failing Hypothesis example is reported without ending the run."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SAMPLE = '''
import warnings

from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails_with_an_example(x):
    assert x < 0


def test_warns():
    warnings.warn("a warning from the tested code", DeprecationWarning)


def test_passes():
    pass
'''


def test_a_failing_example_does_not_end_the_run(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "2 failed, 1 passed" in out
    assert "FAILED test_sample.py::test_warns - DeprecationWarning" in out
