"""The suite's warning filter: a warning the program raises fails its test,
and a failing Hypothesis property is reported without ending the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

MODULE = '''
import numpy as np
from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(x):
    assert x < 10


def test_passing():
    pass


def test_runtime_warning():
    np.float64(1e308) * 10
'''


def test_failing_property_does_not_stop_the_run(tmp_path):
    # Reporting a failing property imports mypy_extensions, whose
    # deprecated TypedDict, as an error, ended the run before test_passing.
    module = tmp_path / "test_module.py"
    module.write_text(MODULE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", str(module)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout.splitlines()[-1]
