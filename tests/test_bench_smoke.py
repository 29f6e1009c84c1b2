"""The benchmark's shortest run passes its own output checks.

One round of each workload learns (and, for ``grid-pipeline``, evaluates
through the CLI) and checks every output against the benchmark's oracle, so
a change that breaks those checks fails here rather than only in a
benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["grid-pipeline", "voltages-only"])
def test_one_round_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
