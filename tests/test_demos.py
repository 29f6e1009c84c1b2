"""Each demo script runs to completion against the package in ``src``."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env(**extra):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                **extra)


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_exits_zero(script, tmp_path):
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=_env(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_cli_pipeline_demo_exits_zero(tmp_path):
    # The demo calls the ``reslearn`` console script; a shim on PATH stands
    # in for it, so the package need not be installed.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "reslearn"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m reslearn.cli '
                    '"$@"\n')
    shim.chmod(0o755)
    path = os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])
    done = subprocess.run(["bash", str(ROOT / "demos" / "cli_pipeline.sh")],
                          cwd=tmp_path, env=_env(PATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in ("spectra.csv", "resistance_scatter.csv", "layout_true.csv",
                 "layout_learned.csv", "manifest.json"):
        assert name in done.stdout.split()
