"""Every benchmark probe names a function the package has.

The benchmark's tracer skips a probe whose target it cannot find, and that
probe's per-layer metrics then read 0.  A refactor that renames or moves a
probed function fails here instead.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# Probes of functions the package deleted; the benchmark still lists them
# until its own revision drops them.
DELETED = {"graphs.build_laplacian", "metrics.layout_coordinates"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_only_deleted_functions_lack_a_probe_target():
    tracer = _load_tracer()
    missing = {probe.name for probe in tracer.PROBES
               if tracer._resolve(probe) is None}
    assert missing == DELETED
