"""Record a baseline: every workload at one seed, untraced and traced.

Run from the root of the repository::

    python3 bench/baseline.py --seed 0 --out bench/BENCH_seed.json

Each workload is run twice through ``run.py`` in a fresh process, once with
``--trace 0`` and once with ``--trace 1``, for ``run_seconds`` of
``BENCHMARK.json``.  The file keeps both results, the provenance, quality
and raw samples, the traced per-stage breakdown of self seconds, and the
shares that show what each workload spends its time on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def _shares(traced_detail, traced_result):
    """Shares of the traced time, medians over the traced jobs."""
    jobs = traced_detail["jobs"]
    metrics = traced_result["metrics"]

    def learn_kernels(job):
        learn = job["breakdown"]["learn"]
        return (learn.get("learner.init_graph", 0.0)
                + learn.get("spectral.eigensolve_smallest", 0.0)) \
            / job["learn_s"]

    return {"solve_share_of_total":
                metrics["spectral.solve_laplacian.share"]["value"],
            "init_graph_plus_eigensolve_share_of_learn":
                statistics.median(learn_kernels(j) for j in jobs),
            "edge_scale_share_of_learn":
                statistics.median(j["learner.edge_scale.incl_s"]
                                  / j["learn_s"] for j in jobs)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {"seed": args.seed, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        detail, result = _run(workload, args.seed, spec["run_seconds"], 0)
        traced_detail, traced = _run(workload, args.seed,
                                     spec["run_seconds"], 1)
        record["workloads"][workload] = {
            "end_to_end": result, "per_layer": traced,
            "shares": _shares(traced_detail, traced),
            "quality": detail["quality"],
            "provenance": detail["provenance"],
            "untraced": {"setup_s": detail["setup_s"],
                         "jobs": detail["jobs"]},
            "traced": {"setup_s": traced_detail["setup_s"],
                       "jobs": traced_detail["jobs"]},
        }
        print(workload, json.dumps(record["workloads"][workload]["shares"]),
              flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
