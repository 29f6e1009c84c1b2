"""Benchmark of the reslearn pipeline: generate -> learn -> eval.

Usage, from the root of a checkout::

    python3 bench/run.py --workload grid-pipeline --seed 0 --seconds 50 \\
        --trace 0

One process, one job at a time (a closed loop with one client).  Inputs come
from ``--seed``; the program is imported from ``src/`` of the checkout.  The
run sets up ``SETUP_REPEATS`` times, then runs a number of rounds fixed by
``--seconds``, one job on each of the workload's input seeds per round,
checking every job's outputs; each job starts with a fixed calibration
kernel, and stage times are reported at the reference speed that it
defines (see ``speed_scaled``).  With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones, measured by wrapping the package's
functions (see ``tracer.py``).  The first line of standard output holds
provenance and the raw samples, then a table of the metrics follows, and the
last line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Tracer, installed, layer_metrics, stage_breakdown

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
STAGES = ("generate", "learn", "eval")
# The calibration kernel: CALIBRATION_SOLVES conjugate-gradient solves of
# CALIBRATION_ITERATIONS iterations each on a CALIBRATION_SIDE-square grid.
CALIBRATION_SIDE = 40
CALIBRATION_ITERATIONS = 100
CALIBRATION_SOLVES = 60
# Seconds that the calibration figure is scaled to (`speed_scaled`): about
# the kernel's fastest time on the two-CPU virtual machine the baseline was
# recorded on, so stage figures read as seconds there.
REFERENCE_CALIBRATION_S = 0.15


def _blas_threads():
    """Pin BLAS/OpenMP threads to ``RESLEARN_THREADS`` (default 1), capped at
    the CPUs this process may use; must run before numpy is imported.

    One thread is the default because on a shared two-CPU machine the same
    Laplacian solve varied 12% between 5-second blocks with two BLAS threads
    and 2% with one.
    """
    cpus = len(os.sched_getaffinity(0))
    threads = max(1, min(int(os.environ.get("RESLEARN_THREADS", 1)), cpus))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _fresh_import_seconds():
    """Wall time of a new interpreter importing reslearn."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import reslearn"], env=env,
                   cwd=ROOT, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _provenance(args, threads, workload):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {"commit": _git_commit(), "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": threads,
            "RESLEARN_THREADS": os.environ.get("RESLEARN_THREADS"),
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "sizes": workload.sizes}


def _trace_overhead(relearn):
    """Traced over untraced time of the learn stage, both repeated warm on
    the job's input in the order untraced, traced, traced, untraced so that
    a drift in machine speed cancels."""
    seconds = {False: 0.0, True: 0.0}
    for traced in (False, True, True, False):
        with installed(Tracer()) if traced else contextlib.nullcontext():
            tick = time.perf_counter()
            relearn()
            seconds[traced] += time.perf_counter() - tick
    return seconds[True] / seconds[False]


def stage_runner(tracer, repeats):
    """``(stage, seconds)``: ``stage(name, fn)`` runs ``fn`` ``repeats[name]``
    times (once if absent), each inside a ``stage.<name>`` span, and returns
    the last result; ``seconds[name]`` is the fastest of the runs.

    The fastest run, not the median: a shared two-CPU virtual machine was
    seen to switch between two speeds about 1.5x apart for seconds to
    minutes at a time.  Among many sub-second runs spread over a job the
    fastest almost always ran at the higher speed, while the median follows
    the share of time spent at the lower one."""
    seconds = {}

    def stage(name, fn):
        runs = []
        for _ in range(repeats.get(name, 1)):
            with tracer.span(f"stage.{name}") as span:
                result = fn()
            runs.append(span.seconds)
        seconds[name] = min(runs)
        return result

    return stage, seconds


def _job(workload, inputs, seed, traced, overhead, workdir, calibrate):
    """One checked job after one run of the calibration kernel; returns its
    sample (calibration and stage seconds, and per-layer metrics when
    traced) and its outcome."""
    tracer = Tracer()
    stage, seconds = stage_runner(tracer, {} if traced else workload.repeats)
    jobdir = tempfile.mkdtemp(dir=workdir)
    try:
        calibration_s = calibrate()
        with installed(tracer) if traced else contextlib.nullcontext():
            outcome = workload.job(inputs, seed, stage, tracer.span, jobdir)
        sample = {f"{s}_s": seconds[s] for s in STAGES}
        sample["calibration_s"] = calibration_s
        if traced:
            sample.update(layer_metrics(tracer.spans))
        if overhead:
            sample["trace_overhead"] = _trace_overhead(outcome.relearn)
        if traced:
            sample["breakdown"] = stage_breakdown(tracer.spans)
    finally:
        shutil.rmtree(jobdir, ignore_errors=True)
    return sample, outcome


def calibration_kernel():
    """A callable that runs a fixed computation and returns its seconds.

    The work is sparse matrix-vector products and vector updates, like the
    program's solves and eigensolves, but built from scipy alone on a
    shifted grid Laplacian, so no change to reslearn changes it.  Every
    solve runs exactly ``CALIBRATION_ITERATIONS`` iterations (no tolerance
    is ever met), and one call takes 0.15-0.3 s, about as long as one
    stage run.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    side = CALIBRATION_SIDE
    path = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
    eye = sp.identity(side)
    matrix = (sp.kron(eye, path) + sp.kron(path, eye)
              + 1e-3 * sp.identity(side * side)).tocsr()
    rhs = np.ones(side * side)

    def run():
        tick = time.perf_counter()
        for _ in range(CALIBRATION_SOLVES):
            spla.cg(matrix, rhs, rtol=0.0, atol=0.0,
                    maxiter=CALIBRATION_ITERATIONS)
        return time.perf_counter() - tick

    return run


def speed_scaled(seconds, calibration):
    """``seconds`` at the reference speed: scaled by
    ``REFERENCE_CALIBRATION_S`` over ``calibration``, the calibration
    kernel's figure of the same run.

    A shared two-CPU virtual machine was seen to run the same work up to
    1.7x slower for whole minutes, so that even the fastest of an input's
    rounds moved with the minute a run fell in.  The kernel runs before
    every job and its figure is taken like a stage's (``best_per_input``),
    so it slows with the machine as the stages do (in a trial, five runs of
    voltages-only spread 0.07 in scaled learn time and 0.15 in raw).  The
    kernel's work is fixed, so a change to the program moves the scaled
    figure by the same factor as the raw one.
    """
    return seconds * REFERENCE_CALIBRATION_S / calibration


def rounds_for(seconds, round_seconds):
    """Rounds in a run of ``seconds``: one per ``round_seconds``, the
    workload's nominal time of a round, and at least one.  The count follows
    ``seconds`` alone, never a measured time, so every commit runs the same
    work."""
    return max(1, round(seconds / round_seconds))


def _run_rounds(workload, inputs, seed, seconds, traced, workdir):
    """Run ``rounds_for(seconds, workload.round_seconds)`` rounds of one job
    on each of the workload's input seeds, the same seeds in the same order
    each round.

    Returns the samples of all jobs, the quality of each input seed, and the
    job counts.
    """
    seeds = [seed * workload.inputs_per_round + j
             for j in range(workload.inputs_per_round)]
    jobs, quality = [], {}
    calibrate = calibration_kernel()
    attempted = failed = 0
    for _ in range(rounds_for(seconds, workload.round_seconds)):
        for job_seed in seeds:
            attempted += 1
            try:
                sample, outcome = _job(workload, inputs, job_seed, traced,
                                       traced and not jobs, workdir,
                                       calibrate)
            except Exception:  # a failed job is counted, reported, survived
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            quality.setdefault(job_seed, outcome.quality)
            sample["seed"] = job_seed
            jobs.append(sample)
    return jobs, quality, attempted, failed


def best_per_input(jobs, key):
    """Each input seed's fastest ``key`` over the rounds, averaged over the
    input seeds.

    Rounds repeat the same inputs spread over the whole run, so the fastest
    of an input's runs is the one least slowed by the machine (a shared
    virtual machine was seen to change speed by up to 1.8x from one second
    to the next and to hold either speed for seconds); the mean over inputs
    keeps every input's work in the figure.
    """
    by_seed = {}
    for job in jobs:
        by_seed.setdefault(job["seed"], []).append(job[key])
    return statistics.fmean(min(runs) for runs in by_seed.values())


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    if not (SRC / "reslearn" / "__init__.py").is_file():
        print(f"bench: no reslearn sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    args = _parse_args(argv, names)
    threads = _blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        setup_samples = []
        for i in range(SETUP_REPEATS):
            import_s = _fresh_import_seconds()
            tick = time.perf_counter()
            setupdir = os.path.join(workdir, f"setup{i}")
            os.mkdir(setupdir)
            inputs = workload.setup(args.seed, setupdir)
            setup_samples.append(import_s + time.perf_counter() - tick)
        inputs.update(workload.reference(inputs, args.seed))
        jobs, quality, attempted, failed = _run_rounds(
            workload, inputs, args.seed, args.seconds, args.trace == 1,
            workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"provenance": _provenance(args, threads, workload),
              "setup_s": setup_samples, "jobs": jobs, "quality": quality}
    print(json.dumps(detail, sort_keys=True))
    if not jobs:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    mean_quality = {key: statistics.fmean(q[key] for q in quality.values())
                    for key in ("pearson", "edges_per_node",
                                "spectrum_err_max")}
    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: statistics.fmean(j[m["name"]] for j in jobs)
                  for m in wanted
                  if m["name"] in jobs[0] and m["name"] != "trace_overhead"}
        values["trace_overhead"] = jobs[0]["trace_overhead"]
        values["metrics.spectrum_err_max"] = mean_quality["spectrum_err_max"]
    else:
        wanted = spec["end_to_end"]
        calibration = best_per_input(jobs, "calibration_s")
        values = {f"{s}_s": speed_scaled(best_per_input(jobs, f"{s}_s"),
                                         calibration) for s in STAGES}
        values.update(
            total_s=sum(values[f"{s}_s"] for s in STAGES),
            setup_s=statistics.median(setup_samples),
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            pearson=mean_quality["pearson"],
            edges_per_node=mean_quality["edges_per_node"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:45s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
