"""The benchmark's workloads: what each one runs, and the checks on it.

Every job runs three stages, ``generate``, ``learn`` and ``eval``, each
through ``stage(name, fn)``, which the runner times.  Program calls go
through module attributes (``rl.learn``, ``cli.main``) at call time, so the
tracer's wrappers see them.  Everything after the stages (checks and
quality scores) uses the direct-solve oracle and the benchmark's own file
readers only, so it never enters a traced span.

A round of a run is one job on each of ``inputs_per_round`` distinct input
seeds.  How much work learning takes varies with the seed (the iteration
count does), so each round averages over several inputs.  A run repeats the
round, so each input's work is timed several times spread over the run; a
job is kept to a few seconds so that enough rounds fit (see ``run.py``).
"""

from __future__ import annotations

import contextlib
import io as _stdio
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
import reslearn as rl
import reslearn.io
from reslearn import cli

EDGES_PER_NODE_LIMIT = 2.0
RESIDUAL_LIMIT = 1e-8
RESISTANCE_REL_LIMIT = 1e-8
GOOD_STATUSES = ("converged", "candidate_pool_exhausted")
# Every learned graph is scored, and on grid-pipeline evaluated, on the same
# pair sample.
EVAL_PAIR_SEED = 0


class CheckFailed(Exception):
    """A program output failed one of the benchmark's correctness checks."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class JobOutcome:
    """Quality of one job, and a callable that repeats its learn stage on
    the same input (for trace overhead)."""

    quality: dict
    relearn: Callable[[], object]


def _no_span(name):
    return contextlib.nullcontext()


def _check_learned(n, s, t, w):
    """Shared checks on a learned graph given as edge arrays."""
    check(len(s) <= EDGES_PER_NODE_LIMIT * n,
          f"learned graph has {len(s)} edges on {n} nodes (limit 2N)")
    check(np.all(w > 0) and np.all(np.isfinite(w)),
          "learned weights must be finite and positive")
    check(oracle.component_count(n, s, t) == 1, "learned graph disconnected")


def _spectrum_error(lam_true, lam_learned, rescale=False):
    lam_true = np.asarray(lam_true, dtype=np.float64)
    lam_learned = np.asarray(lam_learned, dtype=np.float64)
    if rescale:
        lam_learned = lam_learned * math.exp(
            np.mean(np.log(lam_true / lam_learned)))
    return float(np.max(np.abs(lam_learned - lam_true) / lam_true))


def _read_matrix_bin(path):
    """The ``RESMAT01`` layout: magic, uint64 N, uint64 M, float64
    column-major data."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, n, m = struct.unpack_from("<8sQQ", raw)
    check(magic == b"RESMAT01", f"{path}: bad magic")
    check(len(raw) == 24 + 8 * n * m, f"{path}: wrong length")
    return np.frombuffer(raw, dtype="<f8", offset=24).reshape((n, m),
                                                              order="F")


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@dataclass
class _GridWorkload:
    """Sizes of a workload: a ``side`` x ``side`` unit grid, ``measurements``
    current columns, ``pairs`` resistance pairs scored by the oracle and
    ``spectrum_k`` compared eigenvalues."""

    side: int
    measurements: int = 50
    pairs: int = 200
    spectrum_k: int = 10

    @property
    def sizes(self):
        return {"grid": f"{self.side}x{self.side}", "nodes": self.side ** 2,
                "measurements": self.measurements, "pairs": self.pairs,
                "spectrum_k": self.spectrum_k}


@dataclass
class GridPipeline(_GridWorkload):
    """The CLI pipeline in-process on a unit grid: ``generate --m``, then
    ``learn X.bin Y.bin``, then ``eval --pairs --spectrum-k --seed 0``.

    The eval pair sample is the same for every workload seed, so eval cost
    varies only with the learned graph.  A 45 x 45 grid (N = 2025) is the
    smallest above both dense limits, and there every conjugate-gradient
    solve costs 50-100 ms, so 8 measurements and 4 eval pairs keep each
    stage under half a second and seven rounds of three inputs fit in one
    run.  Pearson r comes from the oracle on ``pairs`` fixed pairs, more
    than eval's, so that it measures the learned graph rather than a small
    sample.
    """

    side: int = 45
    measurements: int = 8
    eval_pairs: int = 4
    name = "grid-pipeline"
    inputs_per_round = 3
    # Nominal seconds of one round (see run.py).
    round_seconds = 7.0
    # Runs of each stage per job, the same on every commit (see run.py).
    repeats = {"generate": 1, "learn": 1, "eval": 1}

    @property
    def sizes(self):
        return dict(super().sizes, eval_pairs=self.eval_pairs)

    def setup(self, seed, workdir):
        truth = rl.grid_graph(self.side, self.side)
        path = os.path.join(workdir, "truth.mtx")
        reslearn.io.write_graph_mtx(path, truth)
        return {"truth": path}

    def reference(self, inputs, seed):
        n, s, t, w = oracle.read_mtx_edges(inputs["truth"])
        direct = oracle.GroundedLaplacian(n, s, t, w)
        pairs = oracle.sample_pairs(n, self.pairs, EVAL_PAIR_SEED)
        return {"n": n, "oracle": direct, "pairs": pairs,
                "r_true": direct.resistances(pairs)}

    def _cli(self, span, command, args):
        out, err = _stdio.StringIO(), _stdio.StringIO()
        with span(f"cli.{command}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main([command, *args])
        check(code == 0, f"reslearn {command} exited {code}: "
                         f"{err.getvalue().strip()}")

    def job(self, inputs, seed, stage, span, jobdir):
        meas, run, report = (os.path.join(jobdir, d)
                             for d in ("meas", "run", "report"))
        x_bin, y_bin = (os.path.join(meas, f) for f in ("X.bin", "Y.bin"))
        learned = os.path.join(run, "learned.mtx")

        def learn(span=_no_span):
            self._cli(span, "learn", [x_bin, y_bin, "--out", run])

        stage("generate", lambda: self._cli(
            span, "generate", [inputs["truth"], "--m", str(self.measurements),
                               "--seed", str(seed), "--out", meas]))
        stage("learn", lambda: learn(span))
        stage("eval", lambda: self._cli(
            span, "eval", [inputs["truth"], learned,
                           "--pairs", str(self.eval_pairs),
                           "--spectrum-k", str(self.spectrum_k),
                           "--seed", str(EVAL_PAIR_SEED), "--out", report]))

        truth = inputs["oracle"]
        n = inputs["n"]
        X, Y = _read_matrix_bin(x_bin), _read_matrix_bin(y_bin)
        check(X.shape == Y.shape == (n, self.measurements),
              f"X/Y shape {X.shape}")
        residual = truth.relative_residual(X, Y)
        check(residual <= RESIDUAL_LIMIT,
              f"generated X residual {residual:.3e}")

        ln, ls, lt, lw = oracle.read_mtx_edges(learned)
        check(ln == n, f"learned graph has {ln} nodes, expected {n}")
        _check_learned(n, ls, lt, lw)
        with open(os.path.join(run, "trace.csv"), encoding="utf-8") as fh:
            iterations = sum(1 for line in fh if line.strip()) - 1

        scatter = _read_csv(os.path.join(report, "resistance_scatter.csv"))
        check(len(scatter) == self.eval_pairs,
              f"{len(scatter)} scatter rows")
        pairs = scatter[:, :2].astype(np.int64)
        learned_oracle = oracle.GroundedLaplacian(n, ls, lt, lw)
        err = max(oracle.max_relative_error(scatter[:, 2],
                                            truth.resistances(pairs)),
                  oracle.max_relative_error(scatter[:, 3],
                                            learned_oracle.resistances(pairs)))
        check(err <= RESISTANCE_REL_LIMIT,
              f"resistance scatter differs from direct solve by {err:.3e}")
        spectra = _read_csv(os.path.join(report, "spectra.csv"))
        check(len(spectra) == self.spectrum_k, f"{len(spectra)} eigenvalues")

        r_learned = learned_oracle.resistances(inputs["pairs"])
        quality = {"pearson": oracle.pearson(inputs["r_true"], r_learned),
                   "spectrum_err_max": _spectrum_error(spectra[:, 1],
                                                       spectra[:, 2]),
                   "edges_per_node": len(ls) / n,
                   "iterations": iterations, "edges": len(ls)}
        return JobOutcome(quality, learn)


@dataclass
class VoltagesOnly(_GridWorkload):
    """``rl.learn(X, None)`` on a large grid from voltages alone.

    The benchmark draws the currents with ``rl.generate_currents`` and solves
    for ``X`` with its own direct factorization, so the program makes no
    Laplacian solve.  Eval compares the first eigenvalues; the learned
    weights carry an unknown global scale, so the learned spectrum is first
    rescaled by the geometric mean of the eigenvalue ratios.  Pearson r comes
    from the oracle's resistances on both graphs, on the same fixed pairs for
    every workload seed.

    A 40 x 40 grid keeps one learn near 0.3 s, so seven rounds of six
    inputs fit in one run; learning work varies more between inputs here
    (26-32 iterations) than on grid-pipeline, hence more inputs.
    """

    side: int = 40
    name = "voltages-only"
    inputs_per_round = 6
    # Nominal seconds of one round (see run.py).
    round_seconds = 7.0
    # Runs of each stage per job, the same on every commit (see run.py):
    # generate (a few ms) and eval (about 30 ms) repeat so that each job's
    # figure is the fastest of a tenth of a second or more of runs.
    repeats = {"generate": 40, "learn": 1, "eval": 5}

    def setup(self, seed, workdir):
        return {"truth": rl.grid_graph(self.side, self.side)}

    def reference(self, inputs, seed):
        truth = inputs["truth"]
        direct = oracle.GroundedLaplacian(truth.node_count, truth.sources,
                                          truth.targets, truth.weights)
        pairs = oracle.sample_pairs(truth.node_count, self.pairs,
                                    EVAL_PAIR_SEED)
        return {"oracle": direct, "pairs": pairs,
                "r_true": direct.resistances(pairs)}

    def job(self, inputs, seed, stage, span, jobdir):
        truth, direct = inputs["truth"], inputs["oracle"]
        n = truth.node_count
        Y = stage("generate", lambda: rl.generate_currents(
            n, self.measurements, seed))
        X = direct.solve(Y)

        def learn():
            return rl.learn(X, None)

        graph, trace = stage("learn", learn)
        lam_t, lam_l, _ = stage("eval", lambda: rl.compare_spectra(
            truth, graph, self.spectrum_k))

        residual = direct.relative_residual(X, Y)
        check(residual <= RESIDUAL_LIMIT,
              f"oracle X residual {residual:.3e}")
        check(trace.status in GOOD_STATUSES,
              f"learning stopped with status {trace.status!r}")
        check(graph.node_count == n, "learned graph lost nodes")
        s, t, w = graph.sources, graph.targets, graph.weights
        _check_learned(n, s, t, w)
        r_learned = oracle.GroundedLaplacian(n, s, t, w).resistances(
            inputs["pairs"])
        quality = {"pearson": oracle.pearson(inputs["r_true"], r_learned),
                   "spectrum_err_max": _spectrum_error(lam_t, lam_l,
                                                       rescale=True),
                   "edges_per_node": len(s) / n,
                   "iterations": trace.iterations, "edges": len(s)}
        return JobOutcome(quality, learn)


WORKLOADS = {w.name: w for w in (GridPipeline, VoltagesOnly)}
