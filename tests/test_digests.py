"""Pinned output digests: ``learn``, ``eigensolve_smallest``,
``generate_jl_measurements``, ``subsample_nodes`` and the CLI pipeline
reproduce their pinned bits.

Each digest is the first 12 hex digits of a sha256.  Floating-point bits
depend on the numpy and scipy builds, so these tests run only on the
versions the digests were pinned on and skip elsewhere.  A change that
moves the outputs on purpose re-pins them here and says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest
import scipy

from reslearn.cli import main
from reslearn.graphs import WeightedGraph, grid_graph
from reslearn.io import write_graph_mtx
from reslearn.learner import learn
from reslearn.measurements import (generate_jl_measurements,
                                   generate_measurement_set, subsample_nodes)
from reslearn.spectral import eigensolve_smallest

PINNED_ON = ("2.4.6", "1.17.1")
pytestmark = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != PINNED_ON,
    reason="output digests are pinned on numpy {} and scipy {}".format(
        *PINNED_ON))


def digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:12]


def learn_digest(X, Y):
    """X, then the learned sources, targets and weights, then the ``s_max``
    history, each as its raw bytes."""
    g, trace = learn(X, Y)
    return digest(*(a.tobytes() for a in (X, g.sources, g.targets,
                                          g.weights, trace.s_max_history)))


@pytest.mark.parametrize("seed, expected", enumerate(
    ["3cdabcdb4dd1", "f68788f1c169", "eee9069d9702"]))
def test_learn_with_currents(seed, expected):
    X, Y = generate_measurement_set(grid_graph(45, 45), 8, seed)
    assert learn_digest(X, Y) == expected


@pytest.mark.parametrize("seed, expected", enumerate(
    ["e6da3a19a151", "3b7afc1f613d", "d9999146bdb1", "d8dc6cf38482",
     "89c737d51d2c", "4d69b5c1c5f6"]))
def test_learn_from_voltages(seed, expected):
    X = generate_measurement_set(grid_graph(40, 40), 50, seed)[0]
    assert learn_digest(X, None) == expected


@pytest.mark.parametrize("seed, expected", enumerate(
    ["8b2a6166cb5a", "a50d2e6a3c38", "a3e0f86bacbc"]))
def test_subsample_nodes(seed, expected):
    # the kept indices, then the reduced X
    X = generate_measurement_set(grid_graph(40, 40), 50, 0)[0]
    X_kept, idx = subsample_nodes(X, 0.2, seed)
    assert digest(idx.tobytes(), X_kept.tobytes()) == expected


@pytest.mark.parametrize("side, count, expected", [
    (9, 5, "399dbbe158e4"),    # dense: N <= DENSE_EIG_LIMIT
    (9, 60, "2476918da798"),   # dense: count > N // 2
    (40, 10, "8979dc829f54"),  # Lanczos
])
def test_eigensolve_smallest(side, count, expected):
    # lam, then u, on a grid with lognormal weights in canonical edge order
    g = grid_graph(side, side)
    w = np.random.default_rng(0).lognormal(0, 1, g.edge_count)
    lam, u = eigensolve_smallest(
        WeightedGraph(g.node_count, g.sources, g.targets, w), count)
    assert digest(lam.tobytes(), u.tobytes()) == expected


def test_generate_jl_measurements():
    # X, then Y
    X, Y = generate_jl_measurements(grid_graph(12, 12), 0.5, 0)
    assert digest(X.tobytes(), Y.tobytes()) == "d6e3c58a49b9"


def test_cli_pipeline(tmp_path):
    # generate, learn with currents, then eval, on the 45x45 grid
    truth = tmp_path / "truth.mtx"
    write_graph_mtx(truth, grid_graph(45, 45))
    gen, run, report = (tmp_path / name for name in ("gen", "run", "report"))
    assert main(["generate", str(truth), "--m", "8", "--seed", "0",
                 "--out", str(gen)]) == 0
    assert main(["learn", str(gen / "X.bin"), str(gen / "Y.bin"),
                 "--out", str(run)]) == 0
    assert main(["eval", str(truth), str(run / "learned.mtx"),
                 "--pairs", "4", "--spectrum-k", "10", "--seed", "0",
                 "--out", str(report)]) == 0
    expected = {
        gen / "X.bin": "0f2312419fb6",
        gen / "Y.bin": "4449afc84bb2",
        run / "learned.mtx": "88f7770c4ded",
        run / "trace.csv": "875c9c9251f5",
        report / "spectra.csv": "c3c31b6c91fe",
        report / "resistance_scatter.csv": "4cc83b2d93b0",
        report / "layout_true.csv": "a5d0424a9a71",
        report / "layout_learned.csv": "efea23c246f9",
    }
    got = {path: digest(path.read_bytes()) for path in expected}
    assert got == expected
