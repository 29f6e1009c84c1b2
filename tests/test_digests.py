"""Pinned output digests: ``learn``, ``eigensolve_smallest``,
``generate_jl_measurements``, ``subsample_nodes``, ``simulate_voltages``,
``effective_resistance``, ``read_graph_mtx`` and the CLI pipeline reproduce
their pinned bits.

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
from reslearn.graphs import WeightedGraph, effective_resistance, grid_graph
from reslearn.io import read_graph_mtx, write_graph_mtx
from reslearn.learner import learn
from reslearn.measurements import (generate_currents,
                                   generate_jl_measurements,
                                   generate_measurement_set,
                                   simulate_voltages, subsample_nodes)
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


def lognormal_grid(side):
    """A grid with lognormal weights in canonical edge order."""
    g = grid_graph(side, side)
    w = np.random.default_rng(0).lognormal(0, 1, g.edge_count)
    return WeightedGraph(g.node_count, g.sources, g.targets, w)


@pytest.mark.parametrize("seed, expected", enumerate(
    ["64ff0a769445", "044be679f65a", "c96d6152a15f"]))
def test_learn_with_currents(seed, expected):
    X, Y = generate_measurement_set(grid_graph(45, 45), 8, seed)
    assert learn_digest(X, Y) == expected


@pytest.mark.parametrize("seed, expected", enumerate(
    ["ca0342317ad2", "12f65021c214", "0c3572027c68", "dc86bd506fee",
     "c4acb82a1a1d", "60b621c7ea17"]))
def test_learn_from_voltages(seed, expected):
    X = generate_measurement_set(grid_graph(40, 40), 50, seed)[0]
    assert learn_digest(X, None) == expected


@pytest.mark.parametrize("seed, expected", enumerate(
    ["ec47593a4a63", "21ef6570011c", "36214c5d3902"]))
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
    # lam, then u, on a grid with lognormal weights
    lam, u = eigensolve_smallest(lognormal_grid(side), count)
    assert digest(lam.tobytes(), u.tobytes()) == expected


def test_simulate_voltages():
    X = simulate_voltages(grid_graph(45, 45), generate_currents(2025, 8, 0))
    assert digest(X.tobytes()) == "6d5e56cf2299"


def test_effective_resistance():
    r = effective_resistance(grid_graph(45, 45), [0, 0, 22, 100],
                             [2024, 44, 1012, 1900])
    assert digest(r.tobytes()) == "4e9ecb6b8985"


def test_read_graph_mtx(tmp_path):
    # sources, targets, then weights, read back from symmetric storage
    path = tmp_path / "g.mtx"
    write_graph_mtx(path, lognormal_grid(45))
    g = read_graph_mtx(path)
    assert digest(g.sources.tobytes(), g.targets.tobytes(),
                  g.weights.tobytes()) == "a873a35f6bf0"


def test_generate_jl_measurements():
    # X, then Y
    X, Y = generate_jl_measurements(grid_graph(12, 12), 0.5, 0)
    assert digest(X.tobytes(), Y.tobytes()) == "aa978f297629"


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
        gen / "X.bin": "95c94fe5afe9",
        gen / "Y.bin": "4449afc84bb2",
        run / "learned.mtx": "9e6b5597d518",
        run / "trace.csv": "d4a03d79e47b",
        report / "spectra.csv": "c9c3e234761a",
        report / "resistance_scatter.csv": "53379794a556",
        report / "layout_true.csv": "a5d0424a9a71",
        report / "layout_learned.csv": "2cf7f140dc89",
    }
    got = {path: digest(path.read_bytes()) for path in expected}
    assert got == expected
