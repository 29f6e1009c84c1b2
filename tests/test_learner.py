import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reslearn
from reslearn.graphs import (
    WeightedGraph,
    grid_graph,
    is_connected,
)
from reslearn import graphs, learner
from reslearn.learner import (
    LearnConfig,
    _connectivity_repair,
    _knn_pairs,
    _knn_rows,
    _top_order,
    edge_scale,
    init_graph,
    learn,
    perturbation_estimate,
    score_candidates,
)
from reslearn.measurements import (
    generate_currents,
    generate_measurement_set,
    simulate_voltages,
    subsample_nodes,
)
from reslearn.metrics import resistance_correlation
from reslearn.spectral import (
    SpectralBasis,
    eigensolve_smallest,
    objective_value,
)

from _oracles import (
    brute_force_knn_distances,
    dense_eigenpairs,
    random_connected_graph,
)

# Relative slack between the k-d tree's squared distances and the oracle's;
# both sum the same squared differences, possibly in another order.
DISTANCE_RTOL = 1e-9


@st.composite
def knn_inputs(draw):
    """``(X, k)``: n in 2..60 rows of M in 1..8 columns on a coarse lattice
    (many tied distances) with a drawn spacing per column, some rows copied
    over others, and k in 1..n."""
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 8))
    X = draw(hnp.arrays(np.int8, (n, m), elements=st.integers(-3, 3)))
    spacing = draw(hnp.arrays(np.float64, m, elements=st.sampled_from(
        [1.0, 0.1, 0.37, 2.5, 1e3])))
    X = X * spacing
    rows = st.integers(0, n - 1)
    for src, dst in draw(st.lists(st.tuples(rows, rows), max_size=n // 2)):
        X[dst] = X[src]
    return X, draw(st.integers(1, n))


class TestKnnPairs:
    @settings(max_examples=100)
    @given(knn_inputs())
    def test_matches_brute_force_distances(self, case):
        X, k = case
        n = X.shape[0]
        k_eff = min(k, n - 1)
        nbr = _knn_rows(X, k)
        assert nbr.shape == (n, k_eff)
        nearest = brute_force_knn_distances(X, k_eff)
        for i in range(n):
            assert i not in nbr[i] and len(set(nbr[i])) == k_eff
            # Ties make the chosen rows ambiguous, so compare distances.
            d = np.sort(np.sum((X[nbr[i]] - X[i]) ** 2, axis=1))
            np.testing.assert_allclose(d, nearest[i], rtol=DISTANCE_RTOL,
                                       atol=0)
        s, t = _knn_pairs(X, k)
        assert s.dtype == t.dtype == np.int64
        assert np.all(np.diff(s * n + t) > 0)  # sorted, no duplicates
        union = {(min(i, j), max(i, j)) for i in range(n)
                 for j in nbr[i].tolist()}
        assert set(zip(s.tolist(), t.tolist())) == union

    @settings(max_examples=60)
    @given(knn_inputs())
    def test_init_graph_is_connected(self, case):
        X, k = case
        assume(np.ptp(X, axis=0).any())  # not every row identical
        g_o, tree = init_graph(X, k)
        assert is_connected(g_o)[0]
        assert tree.edge_count == X.shape[0] - 1
        knn = set(zip(*(a.tolist() for a in _knn_pairs(X, k))))
        assert knn <= set(zip(g_o.sources.tolist(), g_o.targets.tolist()))

    def test_duplicate_rows_keep_k_other_rows(self):
        # five identical rows: the query may return k + 1 copies without the
        # row itself; each row still gets exactly k other rows
        X = np.zeros((6, 2))
        X[5] = 1.0
        nbr = _knn_rows(X, 2)
        assert nbr.shape == (6, 2)
        assert not np.any(nbr == np.arange(6)[:, None])

    def test_connected_pairs_come_back_unchanged(self):
        X = np.array([[0.0], [1.0], [3.0]])
        s, t = np.array([0, 1]), np.array([1, 2])
        rs, rt = _connectivity_repair(X, s, t)
        assert rs is s and rt is t

    def test_import_leaves_scipy_spatial_unloaded(self):
        # the k-d tree is imported on first use and the file formats only
        # by the CLI, keeping ``import reslearn`` fast
        src = str(Path(reslearn.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, reslearn; print(sorted(m for m in ('scipy.spatial',"
             " 'scipy.io', 'reslearn.io') if m in sys.modules))"],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"


class TestInitGraph:
    def test_three_point_line(self):
        # rows at mutual squared distances 1, 4, 9 on a line
        X = np.array([[0.0], [1.0], [3.0]])
        g_o, tree = init_graph(X, k=1)
        assert [(s, t) for s, t, _ in g_o.edge_list()] == [(0, 1), (1, 2)]
        assert tree.edge_list() == g_o.edge_list()

    def test_weight_formula(self):
        # z_data = 4 with M = 50 columns gives weight 12.5
        X = np.zeros((2, 50))
        X[1, 0] = 2.0
        g_o, _ = init_graph(X, k=1)
        assert g_o.edge_list() == [(0, 1, 12.5)]

    def test_two_node_truth(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        ms = generate_measurement_set(g, 5, seed=0)
        g_o, tree = init_graph(ms.X, k=5)
        assert g_o.edge_count == 1
        assert tree.edge_list() == g_o.edge_list()

    def test_degenerate_rows_rejected(self):
        with pytest.raises(ValueError, match="all voltage rows identical"):
            init_graph(np.ones((5, 3)), k=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_voltages(self, bad):
        X = np.arange(12.0).reshape(4, 3)
        X[2, 1] = bad
        with pytest.raises(ValueError, match="X must be finite"):
            init_graph(X, k=2)

    @pytest.mark.parametrize("k", [0, -1, 2.5, True])
    def test_rejects_bad_k(self, k):
        X = np.arange(12.0).reshape(4, 3)
        with pytest.raises(ValueError, match="k must be"):
            init_graph(X, k)

    def test_connectivity_repair_bridges_closest_pair(self):
        # two tight clusters far apart; k=1 keeps each cluster internal
        X = np.array([[0.0], [0.1], [10.0], [10.12]])
        g_o, tree = init_graph(X, k=1)
        assert is_connected(g_o)[0]
        # the bridge must be the closest inter-cluster pair (1, 2)
        assert (1, 2) in {(s, t) for s, t, _ in g_o.edge_list()}
        assert tree.edge_count == 3

    def test_duplicate_rows_get_floored_weight(self):
        # pool distances 0, 1, 1, 4, 9, 9: the duplicate pair (0, 1) weighs
        # M / 1, as the closest distinct pair does, not M / median
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        g_o, tree = init_graph(X, k=3)
        weights = {(s, t): w for s, t, w in g_o.edge_list()}
        assert weights[(0, 1)] == 2.0 / 1.0
        assert weights[(0, 1)] == g_o.weights.max()
        assert (0, 1, 2.0) in tree.edge_list()

    def test_tiny_positive_distance_is_not_lifted(self):
        # z = 1e-14 lies below 1e-12 of the median pool distance; only a zero
        # is floored, so its weight stays M / z
        X = np.array([[0.0, 0.0], [1e-7, 0.0], [1.0, 1.0], [2.0, 0.0]])
        g_o, _ = init_graph(X, k=3)
        d = X[0] - X[1]
        weights = {(s, t): w for s, t, w in g_o.edge_list()}
        assert weights[(0, 1)] == 2.0 / float(d @ d)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_weight_is_refused_by_name(self):
        # z(0, 1) = 1e-320, a subnormal: the weight M / z overflows to inf
        X = np.array([[0.0, 0.0], [1e-160, 0.0], [1.0, 0.0], [3.0, 0.0]])
        with pytest.raises(ValueError, match="badly scaled measurements"):
            init_graph(X, k=3)
        with pytest.raises(ValueError, match="badly scaled measurements"):
            learn(X)


class TestScoreCandidates:
    def test_fixed_point_zero_sensitivity(self):
        # weight equal to M / z_data makes the edge's sensitivity vanish
        m = 4
        z_data = 0.8
        w = m / z_data
        g = WeightedGraph.from_edges(2, [(0, 1, w)])
        a = np.sqrt(z_data / (4 * m))
        X = np.tile([[a], [-a]], (1, m))  # each column [a, -a]
        basis = eigensolve_smallest(g, 1)
        cand = score_candidates(basis, X, [(0, 1)])[0]
        assert cand.z_data == pytest.approx(z_data)
        assert cand.z_emb == pytest.approx(1.0 / w)
        assert cand.sensitivity == pytest.approx(0.0, abs=1e-12)
        assert cand.distortion == pytest.approx(1.0)

    def test_arithmetic_from_definitions(self):
        # z_emb = 1/2, z_data = 10, M = 50 -> sensitivity 0.3, distortion 2.5
        basis = SpectralBasis(eigenvalues=np.array([2.0]),
                              eigenvectors=np.array([[1.0], [0.0]]))
        X = np.zeros((2, 50))
        X[0, 0] = np.sqrt(10.0)
        cand = score_candidates(basis, X, [(0, 1)])[0]
        assert cand.sensitivity == pytest.approx(0.3)
        assert cand.distortion == pytest.approx(2.5)

    def test_consistency_invariant(self):
        g = random_connected_graph(12, 14, seed=0)
        ms = generate_measurement_set(g, 8, seed=1)
        basis = eigensolve_smallest(g, 4)
        pairs = [(0, 5), (2, 9), (3, 4)]
        for cand in score_candidates(basis, ms.X, pairs):
            if cand.z_data > 0:
                assert cand.sensitivity == pytest.approx(
                    (cand.z_data / ms.X.shape[1]) * (cand.distortion - 1.0),
                    rel=1e-12)

    def test_sensitivity_underestimates_with_fewer_modes(self):
        g = random_connected_graph(20, 25, seed=3)
        ms = generate_measurement_set(g, 8, seed=3)
        pairs = [(0, 11), (4, 17), (2, 9)]
        prev = np.full(len(pairs), -np.inf)
        for modes in (2, 5, 10, 19):  # 19 = full spectrum
            basis = eigensolve_smallest(g, modes)
            scored = {(c.s, c.t): c.sensitivity
                      for c in score_candidates(basis, ms.X, pairs)}
            sens = np.asarray([scored[p] for p in pairs])
            assert np.all(sens >= prev - 1e-12)
            prev = sens

    def test_sorted_descending_with_tie_break(self):
        g = random_connected_graph(10, 10, seed=2)
        ms = generate_measurement_set(g, 5, seed=2)
        basis = eigensolve_smallest(g, 3)
        pairs = [(s, t) for s in range(10) for t in range(s + 1, 10)]
        scored = score_candidates(basis, ms.X, pairs)
        sens = [c.sensitivity for c in scored]
        assert sens == sorted(sens, reverse=True)

    @given(st.data())
    def test_partial_order_is_head_of_full_order(self, data):
        # Few distinct sensitivities over many pairs: ties at the cut.
        size = data.draw(st.integers(1, 60))
        sens = data.draw(hnp.arrays(np.float64, size,
                                    elements=st.sampled_from(
                                        [-1.0, -0.0, 0.0, 0.5, 2.0])))
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=size, max_size=size))
        s, t = (np.asarray(v, dtype=np.int64) for v in zip(*pairs))
        cap = data.draw(st.integers(1, size + 2))
        full = np.lexsort((t, s, -sens))
        np.testing.assert_array_equal(_top_order(sens, s, t, cap), full[:cap])
        np.testing.assert_array_equal(_top_order(sens, s, t), full)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_difference_gradient(self, seed):
        # full-spectrum sensitivity of a zero-weight candidate equals the
        # derivative of the objective at w -> 0+
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 16))
        g = random_connected_graph(n, 3, seed=seed)
        existing = set(zip(g.sources.tolist(), g.targets.tolist()))
        candidates = [(s, t) for s in range(n) for t in range(s + 1, n)
                      if (s, t) not in existing]
        s, t = candidates[int(rng.integers(len(candidates)))]
        m = 6
        Y = generate_currents(n, m, seed=seed)
        X = simulate_voltages(g, Y)
        basis = eigensolve_smallest(g, n - 1)
        cand = score_candidates(basis, X, [(s, t)])[0]

        vals, _ = dense_eigenpairs(g)
        e = np.zeros(n)
        e[s], e[t] = 1.0, -1.0
        h = 1e-6

        def objective(delta):
            L = g.laplacian.toarray() + delta * np.outer(e, e)
            lam = np.linalg.eigvalsh(L)[1:]
            return float(np.log(lam).sum()
                         - np.einsum("ij,ij->", L @ X, X) / m)

        fd = (objective(h) - objective(-h)) / (2 * h)
        assert cand.sensitivity == pytest.approx(fd, rel=1e-4)

    @pytest.mark.parametrize("pairs, match", [
        ([(-1, 3)], "out of range"),
        ([(0, 99)], "out of range"),
        ([(0, 0)], "joins a node to itself"),
        ([(0, 1, 2.0)], "pairs of integer node indices"),
        ([(0.0, 1.0)], "pairs of integer node indices"),
        ([(0.7, 1)], "pairs of integer node indices"),
        ([(True, 2)], "pairs of integer node indices"),
    ])
    def test_rejects_bad_pairs(self, pairs, match):
        g = grid_graph(4, 4)
        ms = generate_measurement_set(g, 5, seed=0)
        basis = eigensolve_smallest(g, 3)
        with pytest.raises(ValueError, match=match):
            score_candidates(basis, ms.X, pairs)

    def test_rejects_bad_voltage_matrix(self):
        g = grid_graph(4, 4)
        ms = generate_measurement_set(g, 5, seed=0)
        basis = eigensolve_smallest(g, 3)
        with pytest.raises(ValueError, match="^X has 15 rows for 16 nodes$"):
            score_candidates(basis, ms.X[:-1], [(0, 1)])
        X = ms.X.copy()
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="X must be finite"):
            score_candidates(basis, X, [(0, 1)])


class TestPerturbationEstimate:
    def test_constant_on_endpoints(self):
        u = np.full(4, 0.5)
        assert perturbation_estimate(u, 0.3, 0, 2) == 0.0

    def test_two_node_exact(self):
        u = np.array([1.0, -1.0]) / np.sqrt(2)
        est = perturbation_estimate(u, 0.1, 0, 1)
        assert est == pytest.approx(0.2)
        # the rank-one update scales the whole Laplacian: new eigenvalue 2.2
        g = WeightedGraph.from_edges(2, [(0, 1, 1.1)])
        lam = eigensolve_smallest(g, 1).eigenvalues[0]
        assert lam == pytest.approx(2.0 + est)

    def test_matches_dense_reeigensolve(self):
        g = random_connected_graph(50, 101, seed=0)
        vals, vecs = dense_eigenpairs(g)
        rng = np.random.default_rng(0)
        existing = set(zip(g.sources.tolist(), g.targets.tolist()))
        while True:
            s, t = (int(v) for v in rng.integers(0, 50, 2))
            if s != t and (min(s, t), max(s, t)) not in existing:
                s, t = min(s, t), max(s, t)
                break
        dw = 1e-4
        e = np.zeros(50)
        e[s], e[t] = 1.0, -1.0
        vals_after = np.linalg.eigvalsh(
            g.laplacian.toarray() + dw * np.outer(e, e))
        for i in range(1, 6):
            exact = vals_after[i] - vals[i]
            est = perturbation_estimate(vecs[:, i], dw, s, t)
            assert est == pytest.approx(exact, rel=0.05)


class TestEdgeScale:
    def test_identity_at_truth(self):
        g = random_connected_graph(12, 10, seed=1)
        ms = generate_measurement_set(g, 6, seed=1)
        scaled = edge_scale(g, ms.X, ms.Y)
        np.testing.assert_allclose(scaled.weights, g.weights, rtol=1e-9)

    def test_restores_doubled_weights(self):
        g = random_connected_graph(10, 8, seed=2)
        ms = generate_measurement_set(g, 5, seed=2)
        restored = edge_scale(g.scaled(2.0), ms.X, ms.Y)
        np.testing.assert_allclose(restored.weights, g.weights, rtol=1e-9)

    @pytest.mark.parametrize("c", [0.1, 0.5, 2.0, 10.0])
    def test_restores_tree_scale(self, c):
        g = random_connected_graph(15, 0, seed=3)  # a tree
        ms = generate_measurement_set(g, 10, seed=3)
        restored = edge_scale(g.scaled(c), ms.X, ms.Y)
        np.testing.assert_allclose(restored.weights, g.weights, rtol=1e-8)

    def test_zero_voltage_column_rejected(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        X = np.zeros((2, 1))
        Y = np.array([[1.0], [-1.0]])
        with pytest.raises(ValueError):
            edge_scale(g, X, Y)

    def test_zero_voltage_column_rejected_before_learning(self,
                                                          monkeypatch):
        def no_eigensolve(*args):
            raise AssertionError("learn eigensolved before checking X")

        monkeypatch.setattr(learner, "eigensolve_smallest", no_eigensolve)
        ms = generate_measurement_set(grid_graph(6, 6), 5, seed=0)
        X = ms.X.copy()
        X[:, 3] = 0.0
        with pytest.raises(ValueError, match="zero voltage column"):
            learn(X, ms.Y)

    @pytest.mark.parametrize("zeroed, first", [([2], 2), (slice(None), 0)],
                             ids=["one_column", "all_columns"])
    def test_zero_current_column_rejected(self, zeroed, first):
        # A zero current column has no voltage response to match: without
        # the check, one zeroed column of five shrank every learned weight
        # by 0.93, and an all-zero Y failed only at the scale factor.
        g = grid_graph(6, 6)
        ms = generate_measurement_set(g, 5, seed=0)
        Y = ms.Y.copy()
        Y[:, zeroed] = 0.0
        message = f"Y column {first} is all zeros"
        with pytest.raises(ValueError, match=message):
            learn(ms.X, Y)
        with pytest.raises(ValueError, match=message):
            edge_scale(g, ms.X, Y)


class TestScaling:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("factor, currents", [
        (1e155, False),  # a nearest-neighbor distance overflows
        (1e-200, False),  # every squared row distance underflows to 0
        (1e150, True),  # the solved voltage norms overflow in edge_scale
    ], ids=["knn-overflow", "distance-underflow", "norm-overflow"])
    def test_badly_scaled_voltages_are_refused_by_name(self, factor,
                                                       currents):
        ms = generate_measurement_set(grid_graph(6, 6), 10, 0)
        with pytest.raises(ValueError, match="^badly scaled measurements"):
            learn(ms.X * factor, ms.Y if currents else None)

    @pytest.mark.parametrize("factor", [1e154, 2e154])
    def test_large_representable_scale_still_converges(self, factor):
        ms = generate_measurement_set(grid_graph(6, 6), 10, 0)
        _, trace = learn(ms.X * factor)
        assert trace.status == "converged"


class TestLearn:
    def test_two_node_truth_recovered(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.3)])
        ms = generate_measurement_set(g, 5, seed=0)
        learned, trace = learn(ms.X, ms.Y)
        assert learned.edge_count == 1
        s, t, w = learned.edge_list()[0]
        assert (s, t) == (0, 1)
        assert w == pytest.approx(1.3, rel=1e-6)
        assert trace.status == "candidate_pool_exhausted"

    def test_huge_tolerance_keeps_tree(self):
        g = grid_graph(5, 5)
        ms = generate_measurement_set(g, 20, seed=1)
        learned, trace = learn(ms.X, None, LearnConfig(tol=1e6))
        assert trace.status == "converged"
        assert trace.iterations == 1
        assert learned.edge_count == g.node_count - 1

    def test_max_iterations_status(self):
        g = grid_graph(6, 6)
        ms = generate_measurement_set(g, 20, seed=2)
        learned, trace = learn(ms.X, None, LearnConfig(max_iterations=2))
        assert trace.status == "max_iterations"
        assert trace.iterations == 2

    def test_grid_end_to_end_quality(self):
        # 8x8 grid protocol: converged, near-tree density, resistances
        # correlated with the truth (frozen floor from the dense oracle)
        g = grid_graph(8, 8)
        ms = generate_measurement_set(g, 50, seed=0)
        learned, trace = learn(ms.X, ms.Y)
        assert trace.status == "converged"
        assert trace.records[-1].s_max <= 1e-12
        assert learned.edge_count <= 2 * g.node_count
        _, _, _, corr = resistance_correlation(g, learned, 5000, seed=0)
        assert corr >= 0.85

    def test_learned_edges_are_weighted_candidates(self):
        # every learned edge is a candidate edge with weight M / z_data, and
        # the seed tree survives
        g = grid_graph(7, 7)
        ms = generate_measurement_set(g, 20, seed=11)
        learned, _ = learn(ms.X, None)
        g_o, tree = init_graph(ms.X, LearnConfig().k)
        candidates = {(s, t): w for s, t, w in g_o.edge_list()}
        m = ms.X.shape[1]
        for s, t, w in learned.edge_list():
            assert candidates[(s, t)] == w
            z_data = np.sum((ms.X[s] - ms.X[t]) ** 2)
            assert w == pytest.approx(m / z_data, rel=1e-12)
        assert set(tree.edge_list()) <= set(learned.edge_list())
        assert learned.edge_count > tree.edge_count

    @pytest.mark.parametrize("seed", range(20))
    def test_duplicate_rows_learn_a_connected_candidate_graph(self, seed):
        # clustered voltages rounded to integers, so that rows repeat
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(3, 81)), int(rng.integers(1, 6))
        centers = rng.normal(0.0, 4.0, size=(max(1, n // 8), m))
        X = np.round(centers[rng.integers(0, len(centers), n)]
                     + rng.normal(0.0, 1.0, size=(n, m)))
        learned, trace = learn(X, None)
        assert trace.status in ("converged", "candidate_pool_exhausted")
        assert is_connected(learned)[0]
        g_o, _ = init_graph(X, LearnConfig().k)
        assert set(learned.edge_list()) <= set(g_o.edge_list())

    def test_grid_with_copied_rows_converges(self):
        # five rows equal to row 0: electrically equivalent nodes
        ms = generate_measurement_set(grid_graph(6, 6), 10, 0)
        X = ms.X.copy()
        X[1:6] = X[0]
        learned, trace = learn(X, None)
        assert trace.status == "converged"
        assert is_connected(learned)[0]

    def test_trace_monotonic_edge_counts(self):
        g = grid_graph(7, 7)
        ms = generate_measurement_set(g, 30, seed=3)
        _, trace = learn(ms.X, ms.Y)
        counts = [r.edge_count for r in trace.records]
        assert counts == sorted(counts)
        assert [r.iteration for r in trace.records] == list(
            range(1, len(counts) + 1))

    def test_determinism(self):
        g = grid_graph(6, 6)
        ms = generate_measurement_set(g, 25, seed=4)
        g1, t1 = learn(ms.X, ms.Y)
        g2, t2 = learn(ms.X, ms.Y)
        assert g1.edge_list() == g2.edge_list()
        assert t1.s_max_history.tolist() == t2.s_max_history.tolist()

    def test_memory_layout_leaves_the_bits_alone(self):
        # The CLI reads column-major matrices; the library is usually handed
        # row-major ones.
        ms = generate_measurement_set(grid_graph(6, 6), 8, seed=1)
        X, Y = np.ascontiguousarray(ms.X), np.ascontiguousarray(ms.Y)
        g_c, _ = learn(X, Y)
        g_f, _ = learn(np.asfortranarray(X), np.asfortranarray(Y))
        assert g_f.edge_list() == g_c.edge_list()

    def test_scale_equivariant_topology(self):
        g = grid_graph(6, 6)
        ms = generate_measurement_set(g, 25, seed=5)
        g1, _ = learn(ms.X, None)
        g2, _ = learn(100.0 * ms.X, None)
        assert [(s, t) for s, t, _ in g1.edge_list()] == \
               [(s, t) for s, t, _ in g2.edge_list()]
        np.testing.assert_allclose(g2.weights, g1.weights / 100.0 ** 2,
                                   rtol=1e-9)

    def test_reduced_learning_without_currents(self):
        g = grid_graph(8, 8)
        ms = generate_measurement_set(g, 50, seed=6)
        Xr, kept = subsample_nodes(ms.X, 0.25, seed=6)
        learned, trace = learn(Xr, None)
        assert learned.node_count == 16
        assert is_connected(learned)[0]
        assert trace.status in ("converged", "candidate_pool_exhausted")

    def test_converged_distortion_bound(self):
        # at convergence every remaining candidate has eta bounded via the
        # sensitivity identity
        g = grid_graph(7, 7)
        n = g.node_count
        ms = generate_measurement_set(g, 30, seed=7)
        cfg = LearnConfig()
        learned_scaled, trace = learn(ms.X, ms.Y, cfg)
        assert trace.status == "converged"
        unscaled, _ = learn(ms.X, None, cfg)
        g_o, _ = init_graph(ms.X, cfg.k)
        in_graph = set(zip(unscaled.sources.tolist(),
                           unscaled.targets.tolist()))
        remaining = [(s, t) for s, t, _ in g_o.edge_list()
                     if (s, t) not in in_graph]
        basis = eigensolve_smallest(unscaled, cfg.r - 1)
        m = ms.X.shape[1]
        for cand in score_candidates(basis, ms.X, remaining):
            assert cand.distortion <= 1.0 + cfg.tol * m / cand.z_data + 1e-9

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            LearnConfig(k=0)
        with pytest.raises(ValueError):
            LearnConfig(r=1)
        with pytest.raises(ValueError):
            LearnConfig(tol=0.0)
        with pytest.raises(ValueError):
            LearnConfig(beta_sample=0.0)
        with pytest.raises(ValueError):
            LearnConfig(beta_sample=1.5)

    @pytest.mark.parametrize("field", ["k", "r", "max_iterations"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            LearnConfig(**{field: value})

    def test_accepts_numpy_integer_counts(self):
        cfg = LearnConfig(k=np.int64(3), r=np.int32(4),
                          max_iterations=np.int64(7))
        assert cfg.resolved_max_iterations == 7

    def test_rejects_mismatched_currents(self):
        g = grid_graph(4, 4)
        ms = generate_measurement_set(g, 5, seed=8)
        with pytest.raises(ValueError):
            learn(ms.X, ms.Y[:, :3])
        with pytest.raises(ValueError):
            learn(ms.X, np.ones_like(ms.Y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_measurements(self, bad):
        g = grid_graph(4, 4)
        ms = generate_measurement_set(g, 5, seed=8)
        X, Y = ms.X.copy(), ms.Y.copy()
        X[3, 2] = bad
        with pytest.raises(ValueError, match="X must be finite"):
            learn(X, None)
        Y[3, 2] = bad
        with pytest.raises(ValueError, match="Y must be finite"):
            learn(ms.X, Y)

    def test_mode_count_capped_at_small_graphs(self):
        # default r = 5 still works on a 3-node truth (modes cap at N - 1)
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        ms = generate_measurement_set(g, 4, seed=9)
        learned, trace = learn(ms.X, None, LearnConfig(r=5))
        assert learned.node_count == 3
        assert trace.status in ("converged", "candidate_pool_exhausted")

    def test_no_components_pass_while_learning(self, monkeypatch):
        # Every graph of the loop holds the seed spanning tree, which is
        # connected by construction, and edge scaling keeps its edges.
        calls = []
        original = graphs.connected_components

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        ms = generate_measurement_set(grid_graph(12, 12), 8, seed=0)
        monkeypatch.setattr(graphs, "connected_components", counting)
        learned, trace = learn(ms.X, ms.Y)
        assert trace.iterations > 1
        assert is_connected(learned)[0]
        assert calls == []

    def test_objective_recording(self):
        g = grid_graph(5, 5)
        ms = generate_measurement_set(g, 20, seed=10)
        learned, trace = learn(ms.X, None, LearnConfig(record_objective=True))
        assert all(r.objective is not None for r in trace.records)
        # the 50-eigenvalue objective caps at the 24 modes of 25 nodes
        assert trace.records[-1].objective == objective_value(
            learned, ms.X, 24).total
