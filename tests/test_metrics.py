import numpy as np
import pytest

from reslearn import graphs, spectral
from reslearn.graphs import WeightedGraph, grid_graph
from reslearn.learner import LearnTrace, IterationRecord
from reslearn.measurements import generate_measurement_set
from reslearn.metrics import (
    EXHAUSTIVE_PAIR_LIMIT,
    compare_spectra,
    distortion_stats,
    evaluate,
    layout_coordinates,
    pearson,
    resistance_correlation,
    write_layout_csv,
    write_resistance_scatter_csv,
    write_spectra_csv,
    write_trace_csv,
)

from _oracles import dense_eigenpairs, random_connected_graph


class TestCompareSpectra:
    def test_identical_graphs(self):
        g = random_connected_graph(15, 12, seed=0)
        lt, ll, rel = compare_spectra(g, g, 6)
        np.testing.assert_allclose(rel, 0.0, atol=1e-12)

    def test_doubled_weights_ratio_two(self):
        g = random_connected_graph(15, 12, seed=1)
        lt, ll, rel = compare_spectra(g, g.scaled(2.0), 6)
        np.testing.assert_allclose(ll / lt, 2.0, rtol=1e-9)
        np.testing.assert_allclose(rel, 1.0, rtol=1e-9)

    def test_spectra_ascending(self):
        g = random_connected_graph(20, 25, seed=2)
        lt, ll, _ = compare_spectra(g, g.scaled(0.5), 8)
        assert np.all(np.diff(lt) >= -1e-12)
        assert np.all(np.diff(ll) >= -1e-12)


class TestResistanceCorrelation:
    def test_identical_graphs(self):
        g = random_connected_graph(12, 15, seed=0)
        _, r_t, r_l, corr = resistance_correlation(g, g, 50, seed=0)
        assert corr == pytest.approx(1.0)
        np.testing.assert_allclose(r_t, r_l)

    def test_scaled_graph_still_perfectly_correlated(self):
        g = random_connected_graph(12, 15, seed=1)
        _, r_t, r_l, corr = resistance_correlation(g, g.scaled(3.0), 50,
                                                   seed=0)
        assert corr == pytest.approx(1.0)
        np.testing.assert_allclose(r_l, r_t / 3.0, rtol=1e-8)

    def test_exhaustive_below_limit(self):
        g = random_connected_graph(10, 8, seed=2)
        pairs, r_t, _, _ = resistance_correlation(g, g, 5, seed=0)
        assert len(pairs) == 10 * 9 // 2  # exhaustive for small graphs
        assert 10 * 9 // 2 < EXHAUSTIVE_PAIR_LIMIT

    def test_sampled_above_limit(self):
        g = grid_graph(12, 13)  # 156 nodes -> 12090 pairs > limit
        pairs, _, _, _ = resistance_correlation(g, g, 500, seed=3)
        assert len(pairs) == 500
        assert len(set(pairs)) == 500

    def test_deterministic_sampling(self):
        g = grid_graph(12, 13)
        p1, _, _, _ = resistance_correlation(g, g, 200, seed=5)
        p2, _, _, _ = resistance_correlation(g, g, 200, seed=5)
        assert p1 == p2

    def test_node_count_mismatch(self):
        a = random_connected_graph(8, 4, seed=0)
        b = random_connected_graph(9, 4, seed=0)
        with pytest.raises(ValueError):
            resistance_correlation(a, b, 10, seed=0)

    @pytest.mark.parametrize("count", [1, 0, -3])
    def test_rejects_fewer_than_two_pairs(self, count):
        g = grid_graph(12, 13)
        with pytest.raises(ValueError, match="pair_count must be >= 2"):
            resistance_correlation(g, g, count, seed=0)

    def test_rejects_two_node_graph(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="only 1 pair"):
            resistance_correlation(g, g, 10, seed=0)


class TestPearson:
    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(200)
        b = 0.4 * a + rng.standard_normal(200)
        mean_a, mean_b = a.mean(), b.mean()
        cov = ((a - mean_a) * (b - mean_b)).sum()
        ref = cov / np.sqrt(((a - mean_a) ** 2).sum()
                            * ((b - mean_b) ** 2).sum())
        assert pearson(a, b) == pytest.approx(ref, abs=1e-12)

    def test_zero_variance_guard(self):
        assert pearson([1.0, 1.0], [1.0, 1.0]) == 1.0
        assert pearson([1.0, 1.0], [1.0, 2.0]) == 0.0


class TestLayout:
    def test_path_fiedler_monotone(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        coords = layout_coordinates(g)
        x = coords[:, 0]
        assert np.all(np.diff(x) > 0) or np.all(np.diff(x) < 0)

    def test_four_cycle_circle_subspace(self):
        g = WeightedGraph.from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        coords = layout_coordinates(g)
        vals, vecs = dense_eigenpairs(g)
        # degenerate pair: compare the spanned subspaces via projectors
        p_got = coords @ coords.T
        p_ref = vecs[:, 1:3] @ vecs[:, 1:3].T
        np.testing.assert_allclose(p_got, p_ref, atol=1e-9)
        radii = np.linalg.norm(coords, axis=1)
        np.testing.assert_allclose(radii, radii[0], rtol=1e-8)

    def test_unit_columns_and_determinism(self):
        g = random_connected_graph(20, 30, seed=4)
        c1 = layout_coordinates(g)
        c2 = layout_coordinates(g)
        np.testing.assert_allclose(np.linalg.norm(c1, axis=0), 1.0,
                                   atol=1e-10)
        assert np.array_equal(c1, c2)
        # sign convention: largest-magnitude entry positive
        for j in range(2):
            assert c1[np.argmax(np.abs(c1[:, j])), j] > 0

    def test_too_small(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            layout_coordinates(g)


class TestDistortionStats:
    def test_unit_distortion_on_consistent_path(self):
        # chain whose data distances are exactly M / w per edge: every edge
        # sits at the eta = 1 fixed point
        weights = [0.5, 2.0, 1.25]
        edges = [(i, i + 1, w) for i, w in enumerate(weights)]
        g = WeightedGraph.from_edges(4, edges)
        deltas = [np.sqrt(1.0 / w) for w in weights]  # M = 1 column
        rows = np.concatenate([[0.0], np.cumsum(deltas)])
        X = rows[:, None]
        eta_max, eta_mean, (counts, bins) = distortion_stats(
            g, X, [(s, t) for s, t, _ in edges])
        assert eta_max == pytest.approx(1.0, rel=1e-9)
        assert eta_mean == pytest.approx(1.0, rel=1e-9)
        assert counts.sum() == 3

    def test_halved_data_distance_doubles_distortion(self):
        # weak edge in parallel with a dominant two-hop path: its resistance
        # barely moves, so halving the edge's data distance doubles eta
        g = WeightedGraph.from_edges(
            3, [(0, 1, 0.01), (0, 2, 1000.0), (1, 2, 1000.0)])

        def crafted(z01):
            X = np.zeros((3, 1))
            X[1, 0] = np.sqrt(z01)
            X[2, 0] = 0.5 * np.sqrt(z01)
            return X

        eta1, _, _ = distortion_stats(g, crafted(0.4), [(0, 1)])
        eta2, _, _ = distortion_stats(g, crafted(0.2), [(0, 1)])
        assert eta2 / eta1 == pytest.approx(2.0, rel=1e-9)

    def test_rejects_out_of_range_candidate(self):
        g = random_connected_graph(10, 8, seed=5)
        ms = generate_measurement_set(g, 6, seed=5)
        with pytest.raises(ValueError, match="out of range"):
            distortion_stats(g, ms.X, [(0, 99)])

    def test_agrees_with_score_candidates(self):
        from reslearn.learner import score_candidates
        from reslearn.spectral import build_embedding, eigensolve_smallest
        from reslearn.graphs import build_laplacian

        g = random_connected_graph(10, 8, seed=5)
        ms = generate_measurement_set(g, 6, seed=5)
        cands = [(0, 7), (2, 5)]
        eta_max, eta_mean, _ = distortion_stats(g, ms.X, cands)
        basis = build_embedding(
            eigensolve_smallest(build_laplacian(g), 9, method="dense"), 0.0)
        scored = score_candidates(basis, ms.X, cands)
        etas = sorted(c.distortion for c in scored)
        assert eta_max == pytest.approx(max(etas), rel=1e-9)
        assert eta_mean == pytest.approx(np.mean(etas), rel=1e-9)


def test_eval_factors_each_graph_once(monkeypatch):
    # The CLI's eval sequence on graphs above the dense eigensolver limit:
    # spectra, resistances and both layouts share one factor and one
    # connected-components pass per graph.
    calls = {"splu": 0, "components": 0}
    splu, components = spectral.spla.splu, graphs.connected_components

    def counting_splu(*args, **kwargs):
        calls["splu"] += 1
        return splu(*args, **kwargs)

    def counting_components(*args, **kwargs):
        calls["components"] += 1
        return components(*args, **kwargs)

    monkeypatch.setattr(spectral.spla, "splu", counting_splu)
    monkeypatch.setattr(graphs, "connected_components", counting_components)
    truth = grid_graph(12, 12)  # 144 nodes > DENSE_EIG_LIMIT
    learned = truth.with_edges([(0, 13, 1.0), (20, 45, 0.5)])
    compare_spectra(truth, learned, 10)
    resistance_correlation(truth, learned, 200, seed=0)
    layout_coordinates(truth)
    layout_coordinates(learned)
    assert calls == {"splu": 2, "components": 2}


class TestEvaluateAndCsv:
    def test_evaluate_report_fields(self):
        g = random_connected_graph(12, 10, seed=6)
        report = evaluate(g, g.scaled(2.0), spectrum_count=5, pair_count=20,
                          seed=0)
        assert report.pearson_r == pytest.approx(1.0)
        assert report.edge_counts == (g.edge_count, g.edge_count)
        assert report.spectrum_true.shape == (5,)
        assert report.resistance_pairs.shape[1] == 2
        assert report.distortion_max is None

    def test_csv_emitters_round_trip(self, tmp_path):
        spectra = tmp_path / "spectra.csv"
        write_spectra_csv(spectra, [1.0, 2.0], [1.5, 2.5])
        lines = spectra.read_text().splitlines()
        assert lines[0] == "index,lambda_true,lambda_learned"
        assert lines[1].startswith("2,1,")

        scatter = tmp_path / "scatter.csv"
        write_resistance_scatter_csv(scatter, [(0, 1)], [0.5], [0.75])
        assert scatter.read_text().splitlines()[1] == "0,1,0.5,0.75"

        trace_path = tmp_path / "trace.csv"
        trace = LearnTrace(records=[
            IterationRecord(iteration=1, s_max=0.25, edge_count=9),
            IterationRecord(iteration=2, s_max=1e-13, edge_count=10,
                            objective=-3.5)])
        write_trace_csv(trace_path, trace)
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iteration,s_max,edges,F"
        assert lines[1] == "1,0.25,9,"
        assert lines[2].endswith(",-3.5")

        layout = tmp_path / "layout.csv"
        write_layout_csv(layout, np.array([[0.1, 0.2], [-0.1, -0.2]]))
        assert layout.read_text().splitlines()[0] == "node,x,y"
