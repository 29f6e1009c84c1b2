import numpy as np
import pytest

from reslearn import graphs, metrics, spectral
from reslearn.graphs import WeightedGraph, grid_graph
from reslearn.metrics import compare_spectra, pearson, resistance_correlation
from reslearn.spectral import eigensolve_smallest

from _oracles import dense_eigenpairs, random_connected_graph


class TestCompareSpectra:
    def test_identical_graphs(self):
        g = random_connected_graph(15, 12, seed=0)
        lt, ll, rel = compare_spectra(g, g, 6)
        np.testing.assert_allclose(rel, 0.0, atol=1e-12)

    def test_doubled_weights_ratio_two(self):
        g = random_connected_graph(15, 12, seed=1)
        lt, ll, rel = compare_spectra(g, g.scaled(2.0), 6)
        assert lt.shape == ll.shape == rel.shape == (6,)
        np.testing.assert_allclose(ll / lt, 2.0, rtol=1e-9)
        np.testing.assert_allclose(rel, 1.0, rtol=1e-9)

    def test_spectra_ascending(self):
        g = random_connected_graph(20, 25, seed=2)
        lt, ll, _ = compare_spectra(g, g.scaled(0.5), 8)
        assert np.all(np.diff(lt) >= -1e-12)
        assert np.all(np.diff(ll) >= -1e-12)


@pytest.mark.parametrize("compare", [
    lambda a, b: compare_spectra(a, b, 2),
    lambda a, b: resistance_correlation(a, b, 10, 0),
], ids=["compare_spectra", "resistance_correlation"])
def test_rejects_different_node_counts(monkeypatch, compare):
    # refused before any eigensolve or resistance solve
    def unexpected(*args):
        raise AssertionError("solved before the node-count check")

    monkeypatch.setattr(metrics, "eigensolve_smallest", unexpected)
    monkeypatch.setattr(metrics, "effective_resistance", unexpected)
    with pytest.raises(ValueError, match="^node counts differ: 16 vs 9$"):
        compare(grid_graph(4, 4), grid_graph(3, 3))


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

    def test_small_graph_scores_pair_count_pairs(self):
        g = random_connected_graph(10, 8, seed=2)  # 45 pairs
        pairs, r_t, _, _ = resistance_correlation(g, g, 5, seed=0)
        s, t = pairs.T
        assert pairs.shape == (5, 2) and len(r_t) == 5
        assert np.all((0 <= s) & (s < t) & (t < 10))
        assert len(np.unique(pairs, axis=0)) == 5

    @pytest.mark.parametrize("count", [45, 46, 1000])
    def test_every_pair_once_pair_count_reaches_the_total(self, count):
        g = random_connected_graph(10, 8, seed=2)
        pairs, _, _, _ = resistance_correlation(g, g, count, seed=0)
        np.testing.assert_array_equal(pairs,
                                      np.column_stack(np.triu_indices(10, 1)))

    def test_sampled_distinct_pairs(self):
        g = grid_graph(12, 13)  # 156 nodes -> 12090 pairs
        pairs, _, _, _ = resistance_correlation(g, g, 500, seed=3)
        assert pairs.shape == (500, 2)
        assert len(np.unique(pairs, axis=0)) == 500

    def test_deterministic_sampling(self):
        g = grid_graph(12, 13)
        p1, _, _, _ = resistance_correlation(g, g, 200, seed=5)
        p2, _, _, _ = resistance_correlation(g, g, 200, seed=5)
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("n", [200, 1500])
    def test_sampled_pairs_are_the_drawn_upper_triangle_entries(self, n):
        count, seed = 500, 7
        total = n * (n - 1) // 2
        assert count < total
        flat = np.sort(np.random.default_rng(seed).choice(
            total, size=count, replace=False))
        s, t = np.triu_indices(n, 1)
        pairs = metrics._sample_pairs(n, count, seed)
        assert pairs.dtype == np.int64
        np.testing.assert_array_equal(pairs, np.column_stack([s[flat],
                                                              t[flat]]))

    def test_pairs_drawn_from_a_large_graph_are_distinct_and_in_order(self):
        n = 1500  # over 10^6 pairs
        pairs = metrics._sample_pairs(n, 2000, seed=3)
        s, t = np.array(pairs).T
        assert np.all((0 <= s) & (s < t) & (t < n))
        flat = s * (2 * n - s - 1) // 2 + t - s - 1
        assert len(pairs) == 2000 and np.all(np.diff(flat) > 0)

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

    def test_rejects_non_integer_pair_count(self):
        g = grid_graph(20, 20)
        with pytest.raises(ValueError,
                           match="pair_count must be an integer, got 2.5"):
            resistance_correlation(g, g, 2.5, seed=0)

    def test_rejects_two_node_graph(self):
        g = WeightedGraph(2, [0], [1], [1.0])
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
    """The 2-D layouts eval writes: the first two nontrivial eigenvectors."""

    def test_path_fiedler_monotone(self):
        g = WeightedGraph(3, [0, 1], [1, 2], [1.0, 1.0])
        coords = eigensolve_smallest(g, 2)[1]
        x = coords[:, 0]
        assert np.all(np.diff(x) > 0) or np.all(np.diff(x) < 0)

    def test_four_cycle_circle_subspace(self):
        g = WeightedGraph(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0] * 4)
        coords = eigensolve_smallest(g, 2)[1]
        vals, vecs = dense_eigenpairs(g)
        # degenerate pair: compare the spanned subspaces via projectors
        p_got = coords @ coords.T
        p_ref = vecs[:, 1:3] @ vecs[:, 1:3].T
        np.testing.assert_allclose(p_got, p_ref, atol=1e-9)
        radii = np.linalg.norm(coords, axis=1)
        np.testing.assert_allclose(radii, radii[0], rtol=1e-8)

    def test_unit_columns_and_determinism(self):
        g = random_connected_graph(20, 30, seed=4)
        c1 = eigensolve_smallest(g, 2)[1]
        c2 = eigensolve_smallest(g, 2)[1]
        np.testing.assert_allclose(np.linalg.norm(c1, axis=0), 1.0,
                                   atol=1e-10)
        assert np.array_equal(c1, c2)
        # sign convention: largest-magnitude entry positive
        for j in range(2):
            assert c1[np.argmax(np.abs(c1[:, j])), j] > 0


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
    learned = truth.with_edges([0, 20], [13, 45], [1.0, 0.5])
    compare_spectra(truth, learned, 10)
    resistance_correlation(truth, learned, 200, seed=0)
    eigensolve_smallest(truth, 2)
    eigensolve_smallest(learned, 2)
    assert calls == {"splu": 2, "components": 2}

