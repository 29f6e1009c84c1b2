import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reslearn.graphs import (
    WeightedGraph,
    effective_resistance,
    grid_graph,
    is_connected,
)
from reslearn import graphs, learner
from reslearn.learner import (
    _connectivity_repair,
    _floored_distances,
    _knn_pairs,
    _rank_candidates,
    _top_order,
    edge_scale,
    init_graph,
    learn,
)
from reslearn.measurements import (
    add_noise,
    generate_currents,
    generate_jl_measurements,
    generate_measurement_set,
    simulate_voltages,
    subsample_nodes,
)
from reslearn.metrics import resistance_correlation
from reslearn.spectral import (
    DENSE_EIG_LIMIT,
    SolverError,
    eigensolve_smallest,
    embedding_distances,
)

from _oracles import (
    brute_force_knn_distances,
    closest_pair_bridges,
    edge_columns,
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


@st.composite
def clustered_inputs(draw):
    """``(X, k)``: n in 4..60 rows of M in 1..5 columns, each one of 2..5
    centers on a lattice of spacing 10 plus an offset on a lattice of
    spacing 0.1 (many tied distances), and k in 1..3, so that the
    k-nearest-neighbor pairs often leave several components."""
    n = draw(st.integers(4, 60))
    m = draw(st.integers(1, 5))
    c = draw(st.integers(2, 5))
    centers = draw(hnp.arrays(np.int8, (c, m), elements=st.integers(-9, 9)))
    labels = draw(hnp.arrays(np.int8, n, elements=st.integers(0, c - 1)))
    offsets = draw(hnp.arrays(np.int8, (n, m), elements=st.integers(-9, 9)))
    return 10.0 * centers[labels] + 0.1 * offsets, draw(st.integers(1, 3))


@st.composite
def learn_inputs(draw):
    """``(X, Y)``: M in 2..12 noiseless measurements of a grid of at most 60
    nodes, with its currents ``Y`` or without (``None``), or a point cloud
    of 2..60 standard normal rows as voltages (``Y`` None)."""
    m = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        rows = draw(st.integers(1, 6))
        cols = draw(st.integers(2, 60 // rows))
        X, Y = generate_measurement_set(grid_graph(rows, cols), m, seed)
        return X, Y if draw(st.booleans()) else None
    n = draw(st.integers(2, 60))
    return np.random.default_rng(seed).normal(size=(n, m)), None


@st.composite
def permuted_clouds(draw):
    """``(X, p)``: 2..160 standard normal rows of M in 1..8 columns, so that
    no two distances tie, and a permutation ``p`` of the rows."""
    n = draw(st.integers(2, 160))
    m = draw(st.integers(1, 8))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        size=(n, m))
    return X, np.asarray(draw(st.permutations(range(n))))


def exact_powers_of_two(a):
    """Strategy for the exponents ``j`` for which ``a * 2**j`` is exact:
    finite, with every nonzero entry a normal float."""
    _, exps = np.frexp(np.abs(a[a != 0]))
    info = np.finfo(np.float64)
    return st.integers(info.minexp + 1 - exps.min(),
                       info.maxexp - exps.max())


def relabelled_edges(g, p):
    """The edges of ``g`` with node ``i`` renamed ``p[i]``, as columns
    sorted by ``(s, t)``."""
    edges = sorted((min(p[s], p[t]), max(p[s], p[t]), w)
                   for s, t, w in zip(*edge_columns(g)))
    return tuple([e[i] for e in edges] for i in range(3))


def clustered_rows(seed, n, m, clusters, offset=0.0, scale=1.0):
    """``offset + scale * (centers[lab] + 0.05 * noise)``: n rows of m
    columns around ``clusters`` standard normal centers, all drawn from
    ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, m))
    lab = rng.integers(0, clusters, n)
    noise = rng.normal(size=(n, m))
    return offset + scale * (centers[lab] + 0.05 * noise)


def knn_edges(X, k):
    """The k-nearest-neighbor pairs as a set of ``(s, t)`` with ``s < t``."""
    return {(min(i, j), max(i, j))
            for i, j in zip(*(a.tolist() for a in _knn_pairs(X, k)))}


def repair_bridges(X, k):
    """``(s, t, bridges)``: the k-nearest-neighbor pairs, ``s < t`` sorted,
    and the sorted ``(s, t)`` bridges that :func:`_connectivity_repair`
    appends to them."""
    i, j = _knn_pairs(X, k)
    rs, rt = _connectivity_repair(X, i, j)
    np.testing.assert_array_equal(rs[:i.size], i)
    np.testing.assert_array_equal(rt[:j.size], j)
    bridges = list(zip(rs[i.size:].tolist(), rt[j.size:].tolist()))
    knn = knn_edges(X, k)
    assert all(a < b for a, b in bridges)
    assert len(set(bridges)) == len(bridges) and not knn & set(bridges)
    s, t = (np.array(c, dtype=np.int64) for c in zip(*sorted(knn)))
    return s, t, sorted(bridges)


class TestKnnPairs:
    @settings(max_examples=100)
    @given(knn_inputs())
    def test_matches_brute_force_distances(self, case):
        X, k = case
        n = X.shape[0]
        k_eff = min(k, n - 1)
        rows, cols = _knn_pairs(X, k)
        assert rows.dtype == cols.dtype == np.int64
        np.testing.assert_array_equal(
            rows, np.repeat(np.arange(n), k_eff))  # row ascending
        nbr = cols.reshape(n, k_eff)
        nearest = brute_force_knn_distances(X, k_eff)
        for i in range(n):
            assert i not in nbr[i] and len(set(nbr[i])) == k_eff
            # Nearest first; ties make the chosen rows ambiguous, so compare
            # distances.
            d = np.sum((X[nbr[i]] - X[i]) ** 2, axis=1)
            assert np.all(np.diff(d) >= 0)
            np.testing.assert_allclose(d, nearest[i], rtol=DISTANCE_RTOL,
                                       atol=0)

    @settings(max_examples=60)
    @given(st.one_of(knn_inputs(), clustered_inputs()))
    def test_init_graph_is_connected(self, case):
        X, k = case
        assume(np.ptp(X, axis=0).any())  # not every row identical
        g_o, tree = init_graph(X, k)
        assert is_connected(g_o)
        assert tree.edge_count == X.shape[0] - 1
        knn = knn_edges(X, k)
        pairs = set(zip(g_o.sources.tolist(), g_o.targets.tolist()))
        assert knn <= pairs
        # C components take C - 1 bridges, whose distances are those of
        # the closest-pair oracle's bridges: a minimum spanning tree's
        # weights are unique even where its edges are not.
        oracle = closest_pair_bridges(X, *_knn_pairs(X, k))
        assert g_o.edge_count == len(knn) + len(oracle)
        np.testing.assert_allclose(
            sorted(np.sum((X[a] - X[b]) ** 2) for a, b in pairs - knn),
            sorted(d for _, _, d in oracle), rtol=DISTANCE_RTOL, atol=0)

    def test_duplicate_rows_keep_k_other_rows(self):
        # five identical rows: the query may return k + 1 copies without the
        # row itself; each row still gets exactly k other rows
        X = np.zeros((6, 2))
        X[5] = 1.0
        rows, cols = _knn_pairs(X, 2)
        np.testing.assert_array_equal(rows, np.repeat(np.arange(6), 2))
        assert not np.any(rows == cols)

    def test_connected_pairs_come_back_unchanged(self):
        X = np.array([[0.0], [1.0], [3.0]])
        s, t = np.array([0, 1]), np.array([1, 2])
        rs, rt = _connectivity_repair(X, s, t)
        assert rs is s and rt is t


class TestConnectivityRepair:
    @pytest.mark.parametrize("seed, n, m, clusters, k", [
        (0, 300, 10, 3, 2), (1, 500, 50, 5, 3), (2, 800, 10, 8, 2),
        (3, 1200, 50, 4, 5), (4, 2000, 10, 12, 3), (5, 2000, 50, 6, 5),
    ])
    def test_matches_closest_pair_oracle(self, seed, n, m, clusters, k):
        X = clustered_rows(seed, n, m, clusters)
        s, t, bridges = repair_bridges(X, k)
        expected = sorted((a, b) for a, b, _ in closest_pair_bridges(X, s, t))
        assert len(expected) >= clusters - 1
        assert bridges == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_near_a_supply_rail_get_the_closest_pairs(self, seed):
        # 1.8 plus offsets of 1e-7: a Gram form |a|^2 + |b|^2 - 2 a.b of
        # such rows cancels to rounding noise; exact differences do not
        X = clustered_rows(seed, 120, 8, 4, offset=1.8, scale=1e-7)
        s, t, bridges = repair_bridges(X, 2)
        expected = sorted((a, b) for a, b, _ in closest_pair_bridges(X, s, t))
        assert bridges == expected

    def test_tied_bridges_make_a_tree(self):
        # four 2-row clusters at the corners of a square of side 10: each
        # corner row is 10 from two others, so one round's bridges tie
        # around a cycle, and only 3 of them may join
        X = np.array([[0, 0], [-1, -1], [10, 0], [11, -1],
                      [0, 10], [-1, 11], [10, 10], [11, 11]], dtype=float)
        s, t, bridges = repair_bridges(X, 1)
        assert s.size == 4 and len(bridges) == 3
        g = WeightedGraph(8, *zip(*(list(zip(s, t)) + bridges)),
                          np.ones(7))
        assert is_connected(g)
        oracle = closest_pair_bridges(X, s, t)
        assert sorted(np.sum((X[a] - X[b]) ** 2) for a, b in bridges) == \
            sorted(d for _, _, d in oracle)

    @pytest.mark.filterwarnings("error")
    def test_zero_distance_bridge_is_floored(self):
        # rows 0-3 coincide, so the bridge between the components {0, 1}
        # and {2, 3, 4} is at distance 0, and the floor lifts it with the
        # duplicate pairs to the one distinct pair's distance
        X = np.array([[0.0, 0.0]] * 4 + [[1.0, 0.0]])
        s, t = _connectivity_repair(X, np.array([0, 2, 3]),
                                    np.array([1, 3, 4]))
        assert s.size == 4 and s[3] in (0, 1) and t[3] in (2, 3)
        np.testing.assert_array_equal(_floored_distances(X, s, t),
                                      [1.0, 1.0, 1.0, 1.0])

    def test_overflowing_bridge_is_refused_by_name(self):
        # the two pairs are 2e154 apart: the squared distance overflows
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2e154, 0.0], [2e154, 1.0]])
        with pytest.raises(ValueError, match="badly scaled measurements"):
            init_graph(X, k=1)


class TestFlooredDistances:
    @given(knn_inputs())
    def test_only_zeros_are_lifted_to_the_closest_distinct_pair(self, inputs):
        X, _ = inputs
        assume(np.any(X != X[0]))
        s, t = np.triu_indices(X.shape[0], 1)
        z = np.sum((X[s] - X[t]) ** 2, axis=1)
        floored = _floored_distances(X, s, t)
        np.testing.assert_allclose(floored, np.where(z > 0, z, z[z > 0].min()),
                                   rtol=1e-12)
        # the lifted zeros take the closest distinct pair's distance exactly
        assert np.all(floored[z == 0] == floored[z > 0].min())

    def test_memory_is_the_pairs_plus_one_block(self):
        # 20,000 pairs of 64 columns: one (pairs x M) array alone would
        # be 10 MB, the differences of all pairs at once 30 MB
        rng = np.random.default_rng(0)
        X = rng.standard_normal((2000, 64))
        s = np.repeat(np.arange(2000), 10)
        t = (s + rng.integers(1, 2000, s.size)) % 2000
        tracemalloc.start()
        try:
            floored = _floored_distances(X, s, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = X[s] - X[t]
        np.testing.assert_array_equal(floored, np.einsum("ij,ij->i", d, d))
        assert peak < 3 * 2**20


class TestInitGraph:
    def test_three_point_line(self):
        # rows at mutual squared distances 1, 4, 9 on a line
        X = np.array([[0.0], [1.0], [3.0]])
        g_o, tree = init_graph(X, k=1)
        assert edge_columns(g_o)[:2] == ([0, 1], [1, 2])
        assert edge_columns(tree) == edge_columns(g_o)

    def test_weight_formula(self):
        # z_data = 4 with M = 50 columns gives weight 12.5
        X = np.zeros((2, 50))
        X[1, 0] = 2.0
        g_o, _ = init_graph(X, k=1)
        assert edge_columns(g_o) == ([0], [1], [12.5])

    def test_two_node_truth(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        X, _ = generate_measurement_set(g, 5, seed=0)
        g_o, tree = init_graph(X, k=5)
        assert g_o.edge_count == 1
        assert edge_columns(tree) == edge_columns(g_o)

    def test_degenerate_rows_rejected(self):
        with pytest.raises(ValueError, match="all voltage rows identical"):
            init_graph(np.ones((5, 3)), k=2)

    def test_underflowing_distance_is_too_close_not_identical(self):
        # the rows differ, but their squared distance underflows to 0; the
        # message gives their true gap, 2**-600 of max |X|
        X = [[1.0, 0.0], [1.0, 2.0 ** -600]]
        with pytest.raises(ValueError, match=r"^badly scaled measurements: "
                           r"voltage rows 0 and 1 are 2\.41e-181 of max "
                           r"\|X\| apart, too close"):
            init_graph(X, k=1)

    @pytest.mark.parametrize("entry", ["init_graph", "learn"])
    def test_identical_refusal_states_what_it_can_verify(self, entry):
        # unit scaling flushes the 1e-100 to 0, so the rows compare equal:
        # they agree to within 2**-1073 of max |X|, not exactly
        X = [[1e300, 0.0], [1e300, 1e-100]]
        call = learn if entry == "learn" else lambda X: init_graph(X, 1)
        with pytest.raises(ValueError) as err:
            call(X)
        assert str(err.value) == ("degenerate measurements: all voltage rows "
                                  "identical, every entry to within "
                                  "2**-1073 of max |X|")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_voltages(self, bad):
        X = np.arange(12.0).reshape(4, 3)
        X[2, 1] = bad
        with pytest.raises(ValueError, match="X must be finite"):
            init_graph(X, k=2)

    @pytest.mark.parametrize("k", [0, -1, 2.5, 3.0, "3", True])
    def test_rejects_bad_k(self, k):
        X = np.arange(12.0).reshape(4, 3)
        with pytest.raises(ValueError, match="k must be"):
            init_graph(X, k)

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint16(2)],
                             ids=["int64", "int32", "uint16"])
    def test_accepts_numpy_integer_k(self, k):
        X = np.arange(12.0).reshape(4, 3)
        g_o, tree = init_graph(X, k)
        expected_o, expected_tree = init_graph(X, 2)
        assert edge_columns(g_o) == edge_columns(expected_o)
        assert edge_columns(tree) == edge_columns(expected_tree)

    def test_connectivity_repair_bridges_closest_pair(self):
        # two tight clusters far apart; k=1 keeps each cluster internal
        X = np.array([[0.0], [0.1], [10.0], [10.12]])
        g_o, tree = init_graph(X, k=1)
        assert is_connected(g_o)
        # the bridge must be the closest inter-cluster pair (1, 2)
        assert (1, 2) in zip(*edge_columns(g_o)[:2])
        assert tree.edge_count == 3

    def test_duplicate_rows_get_floored_weight(self):
        # pool distances 0, 1, 1, 4, 9, 9: the duplicate pair (0, 1) weighs
        # M / 1, as the closest distinct pair does, not M / median
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        g_o, tree = init_graph(X, k=3)
        weights = {(s, t): w for s, t, w in zip(*edge_columns(g_o))}
        assert weights[(0, 1)] == 2.0 / 1.0
        assert weights[(0, 1)] == g_o.weights.max()
        assert (0, 1, 2.0) in zip(*edge_columns(tree))

    def test_tiny_positive_distance_is_not_lifted(self):
        # z = 1e-14 lies below 1e-12 of the median pool distance; only a zero
        # is floored, so its weight stays M / z
        X = np.array([[0.0, 0.0], [1e-7, 0.0], [1.0, 1.0], [2.0, 0.0]])
        g_o, _ = init_graph(X, k=3)
        d = X[0] - X[1]
        weights = {(s, t): w for s, t, w in zip(*edge_columns(g_o))}
        assert weights[(0, 1)] == 2.0 / float(d @ d)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_weight_is_refused_by_name(self):
        # in unit scale z(0, 1) is about 6e-322, a subnormal: the weight
        # M / z overflows to inf, in any units of X
        X = np.array([[0.0, 0.0], [1e-160, 0.0], [1.0, 0.0], [3.0, 0.0]])
        message = (r"^badly scaled measurements: voltage rows 0 and 1 are "
                   r"3\.3\de-161 of max \|X\| apart, .*; merge them$")
        with pytest.raises(ValueError, match=message):
            init_graph(X, k=3)
        with pytest.raises(ValueError, match=message):
            learn(X)

    def test_too_close_pair_is_named_low_row_first(self):
        # row 2 finds row 0 or its copy 1, neither finds row 2: the pair
        # comes only as (2, j), and is named as (j, 2)
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1e-160, 0.0], [1.0, 0.0],
                      [3.0, 0.0]])
        with pytest.raises(ValueError, match=r"^badly scaled measurements: "
                           r"voltage rows [01] and 2 are "):
            init_graph(X, k=1)


class TestRankCandidates:
    def test_fixed_point_zero_sensitivity(self):
        # weight equal to M / z_data makes the edge's sensitivity vanish
        m = 4
        z_data = 0.8
        w = m / z_data
        g = WeightedGraph(2, [0], [1], [w])
        a = np.sqrt(z_data / (4 * m))
        X = np.tile([[a], [-a]], (1, m))  # each column [a, -a]
        s, t = np.array([0]), np.array([1])
        assert float(np.sum((X[0] - X[1]) ** 2)) == pytest.approx(z_data)
        basis = eigensolve_smallest(g, 1)
        assert embedding_distances(basis, s, t)[0] == pytest.approx(1.0 / w)
        _, sens = _rank_candidates(embedding_distances(basis, s, t),
                                   np.array([w]), 1)
        assert sens[0] == pytest.approx(0.0, abs=1e-12)

    def test_arithmetic_from_definitions(self):
        # r = 1/2, z_data = 10, M = 50 (w = 5) -> sensitivity 0.3
        _, sens = _rank_candidates(np.array([0.5]), np.array([50 / 10.0]), 1)
        assert sens[0] == pytest.approx(0.3)

    def test_sensitivity_underestimates_with_fewer_modes(self):
        g = random_connected_graph(20, 25, seed=3)
        X, _ = generate_measurement_set(g, 8, seed=3)
        s, t = np.array([0, 4, 2]), np.array([11, 17, 9])
        w = X.shape[1] / np.sum((X[s] - X[t]) ** 2, axis=1)
        prev = np.full(s.size, -np.inf)
        for modes in (2, 5, 10, 19):  # 19 = full spectrum
            r = embedding_distances(eigensolve_smallest(g, modes), s, t)
            _, sens = _rank_candidates(r, w, s.size)
            assert np.all(sens >= prev - 1e-12)
            prev = sens

    def test_sorted_descending_with_tie_break(self):
        g = random_connected_graph(10, 10, seed=2)
        X, _ = generate_measurement_set(g, 5, seed=2)
        basis = eigensolve_smallest(g, 3)
        s, t = np.triu_indices(10, 1)
        w = X.shape[1] / np.sum((X[s] - X[t]) ** 2, axis=1)
        order, sens = _rank_candidates(embedding_distances(basis, s, t), w,
                                       s.size)
        assert sorted(order) == list(range(s.size))
        ranked = [(-sens[i], s[i], t[i]) for i in order]
        assert ranked == sorted(ranked)

    def test_consistency_invariant(self):
        # On the loop's own pool, duplicate rows (floored z) included:
        # sensitivity = (z_data / M) * (distortion - 1), the distortion
        # M * z_emb / z_data read against the pool weight M / z_data.
        g = random_connected_graph(12, 14, seed=0)
        X = generate_measurement_set(g, 8, seed=1)[0]
        X[5] = X[0]
        g_o, tree = init_graph(X, learner.KNN_COUNT)
        m = X.shape[1]
        z_data = m / g_o.weights
        basis = eigensolve_smallest(tree, 4)
        z_emb = embedding_distances(basis, g_o.sources, g_o.targets)
        _, sens = _rank_candidates(z_emb, g_o.weights, 1)
        distortion = m * z_emb / z_data
        np.testing.assert_allclose(sens, (z_data / m) * (distortion - 1),
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("j", [-20, 20])
    def test_sensitivities_scale_with_the_square_of_x(self, j):
        # X * 2**j: pool weights M / z by 4**-j, the tree's eigenvalues with
        # them, and every sensitivity by 4**j, its rank kept.
        X0, _ = generate_measurement_set(grid_graph(5, 6), 8, seed=2)
        ranked = []
        for X in (X0, X0 * 2.0 ** j):
            g_o, tree = init_graph(X, learner.KNN_COUNT)
            ranked.append(_rank_candidates(embedding_distances(
                eigensolve_smallest(tree, 6), g_o.sources, g_o.targets),
                g_o.weights, g_o.edge_count))
        (order, sens), (order_j, sens_j) = ranked
        np.testing.assert_array_equal(order_j, order)
        np.testing.assert_allclose(sens_j, sens * 4.0 ** j, rtol=1e-12)

    @given(st.data())
    def test_capped_order_is_head_of_full_order(self, data):
        # Few distinct sensitivities over many pairs: ties at the cut.  The
        # pairs come in (s, t) order, as the loop's candidates do, so ties
        # by position are ties by ascending (s, t).
        size = data.draw(st.integers(1, 60))
        sens = data.draw(hnp.arrays(np.float64, size,
                                    elements=st.sampled_from(
                                        [-1.0, -0.0, 0.0, 0.5, 2.0])))
        pairs = sorted(data.draw(st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=size, max_size=size)))
        s, t = (np.asarray(v, dtype=np.int64) for v in zip(*pairs))
        cap = data.draw(st.integers(1, size + 2))
        full = np.lexsort((t, s, -sens))
        np.testing.assert_array_equal(_top_order(sens, cap), full[:cap])

    @pytest.mark.parametrize("size, cap", [(1, 1), (7, 3), (7, 7), (5, 9)])
    def test_ties_go_by_position(self, size, cap):
        for value in (-1.0, 0.0, 2.0):
            np.testing.assert_array_equal(
                _top_order(np.full(size, value), cap),
                np.arange(min(cap, size)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_difference_gradient(self, seed):
        # the sensitivity of a zero-weight candidate, at its exact
        # resistance, equals the derivative of the objective at w -> 0+
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
        z = float(np.sum((X[s] - X[t]) ** 2))
        _, sens = _rank_candidates(effective_resistance(g, [s], [t]),
                                   np.array([m / z]), 1)

        e = np.zeros(n)
        e[s], e[t] = 1.0, -1.0
        h = 1e-6

        def objective(delta):
            L = g.laplacian.toarray() + delta * np.outer(e, e)
            lam = np.linalg.eigvalsh(L)[1:]
            return float(np.log(lam).sum()
                         - np.einsum("ij,ij->", L @ X, X) / m)

        fd = (objective(h) - objective(-h)) / (2 * h)
        assert sens[0] == pytest.approx(fd, rel=1e-4)


class TestEdgeScale:
    def test_identity_at_truth(self):
        g = random_connected_graph(12, 10, seed=1)
        X, Y = generate_measurement_set(g, 6, seed=1)
        scaled = edge_scale(g, X, Y)
        np.testing.assert_allclose(scaled.weights, g.weights, rtol=1e-9)

    def test_restores_doubled_weights(self):
        g = random_connected_graph(10, 8, seed=2)
        X, Y = generate_measurement_set(g, 5, seed=2)
        restored = edge_scale(g.scaled(2.0), X, Y)
        np.testing.assert_allclose(restored.weights, g.weights, rtol=1e-9)

    @pytest.mark.parametrize("c", [0.1, 0.5, 2.0, 10.0])
    def test_restores_tree_scale(self, c):
        g = random_connected_graph(15, 0, seed=3)  # a tree
        X, Y = generate_measurement_set(g, 10, seed=3)
        restored = edge_scale(g.scaled(c), X, Y)
        np.testing.assert_allclose(restored.weights, g.weights, rtol=1e-8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [2.0 ** -1021, 1e-307, 1e-290, 1e-200,
                                   1e200])
    def test_restores_weights_in_any_units(self, s):
        # the solved voltages' norms overflowed at 1e-290 and 1e-200, and
        # underflowed to 0 at 1e200; at 1e-307 and 2**-1021 the sum that
        # centered them overflowed
        X, Y = generate_measurement_set(grid_graph(6, 6), 4, 0)
        restored = edge_scale(grid_graph(6, 6).scaled(s), X, Y)
        np.testing.assert_allclose(restored.weights, 1.0, rtol=1e-12)

    def test_zero_voltage_column_rejected(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        X = np.zeros((2, 1))
        Y = np.array([[1.0], [-1.0]])
        with pytest.raises(ValueError):
            edge_scale(g, X, Y)

    def test_zero_voltage_column_rejected_before_learning(self,
                                                          monkeypatch):
        def no_eigensolve(*args):
            raise AssertionError("learn eigensolved before checking X")

        monkeypatch.setattr(learner, "eigensolve_smallest", no_eigensolve)
        X, Y = generate_measurement_set(grid_graph(6, 6), 5, seed=0)
        X[:, 3] = 0.0
        with pytest.raises(ValueError, match="zero voltage column"):
            learn(X, Y)

    @pytest.mark.parametrize("zeroed, first", [([2], 2), (slice(None), 0)],
                             ids=["one_column", "all_columns"])
    def test_zero_current_column_rejected(self, zeroed, first):
        # A zero current column has no voltage response to match: without
        # the check, one zeroed column of five shrank every learned weight
        # by 0.93, and an all-zero Y failed only at the scale factor.
        g = grid_graph(6, 6)
        X, Y = generate_measurement_set(g, 5, seed=0)
        Y[:, zeroed] = 0.0
        message = f"Y column {first} is all zeros"
        with pytest.raises(ValueError, match=message):
            learn(X, Y)
        with pytest.raises(ValueError, match=message):
            edge_scale(g, X, Y)


def _with_column(a, j, value):
    a = a.copy()
    a[:, j] = value
    return a


class TestMeasurementChecks:
    """``learn`` and ``edge_scale`` check voltages and currents with one
    pair of parsers, so each fault gets one message from both."""

    _X, _Y = generate_measurement_set(grid_graph(4, 4), 5, seed=8)
    ENTRY_POINTS = {
        "learn": lambda X, Y: learn(X, Y),
        "edge_scale": lambda X, Y: edge_scale(grid_graph(4, 4), X, Y),
    }
    # Fault: ((X, Y) made from valid inputs, the message).
    CURRENT_FAULTS = {
        "columns": (lambda X, Y: (X, Y[:, :3]), "X and Y shapes differ"),
        "not-orthogonal": (lambda X, Y: (X, np.ones_like(Y)),
                           "current columns not orthogonal to all-ones"),
        "zero-voltage-column": (lambda X, Y: (_with_column(X, 3, 0.0), Y),
                                "zero voltage column: scaling ratio "
                                "undefined"),
        "no-work": (lambda X, Y: (X, -Y),
                    "Y column 0 does no work on its voltages (x_j^T y_j <= "
                    "0): X and Y are not a voltage/current pair"),
    }

    @pytest.mark.parametrize("fault", CURRENT_FAULTS)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_currents_refused_alike(self, entry, fault):
        make, message = self.CURRENT_FAULTS[fault]
        with pytest.raises(ValueError) as err:
            self.ENTRY_POINTS[entry](*make(self._X, self._Y))
        assert str(err.value) == message

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_column_flushed_by_unit_scale_accepted_alike(self, entry):
        # in unit scale of the whole X, column 1 (2**-300 against 2**900)
        # flushes to zero; the currents are judged on the caller's X
        g = grid_graph(6, 6)
        X, Y = generate_measurement_set(g, 4, 0)
        X[:, 0] *= 2.0 ** 900
        X[:, 1] *= 2.0 ** -300
        assert not np.any(graphs._unit_scale(X)[0][:, 1])
        if entry == "learn":
            learned, trace = learn(X, Y)
            assert trace.status == "converged"
        else:
            learned = edge_scale(g, X, Y)
        assert learned.node_count == g.node_count

    @pytest.mark.parametrize("shape", ["one-row", "no-columns"])
    @pytest.mark.parametrize("entry", ["learn", "init_graph"])
    def test_voltage_shape_refused_alike(self, entry, shape):
        X = self._X[:1] if shape == "one-row" else self._X[:, :0]
        call = learn if entry == "learn" else lambda X: init_graph(X, 5)
        with pytest.raises(ValueError) as err:
            call(X)
        assert str(err.value) == "X must be (N >= 2, M >= 1)"


class TestPassivity:
    """A resistor network is passive: each current column does positive
    work on its voltages, ``x_j^T y_j = y_j^T L^+ y_j > 0``."""

    _g = grid_graph(30, 30)
    _X, _Y = generate_measurement_set(_g, 50, 0)
    MISMATCHED = {
        "columns-permuted": lambda X, Y: Y[
            :, np.random.default_rng(0).permutation(Y.shape[1])],
        "currents-of-seed-1": lambda X, Y: generate_measurement_set(
            TestPassivity._g, 50, 1)[1],
        "rows-permuted": lambda X, Y: Y[
            np.random.default_rng(0).permutation(Y.shape[0])],
    }

    @pytest.mark.parametrize("case", MISMATCHED)
    def test_mismatched_currents_refused_naming_the_first_idle_column(
            self, case):
        Y = self.MISMATCHED[case](self._X, self._Y)
        idle = np.flatnonzero(np.einsum("ij,ij->j", self._X, Y) <= 0)
        assert idle.size
        with pytest.raises(ValueError,
                           match=rf"^Y column {idle[0]} does no work .* X "
                                 "and Y are not a voltage/current pair$"):
            learner._as_currents(Y, self._X)

    @pytest.mark.parametrize("zeta", [0.1, 0.5, 1.0])
    def test_noisy_voltages_accepted(self, zeta):
        X = add_noise(self._X, zeta, 1)
        assert learner._as_currents(self._Y, X) is self._Y

    def test_jl_measurements_accepted(self):
        X, Y = generate_jl_measurements(self._g, 0.5, 0)
        assert learner._as_currents(Y, X) is Y

    def test_work_taken_in_unit_scale(self):
        # x_j^T y_j overflows to inf - inf = nan at these units, and nan
        # compares as neither sign
        X, Y = generate_measurement_set(grid_graph(4, 4), 3, 0)
        with pytest.raises(ValueError, match="Y column 0 does no work"):
            learner._as_currents(-Y * 2.0 ** 1000, X * 2.0 ** 1000)


class TestScaling:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("factor", [1e155, 1e-200],
                             ids=["weights-underflow", "weights-overflow"])
    def test_weights_past_the_float_range_are_refused_by_name(self, factor):
        # X learns in unit scale, but its weights in X's units, times about
        # 1e-310 or 1e400, are not normal floats
        X, _ = generate_measurement_set(grid_graph(6, 6), 10, 0)
        with pytest.raises(ValueError, match="^badly scaled measurements: "
                                             "the weights in the units of X"):
            learn(X * factor)

    def test_genuine_solve_failure_still_raises_solver_error(self,
                                                             monkeypatch):
        # edge_scale lets a failed solve through with its type.
        def inaccurate(g, b):
            raise SolverError("relative residual 2e-10")

        monkeypatch.setattr(learner, "solve_laplacian", inaccurate)
        X, Y = generate_measurement_set(grid_graph(6, 6), 10, 0)
        with pytest.raises(SolverError, match="relative residual 2e-10"):
            edge_scale(grid_graph(6, 6), X, Y)

    @pytest.mark.parametrize("rows, m, factor", [
        (6, 10, 1e154), (6, 10, 2e154), (30, 50, 1e153),
    ], ids=["1e+154", "2e+154", "grid30-1e+153"])
    def test_large_representable_scale_still_converges(self, rows, m,
                                                       factor):
        X, _ = generate_measurement_set(grid_graph(rows, rows), m, 0)
        _, trace = learn(X * factor)
        assert trace.status == "converged"

    @pytest.mark.parametrize("rows, m, factor, currents", [
        # Each was refused while learning ran in the units of X:
        # edge_scale's voltage norms overflowed
        (6, 10, 1e150, True),
        # the weights M / z reached 4.8e303, whose squares overflowed in
        # the eigenpair residual norms
        (6, 10, 1e-150, False),
        # edge_scale's solved voltages overflowed on weights near 1e-307
        (6, 10, 2e154, True),
        # L^+ overflowed in Lanczos on weights near 1e-305, or edge_scale
        # refused the loop's result
        (30, 50, 1e153, True), (30, 50, 1e154, False), (30, 50, 1e154, True),
        (30, 50, 1e-150, False),
    ], ids=["norm-overflow", "weight-square-overflow", "solve-overflow",
            "grid30-1e+153-currents", "grid30-1e+154",
            "grid30-1e+154-currents", "grid30-1e-150"])
    def test_off_unit_scales_learn_the_unit_scale_edges(self, rows, m,
                                                        factor, currents):
        X, Y = generate_measurement_set(grid_graph(rows, rows), m, 0)
        Y = Y if currents else None
        (g1, t1), (g2, t2) = learn(X, Y), learn(X * factor, Y)
        np.testing.assert_array_equal(g2.sources, g1.sources)
        np.testing.assert_array_equal(g2.targets, g1.targets)
        np.testing.assert_allclose(
            g2.weights, g1.weights / factor ** (1 if currents else 2),
            rtol=1e-9)
        assert t2.status == t1.status == "converged"

    @pytest.mark.parametrize("j", [-26, -30, -100])
    def test_small_units_learn_the_unit_scale_graph(self, j):
        # in the units of X, the eigensolves failed from X * 1.5e-8 down
        X, _ = generate_measurement_set(grid_graph(40, 40), 50, seed=0)
        (g1, t1), (g2, t2) = learn(X), learn(np.ldexp(X, j))
        np.testing.assert_array_equal(g2.sources, g1.sources)
        np.testing.assert_array_equal(g2.targets, g1.targets)
        np.testing.assert_array_equal(g2.weights, np.ldexp(g1.weights, -2 * j))
        np.testing.assert_array_equal(t2.s_max_history, t1.s_max_history)

    @pytest.mark.parametrize("factor", [1e-300, 1e-160, 1e250])
    def test_currents_in_any_units_scale_the_weights(self, factor):
        # in the units of Y, Y * 1e-300 read as all zeros, 1e-160 gave no
        # finite norm ratio and 1e250 overflowed
        X, Y = generate_measurement_set(grid_graph(6, 6), 8, seed=0)
        (g1, t1), (g2, t2) = learn(X, Y), learn(X, Y * factor)
        np.testing.assert_array_equal(g2.sources, g1.sources)
        np.testing.assert_array_equal(g2.targets, g1.targets)
        np.testing.assert_allclose(g2.weights, g1.weights * factor,
                                   rtol=1e-12)
        np.testing.assert_array_equal(t2.s_max_history, t1.s_max_history)


class TestLearn:
    def test_two_node_truth_recovered(self):
        g = WeightedGraph(2, [0], [1], [1.3])
        X, Y = generate_measurement_set(g, 5, seed=0)
        learned, trace = learn(X, Y)
        assert learned.edge_count == 1
        assert edge_columns(learned)[:2] == ([0], [1])
        assert learned.weights[0] == pytest.approx(1.3, rel=1e-6)
        assert trace.status == "candidate_pool_exhausted"

    def test_tree_truth_converges_at_first_iteration(self):
        # The seed spanning tree of a path's voltages is the path; no
        # candidate's sensitivity is then positive.
        g = grid_graph(1, 20)
        X, _ = generate_measurement_set(g, 20, seed=1)
        learned, trace = learn(X, None)
        assert trace.status == "converged"
        assert trace.iterations == 1
        assert trace.records[0].s_max < 0
        assert edge_columns(learned) == edge_columns(init_graph(X, 5)[1])
        assert learned.edge_count == g.node_count - 1

    def test_loop_holds_no_unit_scale_copy_of_x(self, monkeypatch):
        # X * 4 differs from X, in unit scale, by a power of two alone: learn
        # works on a scaled copy of it and does X's work bit for bit.  Once
        # init_graph returns, the loop holds no more memory than on X.
        X, _ = generate_measurement_set(grid_graph(20, 20), 100, seed=0)
        X, _ = graphs._unit_scale(X)
        X4 = X * 4
        held = []
        eigensolve = learner.eigensolve_smallest

        def tracing(g, count):
            held.append(tracemalloc.get_traced_memory()[0])
            return eigensolve(g, count)

        monkeypatch.setattr(learner, "eigensolve_smallest", tracing)
        learn(X)  # first-use allocations happen outside the trace
        first = []
        tracemalloc.start()
        try:
            for A in (X, X4):
                held.clear()
                learn(A)
                first.append(held[0])
        finally:
            tracemalloc.stop()
        assert first[1] - first[0] < X.nbytes / 2

    def test_max_iterations_status(self, monkeypatch):
        g = grid_graph(6, 6)
        X, _ = generate_measurement_set(g, 20, seed=2)
        monkeypatch.setattr(learner, "MAX_ITERATIONS", 2)
        learned, trace = learn(X, None)
        assert trace.status == "max_iterations"
        assert trace.iterations == 2

    def test_grid_end_to_end_quality(self):
        # 8x8 grid protocol: converged, near-tree density, resistances
        # correlated with the truth (frozen floor from the dense oracle)
        g = grid_graph(8, 8)
        X, Y = generate_measurement_set(g, 50, seed=0)
        learned, trace = learn(X, Y)
        assert trace.status == "converged"
        assert trace.records[-1].s_max <= 1e-12
        assert learned.edge_count <= 2 * g.node_count
        _, _, _, corr = resistance_correlation(g, learned, 5000, seed=0)
        assert corr >= 0.85

    def test_learned_edges_are_weighted_candidates(self):
        # every learned edge is a candidate edge with weight M / z_data, and
        # the seed tree survives
        g = grid_graph(7, 7)
        X, _ = generate_measurement_set(g, 20, seed=11)
        learned, _ = learn(X, None)
        g_o, tree = init_graph(X, learner.KNN_COUNT)
        candidates = {(s, t): w for s, t, w in zip(*edge_columns(g_o))}
        m = X.shape[1]
        for s, t, w in zip(*edge_columns(learned)):
            assert candidates[(s, t)] == w
            z_data = np.sum((X[s] - X[t]) ** 2)
            assert w == pytest.approx(m / z_data, rel=1e-12)
        assert set(zip(*edge_columns(tree))) <= set(
            zip(*edge_columns(learned)))
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
        assert is_connected(learned)
        g_o, _ = init_graph(X, learner.KNN_COUNT)
        assert set(zip(*edge_columns(learned))) <= set(
            zip(*edge_columns(g_o)))

    def test_grid_with_copied_rows_converges(self):
        # five rows equal to row 0: electrically equivalent nodes
        X, _ = generate_measurement_set(grid_graph(6, 6), 10, 0)
        X[1:6] = X[0]
        learned, trace = learn(X, None)
        assert trace.status == "converged"
        assert is_connected(learned)

    def test_trace_monotonic_edge_counts(self):
        g = grid_graph(7, 7)
        X, Y = generate_measurement_set(g, 30, seed=3)
        _, trace = learn(X, Y)
        counts = [r.edge_count for r in trace.records]
        assert counts == sorted(counts)
        assert [r.iteration for r in trace.records] == list(
            range(1, len(counts) + 1))

    def test_determinism(self):
        g = grid_graph(6, 6)
        X, Y = generate_measurement_set(g, 25, seed=4)
        g1, t1 = learn(X, Y)
        g2, t2 = learn(X, Y)
        assert edge_columns(g1) == edge_columns(g2)
        assert t1.s_max_history.tolist() == t2.s_max_history.tolist()

    def test_memory_layout_leaves_the_bits_alone(self):
        # The CLI reads column-major matrices; the library is usually handed
        # row-major ones.
        X, Y = map(np.ascontiguousarray,
                   generate_measurement_set(grid_graph(6, 6), 8, seed=1))
        g_c, _ = learn(X, Y)
        g_f, _ = learn(np.asfortranarray(X), np.asfortranarray(Y))
        assert edge_columns(g_f) == edge_columns(g_c)

    def test_grid30_learns_alike_in_small_units(self):
        # Every sensitivity scales by c**2 with X and keeps its sign, so the
        # loop stops at the same iteration in any units.
        X, _ = generate_measurement_set(grid_graph(30, 30), 50, seed=0)
        g1, t1 = learn(X, None)
        g2, t2 = learn(X * 2.0 ** -20, None)
        assert g2.edge_count == g1.edge_count == 921
        np.testing.assert_array_equal(g2.sources, g1.sources)
        np.testing.assert_array_equal(g2.targets, g1.targets)
        np.testing.assert_array_equal(g2.weights, g1.weights * 2.0 ** 40)
        assert t2.status == t1.status == "converged"

    @pytest.mark.parametrize("factor", [100.0, 1e-6])
    @pytest.mark.parametrize("use_currents", [False, True])
    def test_scale_equivariant_topology(self, factor, use_currents):
        # At 1e-6 every sensitivity is below 1e-12 in magnitude, so a loop
        # with an absolute tolerance of that size would keep the seed tree.
        g = grid_graph(6, 6)
        X, Y = generate_measurement_set(g, 25, seed=5)
        Y = Y if use_currents else None
        g1, _ = learn(X, Y)
        g2, _ = learn(factor * X, Y)
        assert edge_columns(g1)[:2] == edge_columns(g2)[:2]
        assert g2.edge_count > g.node_count - 1
        np.testing.assert_allclose(
            g2.weights, g1.weights / factor ** (1 if use_currents else 2),
            rtol=1e-9)

    def test_reduced_learning_without_currents(self):
        g = grid_graph(8, 8)
        X, _ = generate_measurement_set(g, 50, seed=6)
        Xr, kept = subsample_nodes(X, 0.25, seed=6)
        learned, trace = learn(Xr, None)
        assert learned.node_count == 16
        assert is_connected(learned)
        assert trace.status in ("converged", "candidate_pool_exhausted")

    def test_converged_distortion_bound(self):
        # The loop's own stop rule: at convergence no pool edge left out has
        # a positive sensitivity (distortion M * z_emb / z_data above 1).
        g = grid_graph(7, 7)
        n = g.node_count
        X, Y = generate_measurement_set(g, 30, seed=7)
        _, trace = learn(X, Y)
        assert trace.status == "converged"
        unscaled, _ = learn(X, None)
        g_o, _ = init_graph(X, learner.KNN_COUNT)
        out = ~np.isin(g_o.sources * n + g_o.targets,
                       unscaled.sources * n + unscaled.targets)
        assert np.any(out)
        basis = eigensolve_smallest(unscaled, learner.MODE_COUNT)
        _, sens = _rank_candidates(
            embedding_distances(basis, g_o.sources[out], g_o.targets[out]),
            g_o.weights[out], 1)
        assert np.all(sens <= 0)

    def test_rejects_mismatched_currents(self):
        g = grid_graph(4, 4)
        X, Y = generate_measurement_set(g, 5, seed=8)
        with pytest.raises(ValueError):
            learn(X, Y[:, :3])
        with pytest.raises(ValueError):
            learn(X, np.ones_like(Y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_measurements(self, bad):
        g = grid_graph(4, 4)
        X, Y = generate_measurement_set(g, 5, seed=8)
        Y[3, 2] = bad
        with pytest.raises(ValueError, match="Y must be finite"):
            learn(X, Y)
        X[3, 2] = bad
        with pytest.raises(ValueError, match="X must be finite"):
            learn(X, None)

    def test_max_iterations_is_ten_sweeps_of_the_budget(self):
        # the cap gives every candidate ten chances at the ceil(N * beta)
        # budget: 10 * ceil(1 / beta)
        assert learner.MAX_ITERATIONS == 10 * math.ceil(
            1.0 / learner.BETA_SAMPLE)

    def test_candidate_pool_reads_knn_count(self, monkeypatch):
        X, _ = generate_measurement_set(grid_graph(7, 7), 20, seed=3)
        pool = set(zip(*edge_columns(init_graph(X, 1)[0])))
        learned, _ = learn(X, None)
        assert not set(zip(*edge_columns(learned))) <= pool
        monkeypatch.setattr(learner, "KNN_COUNT", 1)
        learned, _ = learn(X, None)
        assert set(zip(*edge_columns(learned))) <= pool

    def test_inclusion_budget_reads_beta_sample(self, monkeypatch):
        # N = 49: ceil(N * 1e-3) = 1 edge per iteration, ceil(N * 0.1) = 5
        X, _ = generate_measurement_set(grid_graph(7, 7), 20, seed=3)
        n = X.shape[0]
        for beta in (learner.BETA_SAMPLE, 0.1):
            monkeypatch.setattr(learner, "BETA_SAMPLE", beta)
            _, trace = learn(X, None)
            counts = [n - 1] + [r.edge_count for r in trace.records]
            assert max(np.diff(counts)) == math.ceil(n * beta)

    def test_eigenpair_count_reads_mode_count(self, monkeypatch):
        counts = []
        original = learner.eigensolve_smallest

        def recording(g, count, *args, **kwargs):
            counts.append(count)
            return original(g, count, *args, **kwargs)

        monkeypatch.setattr(learner, "eigensolve_smallest", recording)
        X, _ = generate_measurement_set(grid_graph(7, 7), 20, seed=3)
        learn(X, None)
        assert set(counts) == {learner.MODE_COUNT}
        counts.clear()
        monkeypatch.setattr(learner, "MODE_COUNT", 2)
        learn(X, None)
        assert set(counts) == {2}

    def test_mode_count_capped_at_small_graphs(self):
        # MODE_COUNT = 4 still works on a 3-node truth (modes cap at N - 1)
        g = WeightedGraph(3, [0, 1], [1, 2], [1.0, 1.0])
        X, _ = generate_measurement_set(g, 4, seed=9)
        learned, trace = learn(X, None)
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

        X, Y = generate_measurement_set(grid_graph(12, 12), 8, seed=0)
        monkeypatch.setattr(graphs, "connected_components", counting)
        learned, trace = learn(X, Y)
        assert trace.iterations > 1
        assert is_connected(learned)
        assert calls == []


class TestLearnProperties:
    @settings(max_examples=30)
    @given(learn_inputs())
    def test_two_runs_are_bit_identical(self, inputs):
        (g1, t1), (g2, t2) = learn(*inputs), learn(*inputs)
        np.testing.assert_array_equal(g1.sources, g2.sources)
        np.testing.assert_array_equal(g1.targets, g2.targets)
        np.testing.assert_array_equal(g1.weights, g2.weights)
        np.testing.assert_array_equal(t1.s_max_history, t2.s_max_history)

    @settings(max_examples=30)
    @given(learn_inputs())
    def test_connected_with_a_documented_status(self, inputs):
        graph, trace = learn(*inputs)
        assert is_connected(graph)
        assert trace.status in ("converged", "candidate_pool_exhausted",
                                "max_iterations")
        counts = [r.edge_count for r in trace.records]
        assert counts == sorted(counts)

    @settings(max_examples=30)
    @given(learn_inputs(), st.data())
    def test_scaling_x_by_a_power_of_two_scales_the_weights(self, inputs,
                                                            data):
        # X and Y learn in unit scale, so every power of two that keeps
        # them exact gives the same edges and s_max history; the weights
        # come back times 4**-j without Y and 2**(k - j) with it, or are
        # refused where that leaves the normal floats.
        X, Y = inputs
        j = data.draw(exact_powers_of_two(X), label="j")
        k = 0 if Y is None else data.draw(exact_powers_of_two(Y), label="k")
        Y2 = None if Y is None else np.ldexp(Y, k)
        g1, t1 = learn(X, Y)
        power = -2 * j if Y is None else k - j
        with np.errstate(over="ignore"):
            expected = np.ldexp(g1.weights, power)
        if not np.all((expected >= np.finfo(float).tiny)
                      & (expected < np.inf)):
            with pytest.raises(ValueError,
                               match="^badly scaled measurements"):
                learn(np.ldexp(X, j), Y2)
            return
        g2, t2 = learn(np.ldexp(X, j), Y2)
        np.testing.assert_array_equal(g2.sources, g1.sources)
        np.testing.assert_array_equal(g2.targets, g1.targets)
        np.testing.assert_array_equal(g2.weights, expected)
        np.testing.assert_array_equal(t2.s_max_history, t1.s_max_history)
        assert t2.status == t1.status

    @pytest.mark.parametrize("side, m", [(12, 10), (15, 8)])
    @pytest.mark.parametrize("use_currents", [False, True])
    @pytest.mark.parametrize("j", [-500, -20, 20, 500])
    def test_power_of_two_scaling_on_the_lanczos_backend(self, side, m,
                                                         use_currents, j):
        # the property above never draws more than DENSE_EIG_LIMIT nodes
        assert side * side > DENSE_EIG_LIMIT
        X, Y = generate_measurement_set(grid_graph(side, side), m, seed=0)
        Y = Y if use_currents else None
        (g1, t1), (g2, t2) = learn(X, Y), learn(np.ldexp(X, j), Y)
        assert g2.edge_count > side * side - 1
        np.testing.assert_array_equal(g2.sources, g1.sources)
        np.testing.assert_array_equal(g2.targets, g1.targets)
        power = -j if use_currents else -2 * j
        np.testing.assert_array_equal(g2.weights, np.ldexp(g1.weights, power))
        np.testing.assert_array_equal(t2.s_max_history, t1.s_max_history)
        assert t2.status == t1.status

    @settings(max_examples=10)
    @given(permuted_clouds())
    def test_permuting_the_nodes_permutes_the_graph(self, inputs):
        # Each pool weight is M / z of the same two rows, so it comes back
        # bit for bit; only the k-d tree's order among tied rows could
        # differ, and normal rows do not tie.
        X, p = inputs
        assert relabelled_edges(learn(X[p])[0], p) == edge_columns(
            learn(X)[0])

    @pytest.mark.parametrize("use_currents", [False, True])
    def test_permuting_a_grid_permutes_the_graph(self, use_currents):
        # N = 144 takes Lanczos; with currents, edge scaling sums the
        # solved voltages in another order, so weights agree to rounding.
        X, Y = generate_measurement_set(grid_graph(12, 12), 10, seed=0)
        p = np.random.default_rng(1).permutation(144)
        Y = Y if use_currents else None
        expected = edge_columns(learn(X, Y)[0])
        got = relabelled_edges(
            learn(X[p], None if Y is None else Y[p])[0], p)
        assert got[:2] == expected[:2]
        rtol = 1e-12 if use_currents else 0.0
        np.testing.assert_allclose(got[2], expected[2], rtol=rtol)

    @settings(max_examples=30)
    @given(learn_inputs())
    def test_voltages_only_edges_come_from_the_pool(self, inputs):
        # without currents no edge scaling: every edge keeps its pool weight
        X, _ = inputs
        graph, _ = learn(X)
        pool, _ = init_graph(X, 5)
        weight = {(s, t): w for s, t, w in zip(*edge_columns(pool))}
        for s, t, w in zip(*edge_columns(graph)):
            assert weight[(s, t)] == w
