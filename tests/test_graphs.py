import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reslearn import graphs
from reslearn.graphs import (
    DisconnectedGraphError,
    WeightedGraph,
    build_laplacian,
    effective_resistance,
    grid_graph,
    is_connected,
    maximum_spanning_tree,
    quadratic_form,
)
from reslearn.spectral import eigensolve_smallest, solve_laplacian

from _oracles import (
    brute_force_mst_weight,
    dense_laplacian,
    dense_resistance,
    random_connected_graph,
    reference_maximum_spanning_tree,
)


@st.composite
def tied_graphs(draw):
    """Graphs on 1..12 nodes with weights 1 or 2, so most weights tie: a
    spanning tree over a drawn node order (left out in a quarter of the
    draws, which may leave the graph disconnected) plus extra edges."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    pairs = set()
    if draw(st.integers(0, 3)):
        for i in range(1, n):
            j = draw(st.integers(0, i - 1))
            pairs.add((min(order[i], order[j]), max(order[i], order[j])))
    if n > 1:
        node = st.integers(0, n - 1)
        for a, b in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
            if a != b:
                pairs.add((min(a, b), max(a, b)))
    weight = st.sampled_from([1.0, 2.0])
    return WeightedGraph.from_edges(
        n, [(s, t, draw(weight)) for s, t in sorted(pairs)])


class TestWeightedGraph:
    def test_canonical_orientation(self):
        g = WeightedGraph.from_edges(3, [(2, 0, 1.5), (1, 0, 2.0)])
        assert g.edge_list() == [(0, 1, 2.0), (0, 2, 1.5)]

    def test_duplicate_replaces_last_wins(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 3.0)])
        assert g.edge_list() == [(0, 1, 3.0)]

    def test_with_edges_replaces(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        g2 = g.with_edges([(0, 1, 5.0), (0, 2, 1.0)])
        assert g2.edge_list() == [(0, 1, 5.0), (0, 2, 1.0), (1, 2, 2.0)]
        # original untouched
        assert g.edge_list() == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(1, 1, 1.0)])

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(0, 1, -2.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(2, [(0, 2, 1.0)])

    def test_immutability(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            g.weights[0] = 7.0

    def test_scaled(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 2.0)])
        assert g.scaled(0.5).edge_list() == [(0, 1, 1.0)]


class TestLaplacian:
    def test_two_node_apply(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        lap = build_laplacian(g)
        np.testing.assert_allclose(lap.apply([1.0, -1.0]), [2.0, -2.0])

    def test_nullspace(self):
        g = random_connected_graph(17, 20, seed=3)
        lap = build_laplacian(g)
        np.testing.assert_allclose(lap.apply(np.ones(17)), 0.0, atol=1e-12)

    def test_triangle_apply(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        np.testing.assert_allclose(build_laplacian(g).apply([1.0, 0.0, 0.0]),
                                   [2.0, -1.0, -1.0])

    def test_matches_dense_assembly(self):
        g = random_connected_graph(12, 15, seed=5)
        np.testing.assert_allclose(build_laplacian(g).matrix.toarray(),
                                   dense_laplacian(g))

    def test_symmetry_and_psd(self):
        g = random_connected_graph(20, 30, seed=1)
        lap = build_laplacian(g)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(20)
            y = rng.standard_normal(20)
            assert np.isclose(x @ lap.apply(y), y @ lap.apply(x))
            assert x @ lap.apply(x) >= -1e-12


class TestOneLaplacianPerGraph:
    def test_operator_is_cached_on_the_graph(self):
        g = random_connected_graph(12, 15, seed=5)
        assert build_laplacian(g) is build_laplacian(g)

    def test_derived_graphs_get_their_own_operator(self):
        g = random_connected_graph(12, 15, seed=5)
        b = np.zeros(12)
        b[[0, 7]] = 1.0, -1.0
        x = solve_laplacian(build_laplacian(g), b)
        halved = solve_laplacian(build_laplacian(g.scaled(2.0)), b)
        np.testing.assert_allclose(halved, x / 2, rtol=1e-10, atol=1e-14)
        for derived in (g.scaled(2.0), g.with_edges([(0, 11, 3.0)]),
                        maximum_spanning_tree(g)):
            lap = build_laplacian(derived)
            assert lap is not build_laplacian(g)
            np.testing.assert_allclose(lap.matrix.toarray(),
                                       dense_laplacian(derived))

    def test_components_computed_once(self, monkeypatch):
        calls = []
        original = graphs.connected_components

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(graphs, "connected_components", counting)
        g = grid_graph(6, 6)
        b = np.zeros(36)
        b[[0, 35]] = 1.0, -1.0
        assert is_connected(g)[0]
        solve_laplacian(build_laplacian(g), b)
        effective_resistance(g, [(0, 5), (3, 30)])
        eigensolve_smallest(build_laplacian(g), 3)
        assert len(calls) == 1

    def test_disconnected_raises_on_every_call(self):
        g = WeightedGraph.from_edges(
            6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        b = np.zeros(6)
        b[[0, 2]] = 1.0, -1.0
        for _ in range(2):
            with pytest.raises(DisconnectedGraphError) as err:
                solve_laplacian(build_laplacian(g), b)
            assert err.value.n_components == 3
            with pytest.raises(DisconnectedGraphError) as err:
                eigensolve_smallest(build_laplacian(g), 2)
            assert err.value.n_components == 3

    def test_component_labels_are_read_only(self):
        _, labels = is_connected(WeightedGraph.from_edges(3, [(0, 1, 1.0)]))
        with pytest.raises(ValueError):
            labels[0] = 5

    def test_factored_graph_freed_without_cycle_collector(self):
        # The operator must not point back at its graph: a cycle would keep
        # the graph, its matrix and its factor alive until the cyclic GC.
        g = grid_graph(15, 15)  # 225 nodes: the iterative, factored path
        eigensolve_smallest(build_laplacian(g), 3)
        assert build_laplacian(g)._factor is not None
        graph_ref = weakref.ref(g)
        operator_ref = weakref.ref(build_laplacian(g))
        gc.disable()
        try:
            del g
            assert graph_ref() is None
            assert operator_ref() is None
        finally:
            gc.enable()


class TestQuadraticForm:
    def test_two_node(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        assert quadratic_form(g, [0.0, 1.0]) == pytest.approx(1.0)

    def test_constant_signal(self):
        g = random_connected_graph(9, 5, seed=2)
        assert quadratic_form(g, np.full(9, 3.7)) == 0.0

    def test_triangle_hand_value(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert quadratic_form(g, [1.0, 2.0, 4.0]) == pytest.approx(14.0)

    def test_dimension_mismatch(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            quadratic_form(g, [1.0, 2.0, 3.0])

    def test_agrees_with_operator(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            g = random_connected_graph(15, 12, seed=seed)
            x = rng.standard_normal(15)
            qf = quadratic_form(g, x)
            assert qf == pytest.approx(x @ build_laplacian(g).apply(x),
                                       rel=1e-10)


class TestEffectiveResistance:
    def test_series_path(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert effective_resistance(g, [(0, 2)])[0] == pytest.approx(2.0)

    def test_single_edge_inverse_weight(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 2.0)])
        assert effective_resistance(g, [(0, 1)])[0] == pytest.approx(0.5)

    def test_triangle_parallel(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        for pair in [(0, 1), (1, 2), (0, 2)]:
            assert effective_resistance(g, [pair])[0] == pytest.approx(2 / 3)

    def test_disconnected_raises(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            effective_resistance(g, [(0, 2)])

    def test_same_node_raises(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            effective_resistance(g, [(1, 1)])

    @pytest.mark.parametrize("pairs, match", [
        ([(0.7, 1)], "pairs of integer node indices"),
        ([(True, 2)], "pairs of integer node indices"),
        ([(0, 1, 2)], "pairs of integer node indices"),
        ([(0, 3)], "out of range"),
        ([(-1, 1)], "out of range"),
        ([(0, 1), (2, 2)], "joins a node to itself"),
    ])
    def test_rejects_bad_pairs(self, pairs, match):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match=match):
            effective_resistance(g, pairs)

    def test_accepts_integer_arrays(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        pairs = np.array([[0, 2], [2, 1]], dtype=np.int32)
        assert effective_resistance(g, pairs) == pytest.approx([2.0, 1.0])
        assert effective_resistance(g, []) == []

    def test_metric_properties(self):
        for seed in range(4):
            g = random_connected_graph(18, 25, seed=seed)
            rng = np.random.default_rng(seed)
            nodes = rng.choice(18, size=3, replace=False)
            a, b, c = (int(v) for v in nodes)
            rab, rba, rbc, rac = effective_resistance(
                g, [(a, b), (b, a), (b, c), (a, c)])
            assert rab == pytest.approx(rba, rel=1e-10)
            assert rab > 0
            assert rac <= rab + rbc + 1e-10

    def test_rayleigh_monotonicity(self):
        for seed in range(4):
            g = random_connected_graph(14, 10, seed=10 + seed)
            rng = np.random.default_rng(seed)
            existing = set(zip(g.sources.tolist(), g.targets.tolist()))
            while True:
                s, t = (int(v) for v in rng.integers(0, 14, 2))
                if s != t and (min(s, t), max(s, t)) not in existing:
                    break
            pairs = [(i, j) for i in range(14) for j in range(i + 1, 14)]
            before = effective_resistance(g, pairs)
            after = effective_resistance(
                g.with_edges([(s, t, 1.0)]), pairs)
            assert np.all(np.asarray(after) <= np.asarray(before) + 1e-10)

    def test_matches_dense_oracle(self):
        g = random_connected_graph(25, 40, seed=8)
        pairs = [(0, 1), (3, 17), (5, 24), (10, 11)]
        np.testing.assert_allclose(effective_resistance(g, pairs),
                                   dense_resistance(g, pairs), rtol=1e-9)

    def test_more_pairs_than_one_block(self):
        g = random_connected_graph(40, 60, seed=12)
        pairs = [(i, j) for i in range(40) for j in range(i + 1, 40)]
        assert len(pairs) > graphs._RESISTANCE_BLOCK
        np.testing.assert_allclose(effective_resistance(g, pairs),
                                   dense_resistance(g, pairs), rtol=1e-9)


class TestMaximumSpanningTree:
    def test_triangle_keeps_heaviest(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 1.0)])
        t = maximum_spanning_tree(g)
        assert t.edge_list() == [(0, 1, 3.0), (1, 2, 2.0)]

    def test_tree_input_identity(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 5.0), (1, 3, 2.0)])
        assert maximum_spanning_tree(g).edge_list() == g.edge_list()

    def test_four_cycle_drops_lightest(self):
        g = WeightedGraph.from_edges(
            4, [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 4.0), (0, 3, 3.0)])
        t = maximum_spanning_tree(g)
        assert (1, 2, 1.0) not in t.edge_list()
        assert t.edge_count == 3

    def test_matches_brute_force(self):
        for seed in range(6):
            g = random_connected_graph(7, 8, seed=seed)
            t = maximum_spanning_tree(g)
            assert t.edge_count == 6
            assert t.weights.sum() == pytest.approx(brute_force_mst_weight(g))

    def test_deterministic_tie_break(self):
        # all weights equal: prefer lexicographically smaller (s, t)
        g = WeightedGraph.from_edges(
            3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        t = maximum_spanning_tree(g)
        assert t.edge_list() == [(0, 1, 1.0), (0, 2, 1.0)]

    def test_disconnected_reports_components(self):
        g = WeightedGraph.from_edges(5, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError) as err:
            maximum_spanning_tree(g)
        assert err.value.n_components == 3

    def test_single_node(self):
        t = maximum_spanning_tree(WeightedGraph.from_edges(1, []))
        assert t.node_count == 1 and t.edge_count == 0

    @given(tied_graphs())
    def test_matches_reference_kruskal(self, g):
        kept, components = reference_maximum_spanning_tree(g)
        if components > 1:
            with pytest.raises(DisconnectedGraphError) as err:
                maximum_spanning_tree(g)
            assert err.value.n_components == components
        else:
            assert maximum_spanning_tree(g).edge_list() == kept


class TestConnectivity:
    def test_single_edge(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        ok, labels = is_connected(g)
        assert ok and len(set(labels.tolist())) == 1

    def test_no_edges(self):
        g = WeightedGraph.from_edges(2, [])
        ok, labels = is_connected(g)
        assert not ok
        assert sorted(set(labels.tolist())) == [0, 1]

    def test_two_triangles(self):
        g = WeightedGraph.from_edges(
            6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])
        ok, labels = is_connected(g)
        assert not ok
        assert len(set(labels.tolist())) == 2


def test_grid_graph_shape():
    g = grid_graph(3, 4)
    assert g.node_count == 12
    assert g.edge_count == 3 * 3 + 2 * 4  # horizontal + vertical
    assert is_connected(g)[0]
