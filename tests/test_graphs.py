import functools
import gc
import operator
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from reslearn import graphs
from reslearn.graphs import (
    DisconnectedGraphError,
    WeightedGraph,
    effective_resistance,
    grid_graph,
    is_connected,
    maximum_spanning_tree,
    quadratic_form,
)
from reslearn.learner import edge_scale, init_graph, learn
from reslearn.measurements import (
    add_noise,
    generate_measurement_set,
    simulate_voltages,
    subsample_nodes,
)
from reslearn.spectral import (
    eigensolve_smallest,
    objective_value,
    solve_laplacian,
)

from _oracles import (
    brute_force_mst_weight,
    dense_laplacian,
    dense_resistance,
    edge_columns,
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
    pairs = sorted(pairs)
    return WeightedGraph(n, [s for s, _ in pairs], [t for _, t in pairs],
                         [draw(weight) for _ in pairs])


class TestWeightedGraph:
    def test_canonical_orientation(self):
        g = WeightedGraph(3, [2, 1], [0, 0], [1.5, 2.0])
        assert edge_columns(g) == ([0, 0], [1, 2], [2.0, 1.5])

    def test_duplicate_replaces_last_wins(self):
        g = WeightedGraph(3, [0, 1], [1, 0], [1.0, 3.0])
        assert edge_columns(g) == ([0], [1], [3.0])

    def test_with_edges_replaces(self):
        # (0, 1) is in g; (0, 2) is given twice, the last time reversed
        g = WeightedGraph(3, [0, 1], [1, 2], [1.0, 2.0])
        g2 = g.with_edges([0, 0, 2], [1, 2, 0], [5.0, 1.0, 3.0])
        assert edge_columns(g2) == ([0, 0, 1], [1, 2, 2], [5.0, 3.0, 2.0])
        # original untouched
        assert edge_columns(g) == ([0, 1], [1, 2], [1.0, 2.0])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [1], [1], [1.0])

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [0], [1], [0.0])
        with pytest.raises(ValueError):
            WeightedGraph(2, [0], [1], [-2.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [0], [2], [1.0])

    @pytest.mark.parametrize("s, t, w, match", [
        ([0.9], [3], [1.0], "^edge endpoints must be"),
        ([True], [3], [1.0], "^edge endpoints must be"),
        ([0, 1], [2], [1.0, 1.0], "^edge endpoints must be"),
        ([0], [3], [0.0], "^edge weights must be > 0$"),
        ([0], [3], [np.nan],
         r"^edge weights must be finite \(found NaN or inf\)$"),
        ([0], [4], [1.0], r"^edge endpoints: node index out of range"),
    ], ids=["fractional-endpoint", "boolean-endpoint", "unequal-lengths",
            "zero-weight", "nan-weight", "out-of-range"])
    def test_with_edges_refuses_as_the_constructor(self, s, t, w, match):
        g = grid_graph(2, 2)
        for call in (lambda: g.with_edges(s, t, w),
                     lambda: WeightedGraph(4, s, t, w)):
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize("node_count", [2.5, True])
    def test_rejects_non_integer_node_count(self, node_count):
        with pytest.raises(ValueError, match="node_count must be an integer"):
            WeightedGraph(node_count, [0], [1], [1.0])

    def test_accepts_numpy_integers_and_no_edges(self):
        g = WeightedGraph(np.int64(3), [np.int32(2), 1], [0, 2],
                          [1, np.float32(0.5)])
        assert edge_columns(g) == ([0, 1], [2, 2], [1.0, 0.5])
        assert g.with_edges([], [], []) is g
        assert WeightedGraph(3, [], [], []).edge_count == 0

    def test_immutability(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        with pytest.raises(ValueError):
            g.weights[0] = 7.0

    def test_scaled(self):
        g = WeightedGraph(2, [0], [1], [2.0])
        assert edge_columns(g.scaled(0.5)) == ([0], [1], [1.0])

    @pytest.mark.parametrize("factor, match", [
        (True, "a real number"), ("2", "a real number"),
        (None, "a real number"), (0.0, r"in \(0, inf\)"),
        (np.inf, r"in \(0, inf\)"), (np.nan, r"in \(0, inf\)"),
    ], ids=["boolean", "string", "none", "zero", "inf", "nan"])
    def test_scaled_refuses_bad_factors_by_name(self, factor, match):
        g = WeightedGraph(2, [0], [1], [2.0])
        with pytest.raises(ValueError, match=f"^scale factor must be {match}"):
            g.scaled(factor)


_WEIGHTS_REAL = "edge weights must hold real numbers, not "


class TestEdgeInvariant:
    """The constructor checks and canonicalises every edge it is given."""

    @pytest.mark.parametrize("as_arrays", [True, False], ids=["arrays",
                                                               "lists"])
    def test_raw_edges_are_stored_canonically(self, as_arrays):
        # reversed, out of order, and (1, 3), (0, 4), (0, 2) given twice
        s, t = [3, 0, 1, 2, 4, 1, 0], [1, 4, 3, 0, 0, 2, 2]
        w = [0.5, 2.0, 1.5, 3.0, 0.25, 1.0, 7.0]
        if as_arrays:
            s, t, w = np.array(s, np.int32), np.array(t), np.array(w)
        g = WeightedGraph(5, s, t, w)
        for name, dtype in (("sources", np.int64), ("targets", np.int64),
                            ("weights", np.float64)):
            got = getattr(g, name)
            assert got.dtype == dtype and not got.flags.writeable
        assert edge_columns(g) == ([0, 0, 1, 1], [2, 4, 2, 3],
                                   [7.0, 0.25, 1.0, 1.5])
        if as_arrays:  # the caller's arrays are neither reordered nor frozen
            assert s.flags.writeable and s.tolist() == [3, 0, 1, 2, 4, 1, 0]

    @pytest.mark.parametrize("s, t, w, match", [
        ([0.0, 1.0], [1, 2], [1.0, 1.0], "integer node indices"),
        (np.array([True, False]), [1, 2], [1.0, 1.0], "integer node indices"),
        ([True, 2], [2, 0], [1.0, 1.0], "pairs of integer node indices"),
        ([0, 1], [1, 2], [1.0], "1-D arrays of one length"),
        ([[0, 1]], [[1, 2]], [[1.0, 1.0]], "^edge endpoints must be"),
        ([0, 2], [1, 2], [1.0, 1.0], "^edge endpoints: a pair joins a node"),
        ([0, 1], [1, 3], [1.0, 1.0], r"out of range \[0, 3\)"),
        ([0, -1], [1, 2], [1.0, 1.0], r"out of range \[0, 3\)"),
        ([0, 1], [1, 2], [1.0, 0.0], "^edge weights must be > 0$"),
        ([0, 1], [1, 2], [np.nan, 1.0],
         r"^edge weights must be finite \(found NaN or inf\)$"),
        ([0, 1], [1, 2], ["2", "1"], f"^{_WEIGHTS_REAL}<U1$"),
        ([0, 1], [1, 2], [1j, 1.0], f"^{_WEIGHTS_REAL}complex128$"),
        ([0, 1], [1, 2], [1.0, True], f"^{_WEIGHTS_REAL}a boolean$"),
        ([0, 1], [1, 2], [[1.0, True]], f"^{_WEIGHTS_REAL}a boolean$"),
        ([0, 1], [1, 2], [[1.0], [1.0, 2.0]], "^edge weights is ragged$"),
        ([0, 1], [1, 2], [[1.0, 1.0]],
         r"^edge weights must be a 1-D array, got shape \(1, 2\)$"),
    ], ids=["float-endpoint", "bool-endpoint", "bool-in-endpoint-list",
            "lengths", "2-d", "self-loop", "out-of-range",
            "negative-endpoint", "zero-weight", "nan-weight", "string-weight",
            "complex-weight", "bool-in-weight-list",
            "bool-in-nested-weight-list", "ragged-weights", "2-d-weights"])
    def test_rejects(self, s, t, w, match):
        # Lists go through the constructor's own conversion; numpy turns a
        # list mixing booleans with numbers into numbers, at any depth.
        with pytest.raises(ValueError, match=match):
            WeightedGraph(3, s, t, w)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1023, 1024, 1074])
    def test_refuses_subnormal_weights_naming_the_bound(self, k):
        # Solving on weights of 2**-1024 once overflowed to inf and warned
        # in the centering; the constructor now refuses them by name.
        match = ("^edge weights must be normal floats, at least "
                 r"2\.2250738585072014e-308$")
        with pytest.raises(ValueError, match=match):
            grid_graph(6, 6).scaled(2.0 ** -k)
        with pytest.raises(ValueError, match=match):
            WeightedGraph(3, [0, 1], [1, 2], [1.0, 2.0 ** -k])
        tiny = WeightedGraph(2, [0], [1], [np.finfo(float).tiny])
        assert tiny.weights.tolist() == [2.0 ** -1022]

    def test_unsorted_edges_give_a_valid_laplacian(self):
        g = WeightedGraph(3, [1, 0], [2, 1], [1.0, 2.0])
        L = g.laplacian
        L.check_format(full_check=True)
        np.testing.assert_array_equal(L.toarray(), [[2.0, -2.0, 0.0],
                                                    [-2.0, 3.0, -1.0],
                                                    [0.0, -1.0, 1.0]])

    def test_axis_concatenated_3d_grid_in_a_subprocess(self):
        # Edges listed axis by axis are far from sorted; a Laplacian built
        # on the sorted-edge assumption crashed the interpreter on this
        # graph, so it runs in a child process.
        script = textwrap.dedent("""
            import numpy as np
            from _oracles import dense_laplacian
            from reslearn.graphs import WeightedGraph, is_connected

            node = np.arange(900).reshape(10, 10, 9)
            s = np.concatenate([node[:-1].ravel(), node[:, :-1].ravel(),
                                node[:, :, :-1].ravel()])
            t = np.concatenate([node[1:].ravel(), node[:, 1:].ravel(),
                                node[:, :, 1:].ravel()])
            g = WeightedGraph(900, s, t, np.ones(s.size))
            assert g.edge_count == 2420 and is_connected(g)
            L = g.laplacian
            L.check_format(full_check=True)
            np.testing.assert_array_equal(L.toarray(), dense_laplacian(g))
        """)
        import reslearn

        path = [str(Path(reslearn.__file__).parents[1]),
                str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @given(st.data())
    def test_edge_order_orientation_and_repeats_do_not_matter(self, data):
        n = data.draw(st.integers(2, 12))
        node = st.integers(0, n - 1)
        pairs = data.draw(st.sets(st.tuples(node, node).filter(
            lambda p: p[0] < p[1]), max_size=3 * n))
        weight = st.floats(1e-3, 1e3)
        triples = [(s, t, data.draw(weight)) for s, t in sorted(pairs)]
        canonical = WeightedGraph(n, *([e[i] for e in triples]
                                       for i in range(3)))

        raw = data.draw(st.permutations(triples))
        raw = [(t, s, w) if data.draw(st.booleans()) else (s, t, w)
               for s, t, w in raw]
        raw += data.draw(st.lists(st.sampled_from(raw), max_size=4)
                         if raw else st.just([]))
        s, t, w = (np.array(v) for v in zip(*raw)) if raw else ([], [], [])
        g = WeightedGraph(n, s, t, w)

        for name in ("sources", "targets", "weights"):
            np.testing.assert_array_equal(getattr(g, name),
                                          getattr(canonical, name))
        assert (g.laplacian != canonical.laplacian).nnz == 0
        np.testing.assert_allclose(g.laplacian.toarray(),
                                   dense_laplacian(canonical))


class TestLaplacian:
    def test_two_node_apply(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        np.testing.assert_allclose(g.laplacian @ np.array([1.0, -1.0]),
                                   [2.0, -2.0])

    def test_nullspace(self):
        g = random_connected_graph(17, 20, seed=3)
        np.testing.assert_allclose(g.laplacian @ np.ones(17), 0.0,
                                   atol=1e-12)

    def test_triangle_apply(self):
        g = WeightedGraph(3, [0, 1, 0], [1, 2, 2], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(g.laplacian @ np.array([1.0, 0.0, 0.0]),
                                   [2.0, -1.0, -1.0])

    def test_matches_dense_assembly(self):
        g = random_connected_graph(12, 15, seed=5)
        np.testing.assert_allclose(g.laplacian.toarray(), dense_laplacian(g))

    @pytest.mark.parametrize("extra", [0, 40, 400])
    def test_degrees_are_adjacency_row_sums_to_the_bit(self, extra):
        # Each degree adds its row's weights one at a time in column order.
        # Degrees up to ~40 reach numpy's blocked summation (8 and more
        # terms), which scipy's row sum uses: that order may differ in the
        # last bit.
        g = random_connected_graph(30, extra, seed=extra,
                                   w_range=(1e-3, 1e3))
        adj = sp.coo_matrix(
            (np.concatenate([g.weights, g.weights]),
             (np.concatenate([g.sources, g.targets]),
              np.concatenate([g.targets, g.sources]))), shape=(30, 30)).tocsr()
        L = g.laplacian
        assert L.has_sorted_indices
        in_column_order = [
            functools.reduce(operator.add, adj.data[a:b].tolist(), 0.0)
            for a, b in zip(adj.indptr[:-1], adj.indptr[1:])]
        np.testing.assert_array_equal(L.diagonal(), in_column_order)
        np.testing.assert_allclose(
            L.diagonal(), np.asarray(adj.sum(axis=1)).ravel(), rtol=1e-14)
        np.testing.assert_array_equal((L - L.T).toarray(), 0.0)
        np.testing.assert_array_equal(
            L.toarray() - np.diag(L.diagonal()), -adj.toarray())

    def test_symmetry_and_psd(self):
        g = random_connected_graph(20, 30, seed=1)
        L = g.laplacian
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(20)
            y = rng.standard_normal(20)
            assert np.isclose(x @ (L @ y), y @ (L @ x))
            assert x @ (L @ x) >= -1e-12


class TestOneLaplacianPerGraph:
    def test_operator_is_cached_on_the_graph(self):
        g = random_connected_graph(12, 15, seed=5)
        assert g.laplacian is g.laplacian

    def test_derived_graphs_get_their_own_operator(self):
        g = random_connected_graph(12, 15, seed=5)
        b = np.zeros(12)
        b[[0, 7]] = 1.0, -1.0
        x = solve_laplacian(g, b)
        halved = solve_laplacian(g.scaled(2.0), b)
        np.testing.assert_allclose(halved, x / 2, rtol=1e-10, atol=1e-14)
        for derived in (g.scaled(2.0), g.with_edges([0], [11], [3.0]),
                        maximum_spanning_tree(g)):
            solve_laplacian(derived, b)
            assert derived.laplacian is not g.laplacian
            assert derived._factor is not g._factor
            np.testing.assert_allclose(derived.laplacian.toarray(),
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
        assert is_connected(g)
        solve_laplacian(g, b)
        effective_resistance(g, [0, 3], [5, 30])
        eigensolve_smallest(g, 3)
        assert len(calls) == 1

    def test_derived_graphs_of_a_connected_graph_skip_the_pass(
            self, monkeypatch):
        calls = []
        original = graphs.connected_components

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(graphs, "connected_components", counting)
        g = random_connected_graph(12, 15, seed=5)
        for derived in (g.scaled(2.0), g.with_edges([0], [11], [3.0])):
            assert "_components" not in vars(derived)  # g not yet checked
        assert is_connected(g)
        tree = maximum_spanning_tree(random_connected_graph(9, 9, seed=1))
        for derived in (g.scaled(2.0), g.with_edges([0], [11], [3.0]),
                        tree, tree.with_edges([0], [8], [1.0]).scaled(0.5)):
            assert is_connected(derived)
            assert derived._components == 1
        assert len(calls) == 1

    def test_derived_graphs_of_a_disconnected_graph_are_checked(self):
        g = WeightedGraph(6, [0, 1, 3], [1, 2, 4], [1.0, 1.0, 1.0])
        assert not is_connected(g)
        assert g.with_edges([2], [3], [1.0])._components == 2
        assert g.scaled(3.0)._components == 3

    def test_disconnected_raises_on_every_call(self):
        g = WeightedGraph(6, [0, 1, 3], [1, 2, 4], [1.0, 1.0, 1.0])
        b = np.zeros(6)
        b[[0, 2]] = 1.0, -1.0
        for _ in range(2):
            with pytest.raises(DisconnectedGraphError) as err:
                solve_laplacian(g, b)
            assert err.value.n_components == 3
            with pytest.raises(DisconnectedGraphError) as err:
                eigensolve_smallest(g, 2)
            assert err.value.n_components == 3

    def test_factored_graph_freed_without_cycle_collector(self):
        # The graph holds its matrix and factor, and neither may point back
        # at it: a cycle would keep all three alive until the cyclic GC.
        g = grid_graph(15, 15)  # 225 nodes: the iterative, factored path
        eigensolve_smallest(g, 3)
        assert "_factor" in vars(g)
        graph_ref = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert graph_ref() is None
        finally:
            gc.enable()


class TestQuadraticForm:
    def test_two_node(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        assert quadratic_form(g, [0.0, 1.0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("x", [np.full(9, 3.7), np.zeros((9, 0))],
                             ids=["constant", "no-columns"])
    def test_constant_signal(self, x):
        g = random_connected_graph(9, 5, seed=2)
        assert quadratic_form(g, x) == 0.0

    def test_triangle_hand_value(self):
        g = WeightedGraph(3, [0, 1, 0], [1, 2, 2], [1.0, 1.0, 1.0])
        assert quadratic_form(g, [1.0, 2.0, 4.0]) == pytest.approx(14.0)

    def test_dimension_mismatch(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        with pytest.raises(ValueError):
            quadratic_form(g, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("columns", [None, 2])
    def test_rejects_non_finite_signal(self, bad, columns):
        x = np.ones(9 if columns is None else (9, columns))
        x[4] = bad
        with pytest.raises(ValueError,
                           match=r"^X must be finite \(found NaN or inf\)$"):
            quadratic_form(grid_graph(3, 3), x)

    def test_agrees_with_operator(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            g = random_connected_graph(15, 12, seed=seed)
            x = rng.standard_normal(15)
            qf = quadratic_form(g, x)
            assert qf == pytest.approx(x @ (g.laplacian @ x),
                                       rel=1e-10)

    def test_memory_is_the_edges_plus_one_block(self):
        # 19,800 edges of 64 columns: one (E x M) array alone is 10 MB
        X = np.random.default_rng(0).standard_normal((10_000, 64))
        g = grid_graph(100, 100)
        tracemalloc.start()
        try:
            qf = quadratic_form(g, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = X[g.sources] - X[g.targets]
        assert qf == pytest.approx(g.weights @ (d * d).sum(axis=1), rel=1e-12)
        assert peak < 3 * 2**20


class TestSquaredRowDistances:
    @staticmethod
    def one_shot(A, s, t):
        d = A[s] - A[t]
        return np.einsum("ij,ij->i", d, d)

    @pytest.mark.parametrize("width", [4, 50])
    @pytest.mark.parametrize("blocks, extra",
                             [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
    def test_blocks_give_the_one_shot_bits(self, width, blocks, extra):
        count = blocks * (graphs._DISTANCE_BLOCK // width) + extra
        rng = np.random.default_rng(width)
        A = rng.standard_normal((300, width))
        s, t = rng.integers(0, 300, (2, count))
        got = graphs._squared_row_distances(A, s, t)
        assert got.dtype == np.float64 and got.shape == (count,)
        np.testing.assert_array_equal(got, self.one_shot(A, s, t))

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_rows_wider_than_the_budget(self, count):
        # two pairs per block, and a lone last pair is taken with the one
        # before it: numpy sums a lone row this wide in another order
        rng = np.random.default_rng(1)
        A = rng.standard_normal((count + 1, graphs._DISTANCE_BLOCK + 5))
        s, t = np.arange(count), np.arange(count) + 1
        np.testing.assert_array_equal(
            graphs._squared_row_distances(A, s, t), self.one_shot(A, s, t))


class TestEffectiveResistance:
    def test_series_path(self):
        g = WeightedGraph(3, [0, 1], [1, 2], [1.0, 1.0])
        assert effective_resistance(g, [0], [2])[0] == pytest.approx(2.0)

    def test_single_edge_inverse_weight(self):
        g = WeightedGraph(2, [0], [1], [2.0])
        assert effective_resistance(g, [0], [1])[0] == pytest.approx(0.5)

    def test_triangle_parallel(self):
        g = WeightedGraph(3, [0, 1, 0], [1, 2, 2], [1.0, 1.0, 1.0])
        for s, t in [(0, 1), (1, 2), (0, 2)]:
            assert effective_resistance(g, [s], [t])[0] == pytest.approx(2 / 3)

    def test_disconnected_raises(self):
        g = WeightedGraph(4, [0, 2], [1, 3], [1.0, 1.0])
        with pytest.raises(DisconnectedGraphError):
            effective_resistance(g, [0], [2])

    def test_same_node_raises(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        with pytest.raises(ValueError):
            effective_resistance(g, [1], [1])

    @pytest.mark.parametrize("sources, targets, match", [
        ([0.7], [1], "pairs of integer node indices"),
        ([True], [2], "pairs of integer node indices"),
        ([0, 1], [1], "pairs of integer node indices"),
        ([0], [3], "out of range"),
        ([-1], [1], "out of range"),
        ([0, 2], [1, 2], "joins a node to itself"),
        (np.array([True]), np.array([False]), "pairs of integer node indices"),
    ], ids=["float", "bool", "unequal-lengths", "out-of-range", "negative",
            "self-pair", "bool-array"])
    def test_rejects_bad_pairs(self, sources, targets, match):
        g = WeightedGraph(3, [0, 1], [1, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match=match):
            effective_resistance(g, sources, targets)

    @pytest.mark.parametrize("name", ["pairs", "edge endpoints"])
    def test_rejects_ragged_pairs_naming_the_argument(self, name):
        # a ragged list must not reach numpy's "inhomogeneous shape" error
        g = grid_graph(3, 3)
        calls = {
            "pairs": lambda: effective_resistance(g, [0, 2], [1, (0, 1)]),
            "edge endpoints": lambda: WeightedGraph(
                3, [0, 2], [1, (0, 1)], [1.0, 1.0]),
        }
        with pytest.raises(ValueError, match=f"^{name} must be \\(s, t\\) "
                                             "pairs of integer node indices"):
            calls[name]()

    def test_accepts_integer_arrays(self):
        g = WeightedGraph(3, [0, 1], [1, 2], [1.0, 1.0])
        pairs = np.array([[0, 2], [2, 1]], dtype=np.int32)
        assert effective_resistance(g, *pairs.T) == pytest.approx([2.0, 1.0])
        none = effective_resistance(g, [], [])
        assert none.dtype == np.float64 and none.shape == (0,)

    def test_metric_properties(self):
        for seed in range(4):
            g = random_connected_graph(18, 25, seed=seed)
            rng = np.random.default_rng(seed)
            nodes = rng.choice(18, size=3, replace=False)
            a, b, c = (int(v) for v in nodes)
            rab, rba, rbc, rac = effective_resistance(
                g, [a, b, b, a], [b, a, c, c])
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
            pairs = np.triu_indices(14, 1)
            before = effective_resistance(g, *pairs)
            after = effective_resistance(
                g.with_edges([s], [t], [1.0]), *pairs)
            assert np.all(np.asarray(after) <= np.asarray(before) + 1e-10)

    def test_matches_dense_oracle(self):
        g = random_connected_graph(25, 40, seed=8)
        pairs = [(0, 1), (3, 17), (5, 24), (10, 11)]
        np.testing.assert_allclose(
            effective_resistance(g, *_endpoint_columns(pairs)),
            dense_resistance(g, pairs), rtol=1e-9)

    def test_more_pairs_than_one_block(self):
        g = random_connected_graph(40, 60, seed=12)
        pairs = [(i, j) for i in range(40) for j in range(i + 1, 40)]
        assert len(pairs) > graphs._RESISTANCE_BLOCK
        np.testing.assert_allclose(
            effective_resistance(g, *_endpoint_columns(pairs)),
            dense_resistance(g, pairs), rtol=1e-9)

    def test_memory_is_one_narrow_block(self):
        # 300 pairs on 10,000 nodes: one N-length column is 78 KiB, so the
        # bound holds about 200 columns, and blocks of 256 pairs would
        # trace about 1,280
        g = grid_graph(100, 100)
        g._factor  # built outside the measurement, as any solve reuses it
        s = np.arange(300)
        tracemalloc.start()
        try:
            r = effective_resistance(g, s, 9999 - s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(r > 0)
        assert peak < 200 * g.node_count * 8


def _endpoint_columns(pairs):
    """``(s, t)`` of ``pairs`` in the form given: an array's two columns, or
    two lists whose elements keep their types."""
    if isinstance(pairs, np.ndarray):
        return pairs[:, 0], pairs[:, 1]
    return [p[0] for p in pairs], [p[1] for p in pairs]


class TestNodeIndexContract:
    """One parser checks node indices wherever they enter, so every entry
    point refuses bad indices with one message, up to the argument name."""

    MALFORMED = "{} must be (s, t) pairs of integer node indices"
    OUT_OF_RANGE = "{}: node index out of range [0, 9)"
    ENTRY_POINTS = {
        "constructor": ("edge endpoints", lambda p: WeightedGraph(
            9, *_endpoint_columns(p), [1.0] * len(p))),
        "with_edges": ("edge endpoints", lambda p: grid_graph(
            3, 3).with_edges(*_endpoint_columns(p), [1.0] * len(p))),
        "effective_resistance": ("pairs", lambda p: effective_resistance(
            grid_graph(3, 3), *_endpoint_columns(p))),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("pairs, message", [
        ([(0, 1), (0.5, 2)], MALFORMED),
        ([(0, 1), (True, 2)], MALFORMED),
        (np.array([[True, False]]), MALFORMED),
        ([(0, 1), (2, 9)], OUT_OF_RANGE),
        ([(-1, 1)], OUT_OF_RANGE),
        ([(0, 1), (2, 2)], "{}: a pair joins a node to itself"),
        ([(0, 1), (2, (0, 1))], MALFORMED),
    ], ids=["float", "bool-in-list", "bool-array", "out-of-range",
            "negative", "self-pair", "ragged-nested"])
    def test_every_entry_point_gives_one_message(self, entry, pairs,
                                                 message):
        name, call = self.ENTRY_POINTS[entry]
        with pytest.raises(ValueError) as err:
            call(pairs)
        assert str(err.value) == message.format(name)

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
        lambda p: p[0] != p[1]), max_size=40),
        st.sampled_from([np.int64, np.int32]))
    def test_array_and_tuple_pairs_agree(self, pairs, dtype):
        g = grid_graph(3, 3)
        as_array = np.array(pairs, dtype=dtype).reshape(-1, 2)
        r = effective_resistance(g, *_endpoint_columns(pairs))
        assert r.dtype == np.float64 and r.shape == (len(pairs),)
        np.testing.assert_array_equal(
            effective_resistance(g, *_endpoint_columns(as_array)), r)


_GRID = grid_graph(6, 6)
_X, _Y = generate_measurement_set(_GRID, 10, 0)
_MATRIX, _EITHER = "(N, M)", "(N,) vector or (N, M)"
# Entry points that take a measurement matrix or right-hand side: the
# argument's name, the shapes it may take, whether it has one row per node
# (then a row short is a fault), and a call with the other inputs valid.
_MATRIX_ENTRY_POINTS = {
    "learn-X": ("X", _MATRIX, False, lambda X: learn(X)),
    "learn-Y": ("Y", _MATRIX, True, lambda Y: learn(_X, Y)),
    "init_graph": ("X", _MATRIX, False, lambda X: init_graph(X, 5)),
    "edge_scale-X": ("X", _MATRIX, True,
                     lambda X: edge_scale(_GRID, X, _Y)),
    "edge_scale-Y": ("Y", _MATRIX, True,
                     lambda Y: edge_scale(_GRID, _X, Y)),
    "quadratic_form": ("X", _EITHER, True,
                       lambda X: quadratic_form(_GRID, X)),
    "objective_value": ("X", _EITHER, True,
                        lambda X: objective_value(_GRID, X, 3)),
    "solve_laplacian": ("b", _EITHER, True,
                        lambda b: solve_laplacian(_GRID, b)),
    "simulate_voltages": ("Y", _MATRIX, True,
                          lambda Y: simulate_voltages(_GRID, Y)),
    "add_noise": ("X", _MATRIX, False, lambda X: add_noise(X, 0.1, 0)),
    "subsample_nodes": ("X", _MATRIX, False,
                        lambda X: subsample_nodes(X, 0.5, 0)),
}


def _with_entry(a, value):
    a = a.copy()
    a[3, 2] = value
    return a


def _with_bool(a):
    rows = a.tolist()
    rows[3][2] = True
    return rows


def _ragged(a):
    rows = a.tolist()
    rows[-1].pop()
    return rows


_REAL = "{} must hold real numbers, not "
# Fault: (the fault made from a valid (36, 10) input, the message).
_MATRIX_FAULTS = {
    "complex": (lambda a: a + 0j, _REAL + "complex128"),
    "bool": (lambda a: a > 0, _REAL + "bool"),
    "bool-in-list": (_with_bool, _REAL + "a boolean"),
    "string": (lambda a: a.astype("U8"), _REAL + "<U8"),
    "ragged": (_ragged, "{} is ragged"),
    "3-d": (lambda a: a[:, :, None],
            "{} must be an {} matrix, got shape (36, 10, 1)"),
    "rows": (lambda a: a[:-1], "{} has 35 rows for 36 nodes"),
    "nan": (lambda a: _with_entry(a, np.nan),
            "{} must be finite (found NaN or inf)"),
    "inf": (lambda a: _with_entry(a, -np.inf),
            "{} must be finite (found NaN or inf)"),
}


class TestMeasurementMatrixContract:
    """One parser checks measurement matrices and right-hand sides wherever
    they enter, so every entry point refuses each fault with one message,
    up to the argument name and the shapes it takes."""

    @pytest.mark.parametrize("entry, fault", [
        (entry, fault) for entry, (_, _, by_node, _)
        in _MATRIX_ENTRY_POINTS.items()
        for fault in _MATRIX_FAULTS if by_node or fault != "rows"])
    def test_every_entry_point_gives_one_message(self, entry, fault):
        name, shape, _, call = _MATRIX_ENTRY_POINTS[entry]
        make, message = _MATRIX_FAULTS[fault]
        with pytest.raises(ValueError) as err:
            call(make(_X if name == "X" else _Y))
        assert str(err.value) == message.format(name, shape)

    def test_objective_value_refuses_zero_columns(self):
        # its trace term averages over the columns
        with pytest.raises(ValueError, match="^X has no columns$"):
            objective_value(_GRID, _X[:, :0], 3)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float32])
    def test_real_dtypes_are_taken_as_float64(self, dtype):
        a = np.arange(6, dtype=dtype).reshape(3, 2)
        out = graphs._real_matrix("X", a)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, a)

    def test_c_ordered_float64_alone_is_returned_without_a_copy(self):
        a = np.arange(12.0).reshape(4, 3)
        assert graphs._real_matrix("X", a) is a
        # a strided Fortran-ordered view comes back as a C-ordered copy
        view = np.asfortranarray(a)[:, ::2]
        out = graphs._real_matrix("X", view)
        assert out.flags.c_contiguous and not np.shares_memory(out, view)
        np.testing.assert_array_equal(out, view)


class TestUnitScale:
    @pytest.mark.parametrize("axis", [None, 0])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_scale_of_max_abs(self, axis, seed):
        # columns led by a negative entry, a positive one, exact powers of
        # two and zeros, in units far from 1
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((7, 5)) * 2.0 ** rng.integers(-300, 300, 5)
        a[0, 0], a[0, 1], a[:, 2], a[3, 3] = -1e200, 2.0 ** 40, 0.0, -0.5
        _, e = np.frexp(np.abs(a).max(axis=axis))
        unit, got = graphs._unit_scale(a, axis=axis)
        np.testing.assert_array_equal(got, e)
        np.testing.assert_array_equal(unit, np.ldexp(a, -e))

    @pytest.mark.parametrize("axis", [None, 0])
    def test_unit_scale_input_comes_back_uncopied(self, axis):
        a = np.array([[0.5, -0.75, 0.0], [-0.999, 0.25, 0.0]])
        unit, e = graphs._unit_scale(a, axis=axis)
        assert unit is a and not np.any(e)

    def test_scaled_input_is_left_unchanged(self):
        a = np.array([[3.0, -0.75], [-0.5, 0.25]])
        unit, e = graphs._unit_scale(a, axis=0)
        assert unit is not a and list(e) == [2, 0]
        np.testing.assert_array_equal(a, [[3.0, -0.75], [-0.5, 0.25]])


class TestMaximumSpanningTree:
    def test_triangle_keeps_heaviest(self):
        g = WeightedGraph(3, [0, 1, 0], [1, 2, 2], [3.0, 2.0, 1.0])
        t = maximum_spanning_tree(g)
        assert edge_columns(t) == ([0, 1], [1, 2], [3.0, 2.0])

    def test_tree_input_identity(self):
        g = WeightedGraph(4, [0, 1, 1], [1, 2, 3], [1.0, 5.0, 2.0])
        assert edge_columns(maximum_spanning_tree(g)) == edge_columns(g)

    def test_four_cycle_drops_lightest(self):
        g = WeightedGraph(4, [0, 1, 2, 0], [1, 2, 3, 3], [5.0, 1.0, 4.0, 3.0])
        t = maximum_spanning_tree(g)
        assert (1, 2, 1.0) not in zip(*edge_columns(t))
        assert t.edge_count == 3

    def test_matches_brute_force(self):
        for seed in range(6):
            g = random_connected_graph(7, 8, seed=seed)
            t = maximum_spanning_tree(g)
            assert t.edge_count == 6
            assert t.weights.sum() == pytest.approx(brute_force_mst_weight(g))

    def test_deterministic_tie_break(self):
        # all weights equal: prefer lexicographically smaller (s, t)
        g = WeightedGraph(3, [0, 0, 1], [1, 2, 2], [1.0, 1.0, 1.0])
        t = maximum_spanning_tree(g)
        assert edge_columns(t) == ([0, 0], [1, 2], [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("make", [
        lambda seed: grid_graph(6, 6),
        lambda seed: random_connected_graph(20, 30, seed=seed),
    ], ids=["unit-grid", "random"])
    def test_tree_follows_canonical_order_not_input_order(self, make, seed):
        # The same edges handed over permuted, some as (t, s): the
        # constructor stores them alike, so the tree is the same; on the
        # unit grid every weight ties and the (s, t) order alone decides.
        g = make(seed)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(g.edge_count)
        flip = rng.random(g.edge_count) < 0.5
        s, t = g.sources[perm], g.targets[perm]
        shuffled = WeightedGraph(g.node_count, np.where(flip, t, s),
                                 np.where(flip, s, t), g.weights[perm])
        tree = edge_columns(maximum_spanning_tree(g))
        assert edge_columns(maximum_spanning_tree(shuffled)) == tree
        assert list(zip(*tree)) == reference_maximum_spanning_tree(g)[0]

    def test_disconnected_reports_components(self):
        g = WeightedGraph(5, [0, 2], [1, 3], [1.0, 1.0])
        with pytest.raises(DisconnectedGraphError) as err:
            maximum_spanning_tree(g)
        assert err.value.n_components == 3

    def test_single_node(self):
        t = maximum_spanning_tree(WeightedGraph(1, [], [], []))
        assert t.node_count == 1 and t.edge_count == 0

    @given(tied_graphs())
    def test_matches_reference_kruskal(self, g):
        kept, components = reference_maximum_spanning_tree(g)
        if components > 1:
            with pytest.raises(DisconnectedGraphError) as err:
                maximum_spanning_tree(g)
            assert err.value.n_components == components
        else:
            assert list(zip(*edge_columns(maximum_spanning_tree(g)))) == kept


class TestConnectivity:
    def test_single_edge(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        assert is_connected(g)
        assert g._components == 1

    def test_no_edges(self):
        g = WeightedGraph(2, [], [], [])
        assert not is_connected(g)
        assert g._components == 2

    def test_two_triangles(self):
        g = WeightedGraph(6, [0, 1, 0, 3, 4, 3], [1, 2, 2, 4, 5, 5],
                          [1.0] * 6)
        assert not is_connected(g)
        assert g._components == 2

    def test_returns_a_bool(self):
        # a (bool, count) tuple would always be true, so that
        # ``if not is_connected(g)`` could never fire
        g = WeightedGraph(3, [0], [1], [1.0])
        assert is_connected(g) is False
        assert is_connected(g.with_edges([1], [2], [1.0])) is True


def test_grid_graph_shape():
    g = grid_graph(3, 4)
    assert g.node_count == 12
    assert g.edge_count == 3 * 3 + 2 * 4  # horizontal + vertical
    assert is_connected(g)


@pytest.mark.parametrize("rows, cols, message", [
    (2.5, 3, "^rows must be an integer, got 2.5$"),
    (True, 3, "^rows must be an integer, got True$"),
    (3, 4.0, "^cols must be an integer, got 4.0$"),
    (0, 3, "^rows must be >= 1$"),
    (3, -1, "^cols must be >= 1$"),
], ids=["fractional-rows", "boolean-rows", "float-cols", "zero-rows",
        "negative-cols"])
def test_grid_graph_refuses_bad_dimensions_by_name(rows, cols, message):
    with pytest.raises(ValueError, match=message):
        grid_graph(rows, cols)
