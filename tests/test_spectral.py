import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from reslearn import learner, spectral
from reslearn.graphs import (
    DisconnectedGraphError,
    WeightedGraph,
    effective_resistance,
    grid_graph,
    quadratic_form,
)
from reslearn.learner import init_graph, learn
from reslearn.measurements import (
    generate_currents,
    generate_measurement_set,
    simulate_voltages,
)
from reslearn.spectral import (
    SolverError,
    eigensolve_smallest,
    embedding_distances,
    objective_value,
    solve_laplacian,
)

from _oracles import (
    dense_eigenpairs,
    dense_pinv,
    dense_resistance,
    edge_columns,
    random_connected_graph,
)


def triangle():
    return WeightedGraph(3, [0, 1, 0], [1, 2, 2], [1.0, 1.0, 1.0])


def four_cycle():
    return WeightedGraph(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0] * 4)


@pytest.fixture
def lanczos(monkeypatch):
    """Route every eigensolve of a few modes to the Lanczos backend, which
    otherwise serves only graphs above the dense size limit."""
    monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 0)


class TestEigensolve:
    def test_two_node(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        lam, u = eigensolve_smallest(g, 1)
        assert lam[0] == pytest.approx(2.0)
        np.testing.assert_allclose(np.abs(u[:, 0]), [np.sqrt(0.5)] * 2,
                                   rtol=1e-10)

    def test_triangle_degenerate_pair(self):
        lam, _ = eigensolve_smallest(triangle(), 2)
        np.testing.assert_allclose(lam, [3.0, 3.0], atol=1e-9)

    def test_four_cycle(self):
        lam, _ = eigensolve_smallest(four_cycle(), 3)
        np.testing.assert_allclose(lam, [2.0, 2.0, 4.0], atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_iterative_matches_dense_oracle(self, seed, lanczos):
        g = random_connected_graph(50, 100, seed=seed)
        lam, u = eigensolve_smallest(g, 5)
        vals, vecs = dense_eigenpairs(g)
        np.testing.assert_allclose(lam, vals[1:6], atol=1e-8)
        # compare per-vector up to sign where the spectrum is simple
        gaps = np.diff(vals[:7])
        for i in range(5):
            if gaps[i] > 1e-5 and gaps[i + 1] > 1e-5:
                got = u[:, i]
                ref = vecs[:, i + 1]
                err = min(np.linalg.norm(got - ref), np.linalg.norm(got + ref))
                assert err < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_weight_range_meets_tolerance(self, seed, lanczos):
        # Lanczos stops at a tolerance scaled by the largest degree; pairs
        # must still meet the residual check against the dense oracle.
        g = random_connected_graph(60, 120, seed=seed)
        rng = np.random.default_rng(seed)
        g = WeightedGraph(g.node_count, g.sources, g.targets,
                          10.0 ** rng.uniform(-4, 4, g.edge_count))
        lam, u = eigensolve_smallest(g, 5)
        vals, _ = dense_eigenpairs(g)
        limit = spectral.EIG_TOL * np.maximum(1.0, vals[1:6])
        assert np.all(np.abs(lam - vals[1:6]) <= limit)
        res = np.linalg.norm(g.laplacian @ u - u * lam, axis=0)
        assert np.all(res <= spectral.EIG_TOL * np.maximum(1.0, lam))

    def test_degenerate_subspace_matches(self):
        # triangle eigenvalue 3 has multiplicity 2: compare projectors
        _, u = eigensolve_smallest(triangle(), 2)
        _, vecs = dense_eigenpairs(triangle())
        p_got = u @ u.T
        p_ref = vecs[:, 1:] @ vecs[:, 1:].T
        np.testing.assert_allclose(p_got, p_ref, atol=1e-10)

    def test_residuals_and_deflation(self, lanczos):
        g = random_connected_graph(60, 120, seed=11)
        vals, vecs = eigensolve_smallest(g, 4)
        for i in range(4):
            u = vecs[:, i]
            lam = vals[i]
            assert (np.linalg.norm(g.laplacian @ u - lam * u)
                    < 1e-8 * max(1, lam))
            assert abs(u @ np.ones(60)) < 1e-8
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-10)
        gram = vecs.T @ vecs
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_count_out_of_range(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        with pytest.raises(ValueError):
            eigensolve_smallest(g, 2)

    def test_unreachable_tolerance_reports_residual(self, lanczos,
                                                    monkeypatch):
        monkeypatch.setattr(spectral, "EIG_TOL", 1e-30)
        g = random_connected_graph(40, 60, seed=12)
        with pytest.raises(spectral.EigensolverError) as err:
            eigensolve_smallest(g, 3)
        assert err.value.best_residual is None or \
            err.value.best_residual >= 0.0

    def test_restart_cap_reports_the_best_residual(self, monkeypatch):
        monkeypatch.setattr(spectral, "EIG_MAX_RESTARTS", 1)
        with pytest.raises(spectral.EigensolverError,
                           match="within 1 restarts$") as err:
            eigensolve_smallest(grid_graph(20, 20), 60)
        assert 0.0 <= err.value.best_residual < spectral.EIG_TOL

    def test_disconnected_rejected(self):
        g = WeightedGraph(4, [0, 2], [1, 3], [1.0, 1.0])
        with pytest.raises(DisconnectedGraphError):
            eigensolve_smallest(g, 1)

    @pytest.mark.parametrize("side", [3, 15], ids=["dense", "iterative"])
    @pytest.mark.parametrize("count", [2.0, True, "2"])
    def test_rejects_non_integer_count(self, side, count):
        with pytest.raises(ValueError, match="count must be an integer"):
            eigensolve_smallest(grid_graph(side, side), count)

    @pytest.mark.parametrize("side", [3, 15], ids=["dense", "iterative"])
    def test_accepts_numpy_integer_count(self, side):
        assert eigensolve_smallest(grid_graph(side, side),
                                   np.int64(2))[0].shape == (2,)

    @pytest.mark.parametrize("side", [6, 15], ids=["dense", "iterative"])
    @pytest.mark.parametrize("k", [1000, 1021])
    def test_weights_near_the_float_maximum(self, side, k):
        # At 2**1021 the residual norms squared overflowed, and on the
        # iterative path so did 2 * max degree in the Lanczos tolerance.
        g = grid_graph(side, side)
        lam, _ = eigensolve_smallest(g.scaled(2.0 ** k), 3)
        np.testing.assert_allclose(
            lam, np.ldexp(eigensolve_smallest(g, 3)[0], k), rtol=1e-12)

    @pytest.mark.parametrize("k", [-1015, -1018, -1022])
    def test_overflowing_lanczos_iterates_are_refused(self, k):
        # L^+ x outgrows the float range, as 2**-k times the unit grid's:
        # ARPACK failed to build its factorization instead.
        g = grid_graph(15, 15).scaled(2.0 ** k)
        with pytest.raises(ValueError, match="^badly scaled graph: "):
            eigensolve_smallest(g, 3)

    @pytest.mark.parametrize("k", [-6, -10, -30])
    def test_max_degree_below_one_keeps_repeated_eigenvalues(self, k):
        # A Lanczos stop loosened by a max degree below 1 skipped one copy
        # of a repeated eigenvalue: errors of 11%, 11% and 79%.
        g = grid_graph(30, 30)
        lam, _ = eigensolve_smallest(g.scaled(2.0 ** k), 10)
        np.testing.assert_allclose(
            lam, np.ldexp(eigensolve_smallest(g, 10)[0], k), rtol=1e-9)

    def test_weights_near_the_smallest_normal_float(self):
        g = grid_graph(15, 15)
        lam, _ = eigensolve_smallest(g.scaled(2.0 ** -1014), 3)
        np.testing.assert_allclose(
            lam, np.ldexp(eigensolve_smallest(g, 3)[0], -1014), rtol=1e-12)

    @pytest.mark.parametrize("side", [6, 15], ids=["dense", "iterative"])
    def test_overflowing_degrees_are_refused(self, side):
        # Weights of 2**1022 are finite, the degree 4 * 2**1022 of an inner
        # node is not: the eigensolve returned NaN eigenvalues.
        g = grid_graph(side, side).scaled(2.0 ** 1022)
        b = np.zeros(side * side)
        b[[0, -1]] = 1.0, -1.0
        for call in (lambda: eigensolve_smallest(g, 2),
                     lambda: solve_laplacian(g, b),
                     lambda: effective_resistance(g, [0], [1])):
            with pytest.raises(ValueError, match="^badly scaled graph: "):
                call()


class TestEmbedding:
    def test_two_node_full_embedding_is_resistance(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        basis = eigensolve_smallest(g, 1)
        z = embedding_distances(basis, [0], [1])
        assert z.shape == (1,) and z[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [0.1, 2.0])
    def test_full_spectrum_is_resistance(self, scale):
        # all N - 1 modes of a weighted graph give the pinv(L) resistances,
        # at any overall weight scale
        g = random_connected_graph(12, 10, seed=4).scaled(scale)
        n = g.node_count
        basis = eigensolve_smallest(g, n - 1)
        s, t = np.triu_indices(n, 1)
        z = embedding_distances(basis, s, t)
        np.testing.assert_allclose(z, dense_resistance(g, zip(s, t)),
                                   rtol=1e-10)

    def test_triangle_full_spectrum_matches_resistance(self):
        g = triangle()
        basis = eigensolve_smallest(g, 2)
        np.testing.assert_allclose(
            embedding_distances(basis, g.sources, g.targets), 2 / 3,
            rtol=1e-6)

    @pytest.mark.parametrize("sources, targets", [
        ([-1], [0]), (0, 1), ([0, 1], [2]), ([3], [3]), ([True], [False]),
        ([0.0], [1.0]), ([0], [36]),
    ], ids=["negative", "scalars", "lengths-differ", "self-pair", "booleans",
            "floats", "out-of-range"])
    def test_malformed_pairs_refused_as_by_effective_resistance(
            self, sources, targets):
        # either resistance estimate the scorer takes refuses a malformed
        # pair with one message
        g = grid_graph(6, 6)
        with pytest.raises(ValueError) as exact:
            effective_resistance(g, sources, targets)
        with pytest.raises(ValueError) as embedded:
            embedding_distances(eigensolve_smallest(g, 4), sources, targets)
        assert str(embedded.value) == str(exact.value)

    @pytest.mark.parametrize("form, fault", [
        (lambda lam, u: (-lam, u), r"lam must be > 0$"),
        (lambda lam, u: (np.r_[0.0, lam[1:]], u), r"lam must be > 0$"),
        (lambda lam, u: (np.r_[np.nan, lam[1:]], u),
         r"lam must be finite \(found NaN or inf\)$"),
        (lambda lam, u: ([True, *lam[1:]], u),
         r"lam must hold real numbers, not a boolean$"),
        (lambda lam, u: ([lam[:1].tolist(), lam[1:].tolist()], u),
         r"lam is ragged$"),
        (lambda lam, u: (lam, np.where(u == u[0, 0], np.nan, u)),
         r"u must be finite"),
        (lambda lam, u: (lam[None], u),
         r"lam must be a 1-D array, got shape \(1, 3\)$"),
        (lambda lam, u: (lam, u[:, :2]),
         r"lam must be a \(2,\) vector for u of shape \(36, 2\), got shape "
         r"\(3,\)$"),
        (lambda lam, u: (lam[:1], u[:, 0]), r"u must be an \(N, M\) matrix"),
        (lambda lam, u: u, r"must be a pair \(lam, u\)"),
        (lambda lam, u: (lam.tolist(), u.tolist()), None),
    ], ids=["negative", "zero-eigenvalue", "nan-eigenvalue", "bool-eigenvalue",
            "ragged-lam", "nan-vector", "2-D-lam", "too-few-vectors", "1-D-u",
            "bare-u", "lists"])
    def test_basis_contract(self, form, fault):
        # lam a finite positive (k,) vector, u a finite (N, k) matrix; any
        # other basis is refused by name, not met as a NaN or numpy error
        g = grid_graph(6, 6)
        lam, u = eigensolve_smallest(g, 3)
        basis = form(lam, u)
        if fault is None:
            np.testing.assert_array_equal(
                embedding_distances(basis, g.sources, g.targets),
                embedding_distances((lam, u), g.sources, g.targets))
            return
        with pytest.raises(ValueError, match=r"^basis " + fault):
            embedding_distances(basis, g.sources, g.targets)

    @pytest.mark.parametrize("case", [0, 1, 2, "seed-tree", "learned"])
    def test_mode_count_monotonicity(self, case):
        if isinstance(case, int):
            g = random_connected_graph(25, 35, seed=case)
            s, t = np.array([0, 3, 7]), np.array([12, 20, 8])
            reff = np.asarray(dense_resistance(g, zip(s, t)))
            counts = (2, 6, 12, 24)
        else:
            # The estimate the loop hands its scorer, on the loop's own
            # graphs (weights M / z spanning decades) and pool pairs.
            X = generate_measurement_set(grid_graph(7, 7), 8, 7)[0]
            g_o, g = init_graph(X, learner.KNN_COUNT)
            if case == "learned":
                g, _ = learn(X, None)
            s, t = g_o.sources, g_o.targets
            reff = effective_resistance(g, s, t)
            counts = (learner.MODE_COUNT, g.node_count - 1)
        prev = np.zeros(s.size)
        for count in counts:
            z = embedding_distances(eigensolve_smallest(g, count), s, t)
            assert np.all(z >= prev - 1e-12)
            assert np.all(z <= reff + 1e-9)
            prev = z
        if not isinstance(case, int):  # all N - 1 modes: the resistance
            np.testing.assert_allclose(z, reff, rtol=1e-10)


class TestPerturbationTheorem:
    """The paper's theorem on the basis the loop scores with: adding weight
    ``dw`` on edge ``(s, t)`` shifts eigenvalue ``lambda_i`` by ``dw * (u_s -
    u_t)^2`` to first order, so the embedding distance summed over the
    modes is the rate of their log-determinant."""

    def test_two_node_exact(self):
        # the rank-one update scales the whole Laplacian: 2 -> 2.2
        u = eigensolve_smallest(
            WeightedGraph(2, [0], [1], [1.0]), 1)[1][:, 0]
        shift = 0.1 * (u[0] - u[1]) ** 2
        assert shift == pytest.approx(0.2)
        after, _ = eigensolve_smallest(
            WeightedGraph(2, [0], [1], [1.1]), 1)
        assert after[0] == pytest.approx(2.0 + shift)

    @pytest.mark.parametrize("n", [9, 200], ids=["dense", "lanczos"])
    def test_constant_on_endpoints(self, n):
        # Path eigenvectors cos(pi k (j + 1/2) / n) agree at both ends for
        # even k, so closing the path leaves those modes where they were;
        # odd k shift by the theorem's amount.  dw is small enough that no
        # mode passes another.
        g = grid_graph(1, n)
        assert (n > spectral.DENSE_EIG_LIMIT) == (n == 200)
        dw, count = 1e-4, 4
        before, u = eigensolve_smallest(g, count)
        after, _ = eigensolve_smallest(g.with_edges([0], [n - 1], [dw]),
                                       count)
        shift = dw * (u[0] - u[n - 1]) ** 2
        np.testing.assert_allclose(shift[1::2], 0.0, atol=1e-12)
        np.testing.assert_allclose(after[1::2], before[1::2], rtol=1e-9)
        np.testing.assert_allclose(after[::2] - before[::2], shift[::2],
                                   rtol=0.01)

    @pytest.mark.parametrize("backend", ["dense", "lanczos"])
    def test_matches_reeigensolve(self, backend, monkeypatch):
        if backend == "lanczos":
            monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 0)
        g = random_connected_graph(50, 101, seed=0)
        s, t = 3, 41
        assert (s, t) not in set(zip(g.sources.tolist(), g.targets.tolist()))
        dw = 1e-4
        before, u = eigensolve_smallest(g, 5)
        after, _ = eigensolve_smallest(g.with_edges([s], [t], [dw]), 5)
        np.testing.assert_allclose(after - before, dw * (u[s] - u[t]) ** 2,
                                   rtol=1e-3)

    @pytest.mark.parametrize("backend", ["dense", "lanczos"])
    def test_embedding_distance_is_the_log_det_rate(self, backend,
                                                    monkeypatch):
        if backend == "lanczos":
            monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 0)
        g = random_connected_graph(50, 101, seed=1)
        s, t = 7, 30
        assert (s, t) not in set(zip(g.sources.tolist(), g.targets.tolist()))
        h = 1e-5
        before = eigensolve_smallest(g, 5)
        after, _ = eigensolve_smallest(g.with_edges([s], [t], [h]), 5)
        rate = np.sum(np.log(after) - np.log(before[0])) / h
        z = embedding_distances(before, [s], [t])
        assert z.shape == (1,) and rate == pytest.approx(z[0], rel=1e-4)


class TestSolveLaplacian:
    def test_two_node(self):
        g = WeightedGraph(2, [0], [1], [1.0])
        x = solve_laplacian(g, np.array([1.0, -1.0]))
        np.testing.assert_allclose(x, [0.5, -0.5], rtol=1e-9)

    def test_solution_bits_do_not_depend_on_layout(self):
        # column sums round by memory order; every layout of b is solved as
        # its column-major copy
        g = grid_graph(6, 6)
        b = generate_currents(36, 6, 0)
        wide = np.repeat(b, 2, axis=1)
        x = solve_laplacian(g, b)
        for view in (np.asfortranarray(b), np.asfortranarray(wide)[:, ::2],
                     wide[:, ::2]):
            np.testing.assert_array_equal(solve_laplacian(g, view), x)

    def test_zero_rhs(self):
        g = triangle()
        np.testing.assert_array_equal(
            solve_laplacian(g, np.zeros(3)), np.zeros(3))

    def test_path_hand_case(self):
        g = WeightedGraph(3, [0, 1], [1, 2], [1.0, 1.0])
        x = solve_laplacian(g, np.array([1.0, 0.0, -1.0]))
        np.testing.assert_allclose(x, [1.0, 0.0, -1.0], atol=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [0, 500, 1000, 1010,
                                   1018, 1019, 1020, 1021, 1022])
    def test_weights_scaled_by_a_power_of_two(self, k):
        # Down to 2**-1010 the solution scales exactly; nearer the bottom of
        # the normal floats the factor may lose bits, but the solve returns
        # or refuses the scale by name, with no overflow in its centering.
        g, b = grid_graph(6, 6), generate_currents(36, 1, 0)[:, 0]
        if k <= 1010:
            np.testing.assert_array_equal(solve_laplacian(g.scaled(
                2.0 ** -k), b), np.ldexp(solve_laplacian(g, b), k))
            return
        try:
            solve_laplacian(g.scaled(2.0 ** -k), b)
        except ValueError as exc:
            assert "badly scaled" in str(exc)

    def test_rejects_rhs_outside_range(self):
        g = triangle()
        with pytest.raises(ValueError):
            solve_laplacian(g, np.array([1.0, 1.0, 1.0]))

    # Each case is a graph shape one of the former CG variants was built
    # for; the ids keep those variants' names.  All three now go through
    # the one grounded factor.
    @pytest.mark.parametrize("extra_edges, w_range", [
        pytest.param(0, (0.5, 2.0), id="tree"),        # spanning tree alone
        pytest.param(60, (1e-3, 1e3), id="jacobi"),    # six decades of weight
        pytest.param(60, (0.5, 2.0), id="None"),
    ])
    def test_roundtrip_residual(self, extra_edges, w_range):
        g = random_connected_graph(40, extra_edges, seed=2, w_range=w_range)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(40)
        b -= b.mean()
        x = solve_laplacian(g, b)
        assert np.linalg.norm(g.laplacian @ x - b) <= 1e-10 * np.linalg.norm(b)
        assert abs(x.sum()) < 1e-8

    def test_block_rhs_matches_pinv_per_column(self):
        g = random_connected_graph(35, 50, seed=4)
        B = np.random.default_rng(5).standard_normal((35, 6))
        B -= B.mean(axis=0)
        B[:, 2] = 0.0
        X = solve_laplacian(g, B)
        assert X.shape == B.shape
        pinv = dense_pinv(g)
        for j in range(B.shape[1]):
            np.testing.assert_allclose(X[:, j], pinv @ B[:, j], atol=1e-8)

    def test_matches_dense_pinv(self):
        g = random_connected_graph(30, 45, seed=6)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(30)
        b -= b.mean()
        np.testing.assert_allclose(solve_laplacian(g, b), dense_pinv(g) @ b,
                                   atol=1e-8)

    def test_rejects_non_finite_rhs(self):
        with pytest.raises(ValueError):
            solve_laplacian(triangle(), np.array([np.nan, 0.0, 0.0]))

    def test_factor_pivots_on_the_diagonal(self):
        # SuperLU's default pivot threshold picks off-diagonal pivots on this
        # learned graph; the grounded Laplacian is SPD, so diagonal pivots
        # are stable.
        lu = learn(*generate_measurement_set(grid_graph(8, 8), 8,
                                             seed=0))[0]._factor
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)

    def test_residual_above_tolerance_raises_solver_error(self):
        # weights spread over about 1e16: the factor exists, but its solve
        # misses the residual check
        g = grid_graph(6, 6)
        w = np.random.default_rng(26).lognormal(0, 6, g.edge_count)
        g = WeightedGraph(36, g.sources, g.targets, w)
        with pytest.raises(SolverError, match=r"^relative residual \S+ above "
                                              "tolerance 1e-10$"):
            simulate_voltages(g, generate_currents(36, 3, 0))

    def test_unresolvable_weight_range_raises_solver_error(self):
        # 1e-20 + 1e20 rounds to 1e20, so the grounded factor is singular;
        # every solve-backed entry point must say so instead of leaking a
        # bare RuntimeError or returning a wrong resistance.
        g = WeightedGraph(3, [0, 1], [1, 2], [1e-20, 1e20])
        b = np.array([1.0, 0.0, -1.0])
        with pytest.raises(SolverError):
            solve_laplacian(g, b)
        with pytest.raises(SolverError):
            effective_resistance(g, [0], [2])
        with pytest.raises(SolverError):
            simulate_voltages(g, b[:, None])

    @pytest.mark.parametrize("factor", [1e-300, 1e300])
    def test_currents_in_any_units_solve_to_scaled_voltages(self, factor):
        # solved in b's units, Y * 1e-300 came back all zeros and Y * 1e300
        # raised a residual of nan
        g = grid_graph(6, 6)
        Y = generate_currents(36, 3, 0)
        x = solve_laplacian(g, Y)
        for got in solve_laplacian(g, Y * factor), simulate_voltages(
                g, Y * factor):
            np.testing.assert_allclose(got / factor, x, rtol=0,
                                       atol=1e-12 * np.abs(x).max())

    def test_overflowing_solution_is_refused_by_name(self):
        # b is representable; L^+ b, times 1e10 on these weights, is not
        g = grid_graph(6, 6).scaled(1e-10)
        b = generate_currents(36, 2, 0) * 1e300
        with pytest.raises(ValueError, match="^badly scaled measurements: "
                                             "the solution overflows"):
            solve_laplacian(g, b)

    @given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.data())
    def test_power_of_two_columns_solve_to_the_same_bits(self, n, seed,
                                                         data):
        # every column is solved in unit scale and scaled back once
        g = random_connected_graph(n, (n - 1) * (n - 2) // 4, seed,
                                   w_range=(1e-3, 1e3))
        b = generate_currents(n, 3, seed)
        k = np.array(data.draw(st.lists(st.integers(-1000, 1000),
                                        min_size=3, max_size=3)))
        scaled = np.ldexp(b, k)
        # representable: exact, with no subnormal entry
        assume(np.array_equal(np.ldexp(scaled, -k), b))
        assume(np.all((scaled == 0)
                      | (np.abs(scaled) >= np.finfo(float).tiny)))
        # |x| stays below 2**24 on these weights, so x * 2**k is finite
        np.testing.assert_array_equal(solve_laplacian(g, scaled),
                                      np.ldexp(solve_laplacian(g, b), k))


class TestObjectiveValue:
    @pytest.mark.parametrize("eig_count", [2.0, True])
    def test_rejects_non_integer_eig_count(self, eig_count):
        X = np.random.default_rng(0).standard_normal((9, 3))
        with pytest.raises(ValueError) as err:
            objective_value(grid_graph(3, 3), X, eig_count=eig_count)
        assert str(err.value) == f"count must be an integer, got {eig_count!r}"

    def test_two_node_closed_form(self):
        a = 0.3
        w = 1.7
        g = WeightedGraph(2, [0], [1], [w])
        X = np.array([[a], [-a]])
        # lambda_1 = 2 w and quadratic_form = w (2 a)^2, with M = 1
        assert quadratic_form(g, X) == pytest.approx(4 * a * a * w)
        assert objective_value(g, X, eig_count=1) == pytest.approx(
            np.log(2 * w) - quadratic_form(g, X))

    def test_two_node_maximized_at_weight_formula(self):
        # F(w) = log(2w) - 4 a^2 w peaks at w* = 1/(4 a^2) = M / z_data
        a = 0.3
        z_data = 4 * a * a
        w_star = 1.0 / (4 * a * a)
        X = np.array([[a], [-a]])

        def F(w):
            return objective_value(WeightedGraph(2, [0], [1], [w]),
                                   X, 1)

        assert w_star == pytest.approx(X.shape[1] / z_data)
        assert F(w_star) > F(w_star * 1.01)
        assert F(w_star) > F(w_star * 0.99)

    def test_weight_scaling_shifts_logdet(self):
        g = random_connected_graph(12, 10, seed=4)
        X = np.random.default_rng(0).standard_normal((12, 3))
        k = 6
        trace = quadratic_form(g, X) / X.shape[1]
        logdet = np.sum(np.log(eigensolve_smallest(g, k)[0]))
        assert objective_value(g, X, k) == pytest.approx(logdet - trace,
                                                         rel=1e-12)
        # tripling every weight adds k log 3 to the log term and triples
        # the quadratic one
        assert objective_value(g.scaled(3.0), X, k) == pytest.approx(
            logdet + k * np.log(3.0) - 3 * trace, rel=1e-9)

    def test_eig_count_out_of_range(self):
        g = triangle()
        with pytest.raises(ValueError,
                           match=r"^count must be in \[1, 2\], got 3$"):
            objective_value(g, np.zeros((3, 1)), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_voltages(self, bad):
        X = np.random.default_rng(0).standard_normal((16, 3))
        X[5, 1] = bad
        with pytest.raises(ValueError,
                           match=r"^X must be finite \(found NaN or inf\)$"):
            objective_value(grid_graph(4, 4), X, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_of_existing_edge(self, seed):
        # central finite difference of F in an existing edge's weight vs the
        # analytic gradient from exact eigenpairs
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 21))
        g = random_connected_graph(n, int(rng.integers(2, n)), seed=seed)
        X = rng.standard_normal((n, 6))
        idx = int(rng.integers(g.edge_count))
        s, t, w = (c[idx] for c in edge_columns(g))

        vals, vecs = dense_eigenpairs(g)
        e = np.zeros(n)
        e[s], e[t] = 1.0, -1.0
        analytic = float(((vecs[:, 1:].T @ e) ** 2 / vals[1:]).sum()
                         - ((X[s] - X[t]) ** 2).sum() / X.shape[1])

        h = 1e-6 * max(1.0, w)

        def F(weight):
            return objective_value(g.with_edges([s], [t], [weight]), X,
                                   n - 1)

        fd = (F(w + h) - F(w - h)) / (2 * h)
        assert fd == pytest.approx(analytic, rel=1e-4)
