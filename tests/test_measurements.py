import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reslearn.graphs import WeightedGraph, grid_graph, quadratic_form
from reslearn.measurements import (
    add_noise,
    generate_currents,
    generate_jl_measurements,
    generate_measurement_set,
    jl_measurement_count,
    simulate_voltages,
    subsample_nodes,
)
from reslearn.metrics import resistance_correlation
from reslearn.spectral import objective_value

from _oracles import dense_laplacian, dense_resistance, random_connected_graph


class TestGenerateCurrents:
    def test_two_node_unique_direction(self):
        Y = generate_currents(2, 3, seed=42)
        np.testing.assert_allclose(np.abs(Y), np.full((2, 3), np.sqrt(0.5)),
                                   rtol=1e-12)

    def test_columns_centered_and_unit(self):
        Y = generate_currents(40, 12, seed=1)
        np.testing.assert_allclose(Y.sum(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(Y, axis=0), 1.0, atol=1e-10)

    def test_deterministic(self):
        a = generate_currents(17, 9, seed=123)
        b = generate_currents(17, 9, seed=123)
        assert np.array_equal(a, b)
        c = generate_currents(17, 9, seed=124)
        assert not np.array_equal(a, c)

    def test_column_substreams_are_stable(self):
        # column i does not depend on how many columns are requested
        wide = generate_currents(10, 8, seed=5)
        narrow = generate_currents(10, 3, seed=5)
        np.testing.assert_array_equal(wide[:, :3], narrow)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            generate_currents(1, 4, seed=0)

    @pytest.mark.parametrize("node_count, count, match", [
        (16, 2.5, "^count must be an integer"),
        (16, True, "^count must be an integer"),
        (16.0, 2, "^node_count must be an integer"),
    ], ids=["fractional-count", "boolean-count", "float-node-count"])
    def test_rejects_non_integer_sizes(self, node_count, count, match):
        with pytest.raises(ValueError, match=match):
            generate_currents(node_count, count, seed=0)

    def test_accepts_numpy_integer_sizes(self):
        Y = generate_currents(np.int64(6), np.int32(3), seed=0)
        np.testing.assert_array_equal(Y, generate_currents(6, 3, seed=0))


class TestSimulateVoltages:
    def test_two_node_eigenmode(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        y = np.array([[1.0], [-1.0]]) / np.sqrt(2)
        np.testing.assert_allclose(simulate_voltages(g, y), y / 2, rtol=1e-9)

    def test_zero_currents(self):
        g = grid_graph(3, 3)
        np.testing.assert_array_equal(simulate_voltages(g, np.zeros((9, 2))),
                                      np.zeros((9, 2)))

    def test_path_hand_case(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        y = np.array([[1.0], [0.0], [-1.0]]) / np.sqrt(2)
        np.testing.assert_allclose(simulate_voltages(g, y), y, atol=1e-9)

    def test_columns_orthogonal_to_ones(self):
        g = random_connected_graph(20, 25, seed=3)
        ms = generate_measurement_set(g, 7, seed=2)
        np.testing.assert_allclose(ms.X.sum(axis=0), 0.0, atol=1e-8)

    def test_matches_dense_pinv(self):
        g = random_connected_graph(15, 12, seed=9)
        Y = generate_currents(15, 4, seed=4)
        ref = np.linalg.pinv(dense_laplacian(g), hermitian=True) @ Y
        np.testing.assert_allclose(simulate_voltages(g, Y), ref, atol=1e-8)


class TestAddNoise:
    def test_zero_level_identity(self):
        X = np.random.default_rng(0).standard_normal((10, 4))
        np.testing.assert_array_equal(add_noise(X, 0.0, seed=1), X)

    def test_exact_displacement(self):
        X = np.random.default_rng(1).standard_normal((30, 6))
        for zeta in (0.1, 0.5, 2.0):
            noisy = add_noise(X, zeta, seed=7)
            np.testing.assert_allclose(
                np.linalg.norm(noisy - X, axis=0),
                zeta * np.linalg.norm(X, axis=0), rtol=1e-12)

    @pytest.mark.parametrize("level", [np.nan, np.inf, -0.1])
    def test_rejects_bad_level(self, level):
        X = np.random.default_rng(3).standard_normal((8, 2))
        with pytest.raises(ValueError):
            add_noise(X, level, seed=1)

    @pytest.mark.parametrize("factor", [1e160, 1e-300])
    def test_voltages_in_any_units_get_the_full_noise(self, factor):
        # taken in X's units, the column norms overflowed at 1e160 and
        # underflowed (11% of the noise lost) at 1e-300
        ms = generate_measurement_set(grid_graph(6, 6), 10, 0)
        X = ms.X * factor
        shift = -int(np.round(np.log2(factor)))
        noise = np.ldexp(add_noise(X, 0.1, 0) - X, shift)
        np.testing.assert_allclose(
            np.linalg.norm(noise, axis=0),
            0.1 * np.linalg.norm(np.ldexp(X, shift), axis=0), rtol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([-1000, 1000]),
           st.sampled_from([0.01, 0.1, 2.0]))
    def test_displacement_holds_at_extreme_powers_of_two(self, seed, j,
                                                         zeta):
        X = np.random.default_rng(seed).standard_normal((20, 4))
        scaled = np.ldexp(X, j)
        noise = np.ldexp(add_noise(scaled, zeta, seed) - scaled, -j)
        np.testing.assert_allclose(np.linalg.norm(noise, axis=0),
                                   zeta * np.linalg.norm(X, axis=0),
                                   rtol=1e-12)

    def test_deterministic(self):
        X = np.random.default_rng(2).standard_normal((12, 3))
        assert np.array_equal(add_noise(X, 0.3, seed=5),
                              add_noise(X, 0.3, seed=5))

    def test_moderate_noise_keeps_low_spectrum(self):
        # qualitative: zeta = 0.5 degrades but does not destroy the first
        # few eigenvalues of the learned graph (checked on data distances:
        # noisy distances stay within an order of magnitude)
        g = grid_graph(6, 6)
        ms = generate_measurement_set(g, 50, seed=0)
        noisy = add_noise(ms.X, 0.5, seed=1)
        s, t = g.sources, g.targets
        z = ((ms.X[s] - ms.X[t]) ** 2).sum(axis=1)
        zn = ((noisy[s] - noisy[t]) ** 2).sum(axis=1)
        ratio = zn / z
        assert np.median(ratio) < 10


class TestJlSketch:
    def test_count_formula(self):
        assert jl_measurement_count(200, 0.5) == int(
            np.ceil(24 * np.log(200) / 0.25))
        assert jl_measurement_count(200, 0.5) == 509

    def test_output_shape(self):
        g = random_connected_graph(30, 40, seed=0)
        ms = generate_jl_measurements(g, 0.7, seed=0)
        m = jl_measurement_count(30, 0.7)
        assert ms.X.shape == (30, m)
        assert ms.Y.shape == (30, m)
        assert ms.measurement_count == m

    def test_single_edge_exact_resistance(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
        ms = generate_jl_measurements(g, 0.9, seed=3)
        z = ((ms.X[0] - ms.X[1]) ** 2).sum()
        assert z == pytest.approx(1.0, abs=1e-9)

    def test_currents_orthogonal_but_not_unit(self):
        g = random_connected_graph(25, 30, seed=1)
        ms = generate_jl_measurements(g, 0.5, seed=1)
        assert np.all(np.abs(ms.Y.sum(axis=0)) <= 1e-10)
        norms = np.linalg.norm(ms.Y, axis=0)
        assert np.any(np.abs(norms - 1.0) > 1e-10)

    @pytest.mark.parametrize("seed", range(2))
    def test_resistance_sandwich(self, seed):
        eps = 0.5
        g = random_connected_graph(60, 120, seed=seed)
        ms = generate_jl_measurements(g, eps, seed=seed)
        rng = np.random.default_rng(100 + seed)
        pairs = []
        while len(pairs) < 300:
            s, t = (int(v) for v in rng.integers(0, 60, 2))
            if s != t:
                pairs.append((s, t))
        reff = np.asarray(dense_resistance(g, pairs))
        z = np.asarray([((ms.X[s] - ms.X[t]) ** 2).sum() for s, t in pairs])
        inside = ((1 - eps) * reff <= z) & (z <= (1 + eps) * reff)
        assert inside.mean() >= 0.99


class TestSubsample:
    def test_full_fraction_identity(self):
        X = np.random.default_rng(0).standard_normal((10, 3))
        Xr, idx = subsample_nodes(X, 1.0, seed=0)
        np.testing.assert_array_equal(Xr, X)
        np.testing.assert_array_equal(idx, np.arange(10))

    def test_half_of_ten(self):
        X = np.random.default_rng(1).standard_normal((10, 3))
        Xr, idx = subsample_nodes(X, 0.5, seed=2)
        assert Xr.shape == (5, 3)
        assert len(set(idx.tolist())) == 5
        np.testing.assert_array_equal(Xr, X[idx])

    def test_reduction_factors(self):
        # 20% and 10% keep 5x and 10x smaller networks
        X = np.zeros((1000, 2))
        assert subsample_nodes(X, 0.2, seed=0)[0].shape[0] == 200
        assert subsample_nodes(X, 0.1, seed=0)[0].shape[0] == 100

    def test_too_small_fraction(self):
        with pytest.raises(ValueError):
            subsample_nodes(np.zeros((10, 2)), 0.05, seed=0)

    @pytest.mark.parametrize("X", [np.arange(10.0), np.float64(3.0),
                                   np.zeros((4, 3, 2))])
    def test_refuses_anything_but_a_matrix(self, X):
        with pytest.raises(ValueError, match=r"^X must be an \(N, M\) matrix"):
            subsample_nodes(X, 0.5, 0)

    def test_deterministic(self):
        X = np.random.default_rng(3).standard_normal((40, 2))
        _, a = subsample_nodes(X, 0.3, seed=9)
        _, b = subsample_nodes(X, 0.3, seed=9)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("call, shape", [
    (lambda: add_noise(np.arange(4.0), 0.1, 0), r"\(4,\)"),
    (lambda: add_noise(np.ones((4, 2, 2)), 0.1, 0), r"\(4, 2, 2\)"),
    (lambda: quadratic_form(grid_graph(3, 3), 3.0), r"\(\)"),
    (lambda: quadratic_form(grid_graph(3, 3), np.ones((9, 2, 2))),
     r"\(9, 2, 2\)"),
    (lambda: objective_value(grid_graph(3, 3), 3.0, 2), r"\(\)"),
], ids=["noise-vector", "noise-3d", "quadratic-scalar", "quadratic-3d",
        "objective-scalar"])
def test_wrong_shape_voltages_are_refused_naming_x(call, shape):
    # Refused before any code indexes into the missing or extra axis.
    with pytest.raises(ValueError,
                       match=f"^X must be an .*got shape {shape}$"):
        call()


_NOT_AN_INTEGER = "^seed must be an integer, got {}$"
_BADLY_SCALED = "^badly scaled measurements: .*rescale X$"
_GRID_X = generate_measurement_set(grid_graph(6, 6), 10, 0).X


@pytest.mark.parametrize("call, message", [
    (lambda: generate_currents(36, 3, None), _NOT_AN_INTEGER.format(None)),
    (lambda: generate_measurement_set(grid_graph(6, 6), 3, None),
     _NOT_AN_INTEGER.format(None)),
    (lambda: generate_currents(36, 3, 2.5), _NOT_AN_INTEGER.format(2.5)),
    (lambda: generate_currents(36, 3, -1), "^seed must be >= 0$"),
    (lambda: add_noise(np.ones((4, 2)), 0.1, -1), "^seed must be >= 0$"),
    # checked even when no noise is drawn
    (lambda: add_noise(np.ones((4, 2)), 0, None),
     _NOT_AN_INTEGER.format(None)),
    (lambda: add_noise(np.ones((4, 2)), 0, -1), "^seed must be >= 0$"),
    (lambda: subsample_nodes(np.ones((10, 2)), 0.5, -1),
     "^seed must be >= 0$"),
    (lambda: generate_jl_measurements(grid_graph(3, 3), 0.5, -1),
     "^seed must be >= 0$"),
    (lambda: resistance_correlation(grid_graph(3, 3), grid_graph(3, 3), 10,
                                    -1), "^seed must be >= 0$"),
    (lambda: jl_measurement_count(2.5, 0.5),
     "^node_count must be an integer, got 2.5$"),
    # a noisy value past the float range: X is refused, not made inf
    (lambda: add_noise(_GRID_X / np.abs(_GRID_X).max() * 1.7e308, 0.5, 0),
     _BADLY_SCALED),
], ids=["currents-none", "measurement-set-none", "currents-float",
        "currents-negative", "noise-negative", "noiseless-none",
        "noiseless-negative", "subsample-negative",
        "jl-negative", "resistance-negative", "jl-count-float-nodes",
        "noise-overflow"])
def test_seeds_and_node_counts_are_checked_by_name(call, message):
    # None would draw from OS entropy; -1 reached numpy's own refusal.
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda v: add_noise(np.ones((4, 2)), v, 0), "noise_level"),
    (lambda v: subsample_nodes(np.ones((4, 2)), v, 0), "fraction"),
    (lambda v: jl_measurement_count(10, v), "epsilon"),
], ids=["noise_level", "fraction", "epsilon"])
@pytest.mark.parametrize("value", [True, "0.5", None],
                         ids=["boolean", "string", "none"])
def test_real_parameters_refuse_non_numbers_by_name(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        call(value)


def test_real_parameters_accept_numpy_scalars():
    X = np.random.default_rng(4).standard_normal((8, 2))
    np.testing.assert_array_equal(add_noise(X, np.float32(0.5), 1),
                                  add_noise(X, 0.5, 1))
    assert subsample_nodes(X, np.int64(1), 0)[0].shape == (8, 2)
    assert jl_measurement_count(10, np.float64(0.5)) == \
        jl_measurement_count(10, 0.5)
