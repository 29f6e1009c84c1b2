"""Acceptance suite: every contract criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (run pytest with
``-rA`` or ``-s`` to see them).  The desk-scale experiments share a single
30x30-grid learning run (module-scoped fixtures) so the whole suite stays
within a few minutes single-threaded.
"""

import math
import time

import numpy as np
import pytest

import reslearn as rl
from reslearn import learner

from _oracles import dense_laplacian, random_connected_graph, \
    sample_distinct_pairs

GRID_SEED = 0  # measurement seed for the grid protocols


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def grid900_run():
    g = rl.grid_graph(30, 30)
    X, Y = rl.generate_measurement_set(g, 50, seed=GRID_SEED)
    learned, trace = rl.learn(X, Y)
    return g, (X, Y), learned, trace


def test_c1_perturbation_theorem_accuracy():
    worst = 0.0
    for seed in range(20):
        g = random_connected_graph(50, 101, seed=seed)  # 150 edges
        vals, vecs = np.linalg.eigh(dense_laplacian(g))
        rng = np.random.default_rng(1000 + seed)
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
            dense_laplacian(g) + dw * np.outer(e, e))
        for i in range(1, 6):
            exact = vals_after[i] - vals[i]
            # the theorem's first-order shift dw * (u_s - u_t)^2
            est = dw * (vecs[s, i] - vecs[t, i]) ** 2
            worst = max(worst, abs(est - exact) / abs(exact))
    _report("C1 theorem-1 accuracy", worst <= 0.05,
            f"worst relative error {worst:.2e} <= 5e-2")


def test_c2_gradient_fidelity():
    rng = np.random.default_rng(7)
    worst = 0.0
    cases = 0
    while cases < 100:
        n = int(rng.integers(6, 21))
        g = random_connected_graph(n, int(rng.integers(1, n)),
                                   seed=int(rng.integers(1 << 30)))
        existing = set(zip(g.sources.tolist(), g.targets.tolist()))
        candidates = [(s, t) for s in range(n) for t in range(s + 1, n)
                      if (s, t) not in existing]
        if not candidates:
            continue
        s, t = candidates[int(rng.integers(len(candidates)))]
        m = 10
        Y = rl.generate_currents(n, m, seed=int(rng.integers(1 << 30)))
        X = rl.simulate_voltages(g, Y)
        # the loop's scorer, at the weight M / z the loop would give (s, t)
        # and the exact resistance, so C2 checks the gradient formula
        z = float(np.sum((X[s] - X[t]) ** 2))
        _, sens = learner._rank_candidates(
            rl.effective_resistance(g, [s], [t]), np.array([m / z]), 1)
        sens = float(sens[0])

        h = 1e-6
        e = np.zeros(n)
        e[s], e[t] = 1.0, -1.0
        plus = rl.objective_value(g.with_edges([s], [t], [h]), X, n - 1)
        # negative-side evaluation of the same truncated objective (the
        # graph type cannot carry a negative weight)
        L_minus = dense_laplacian(g) - h * np.outer(e, e)
        lam = np.linalg.eigvalsh(L_minus)[1:]
        minus = float(np.log(lam).sum()
                      - np.einsum("ij,ij->", L_minus @ X, X) / m)
        fd = (plus - minus) / (2 * h)
        worst = max(worst, abs(sens - fd) / abs(fd))
        cases += 1
    _report("C2 gradient fidelity", worst <= 1e-4,
            f"worst relative error {worst:.2e} <= 1e-4 over 100 cases")


def test_c3_jl_resistance_sandwich():
    eps = 0.5
    n = 200
    m_expected = math.ceil(24 * math.log(n) / eps ** 2)
    assert rl.jl_measurement_count(n, eps) == m_expected
    worst_fraction = 1.0
    for seed in range(5):
        g = random_connected_graph(n, 400, seed=seed)
        X, _ = rl.generate_jl_measurements(g, eps, seed=seed)
        pinv = np.linalg.pinv(dense_laplacian(g), hermitian=True)
        rng = np.random.default_rng(99 + seed)
        pairs = sample_distinct_pairs(n, 1000, rng)
        inside = 0
        for s, t in pairs:
            reff = pinv[s, s] + pinv[t, t] - 2 * pinv[s, t]
            z = ((X[s] - X[t]) ** 2).sum()
            inside += (1 - eps) * reff <= z <= (1 + eps) * reff
        worst_fraction = min(worst_fraction, inside / len(pairs))
    _report("C3 JL sandwich", worst_fraction >= 0.99,
            f"worst in-bounds fraction {worst_fraction:.3f} >= 0.99, "
            f"M={m_expected}")


def test_c4a_converged(grid900_run):
    _, _, _, trace = grid900_run
    final = trace.records[-1].s_max
    ok = trace.status == "converged" and final <= 1e-12
    _report("C4a converged", ok,
            f"status={trace.status}, final s_max={final:.2e}")


def test_c4b_sparsity(grid900_run):
    g, _, learned, _ = grid900_run
    ok = learned.edge_count <= 2 * g.node_count
    _report("C4b sparsity", ok,
            f"|E|={learned.edge_count} <= 2N={2 * g.node_count}")


def test_c4c_resistance_correlation(grid900_run):
    g, _, learned, _ = grid900_run
    _, _, _, corr = rl.resistance_correlation(g, learned, 1000, seed=0)
    _report("C4c resistance pearson", corr >= 0.9,
            f"pearson={corr:.4f} >= 0.9")


def test_c4d_spectrum_ratios(grid900_run):
    g, _, learned, _ = grid900_run
    lam_t, lam_l, _ = rl.compare_spectra(g, learned, 10)
    ratios = lam_l / lam_t
    ok = bool(np.all((ratios >= 0.5) & (ratios <= 2.0)))
    _report("C4d spectrum ratios", ok,
            f"ratios in [{ratios.min():.2f}, {ratios.max():.2f}] within "
            f"[0.5, 2]")


def test_c5_monotone_convergence_trend(grid900_run):
    _, _, _, trace = grid900_run
    s_max = trace.s_max_history
    running_min = np.minimum.accumulate(s_max)
    strictly = bool(np.all(np.diff(running_min) < 0))
    capped = trace.iterations <= rl.learner.MAX_ITERATIONS
    _report("C5 monotone trend", strictly and capped,
            f"running min strictly decreasing={strictly} over "
            f"{trace.iterations} iterations, within cap={capped}")


def test_c6_scaling_identity():
    worst = 0.0
    for seed, extra in ((0, 0), (1, 6)):  # a tree and a loopy graph
        g = random_connected_graph(18, extra, seed=seed)
        X, Y = rl.generate_measurement_set(g, 12, seed=seed)
        for c in (0.1, 0.5, 2.0, 10.0):
            restored = rl.edge_scale(g.scaled(c), X, Y)
            worst = max(worst, float(np.max(
                np.abs(restored.weights - g.weights) / g.weights)))
    _report("C6 scaling identity", worst <= 1e-8,
            f"worst relative weight error {worst:.2e} <= 1e-8")


def test_c7_noise_robustness(grid900_run):
    g, (X, Y), _, _ = grid900_run
    noisy1 = rl.add_noise(X, 0.1, seed=GRID_SEED + 1)
    learned1, _ = rl.learn(noisy1, Y)
    _, _, _, corr = rl.resistance_correlation(g, learned1, 1000, seed=0)

    noisy5 = rl.add_noise(X, 0.5, seed=GRID_SEED + 2)
    learned5, _ = rl.learn(noisy5, Y)
    lam_t, lam_l, _ = rl.compare_spectra(g, learned5, 3)
    ratios = lam_l / lam_t
    ok_corr = corr >= 0.8
    ok_spec = bool(np.all((ratios >= 0.25) & (ratios <= 4.0)))
    _report("C7 noise robustness", ok_corr and ok_spec,
            f"zeta=0.1 pearson={corr:.4f} >= 0.8; zeta=0.5 first-3 ratios "
            f"in [{ratios.min():.2f}, {ratios.max():.2f}] within [0.25, 4]")


def test_c8_reduced_learning(grid900_run):
    g, (X, _), _, _ = grid900_run
    fraction = 0.2
    X_red, kept = rl.subsample_nodes(X, fraction, seed=GRID_SEED)
    learned, trace = rl.learn(X_red, None)
    expected_nodes = math.ceil(fraction * g.node_count)
    connected = rl.is_connected(learned)
    ok = (learned.node_count == expected_nodes and connected
          and trace.status == "converged")
    _report("C8 reduced learning", ok,
            f"nodes={learned.node_count} (expect {expected_nodes}), "
            f"connected={connected}, status={trace.status}")


def test_c9_knn_baseline_comparison(grid900_run):
    g, (X, Y), learned, _ = grid900_run
    g_o, _ = rl.init_graph(X, 5)
    g_5nn = rl.edge_scale(g_o, X, Y)
    f_sgl = rl.objective_value(learned, X, 50)
    f_5nn = rl.objective_value(g_5nn, X, 50)
    ok = f_sgl >= f_5nn and learned.edge_count < g_5nn.edge_count
    _report("C9 kNN baseline", ok,
            f"F_sgl={f_sgl:.3f} >= F_5nn={f_5nn:.3f}; "
            f"|E| {learned.edge_count} < {g_5nn.edge_count}")


def test_c10_scaling_smoke(grid900_run):
    _, _, _, trace900 = grid900_run
    sizes = [900]
    med_secs = [float(np.median([r.seconds for r in trace900.records]))]
    statuses = [trace900.status]
    for rows in (50, 100):
        g = rl.grid_graph(rows, rows)
        X, Y = rl.generate_measurement_set(g, 50, seed=GRID_SEED)
        started = time.perf_counter()
        _, trace = rl.learn(X, Y)
        elapsed = time.perf_counter() - started
        sizes.append(g.node_count)
        med_secs.append(float(np.median([r.seconds for r in trace.records])))
        statuses.append(trace.status)
        print(f"  N={g.node_count}: {trace.iterations} iterations, "
              f"{elapsed:.1f}s total")
    slope = float(np.polyfit(np.log(sizes), np.log(med_secs), 1)[0])
    completed = all(s in ("converged", "candidate_pool_exhausted")
                    for s in statuses)
    _report("C10 scalability", completed and slope < 1.5,
            f"completed at N={sizes}, per-iteration log-log slope "
            f"{slope:.2f} < 1.5")
