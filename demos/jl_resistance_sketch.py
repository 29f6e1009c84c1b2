"""Resistance sketching: O(log N) measurements preserve all pairwise
effective resistances.

Builds the random +-1/sqrt(M) measurement sketch on a random graph and
verifies the (1 +- eps) sandwich of squared voltage distances around the
true effective resistances.
"""

import numpy as np

import reslearn as rl
from reslearn.graphs import WeightedGraph


def random_connected_graph(n, extra, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    edges = {}
    for i in range(1, n):
        a, b = int(perm[i]), int(perm[rng.integers(0, i)])
        edges[(min(a, b), max(a, b))] = rng.uniform(0.5, 2.0)
    while len(edges) < n - 1 + extra:
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a != b and (min(a, b), max(a, b)) not in edges:
            edges[(min(a, b), max(a, b))] = rng.uniform(0.5, 2.0)
    return WeightedGraph(n, [s for s, _ in edges], [t for _, t in edges],
                         list(edges.values()))


def main():
    n, eps = 150, 0.5
    g = random_connected_graph(n, 300, seed=0)
    m = rl.jl_measurement_count(n, eps)
    print(f"graph: {n} nodes, {g.edge_count} edges; eps = {eps} "
          f"-> M = ceil(24 ln N / eps^2) = {m}")

    X, _ = rl.generate_jl_measurements(g, eps, seed=0)
    pinv = np.linalg.pinv(g.laplacian.toarray(), hermitian=True)
    rng = np.random.default_rng(1)
    ratios = []
    for _ in range(2000):
        s, t = (int(v) for v in rng.integers(0, n, 2))
        if s == t:
            continue
        reff = pinv[s, s] + pinv[t, t] - 2 * pinv[s, t]
        z = ((X[s] - X[t]) ** 2).sum()
        ratios.append(z / reff)
    ratios = np.asarray(ratios)
    inside = ((ratios >= 1 - eps) & (ratios <= 1 + eps)).mean()
    print(f"sampled {len(ratios)} pairs: "
          f"ratio z/R in [{ratios.min():.3f}, {ratios.max():.3f}], "
          f"median {np.median(ratios):.3f}")
    print(f"{100 * inside:.2f}% inside the (1 +- {eps}) sandwich")


if __name__ == "__main__":
    main()
