"""Shared test helpers: random graph generation, dense reference oracles and
a file that fills up as a full disk does.

Everything here is deliberately naive (dense LAPACK, explicit loops) and
independent of the library's own solver paths.
"""

import errno
import itertools

import numpy as np

from reslearn.graphs import WeightedGraph


def random_connected_graph(n, extra_edges, seed, w_range=(0.5, 2.0)):
    """Random-permutation spanning tree plus uniformly sampled extra edges;
    connected by construction, deterministic per seed."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    edges = {}
    for i in range(1, n):
        a, b = int(perm[i]), int(perm[rng.integers(0, i)])
        edges[(min(a, b), max(a, b))] = rng.uniform(*w_range)
    while len(edges) < n - 1 + extra_edges:
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a != b and (min(a, b), max(a, b)) not in edges:
            edges[(min(a, b), max(a, b))] = rng.uniform(*w_range)
    pairs = sorted(edges)
    return WeightedGraph(n, [s for s, _ in pairs], [t for _, t in pairs],
                         [edges[p] for p in pairs])


def edge_columns(g):
    """The edges of ``g`` as lists ``(sources, targets, weights)``."""
    return g.sources.tolist(), g.targets.tolist(), g.weights.tolist()


def dense_laplacian(g):
    L = np.zeros((g.node_count, g.node_count))
    for s, t, w in zip(*edge_columns(g)):
        L[s, s] += w
        L[t, t] += w
        L[s, t] -= w
        L[t, s] -= w
    return L


def dense_pinv(g):
    """Dense pseudoinverse of the Laplacian."""
    return np.linalg.pinv(dense_laplacian(g), hermitian=True)


def dense_resistance(g, pairs):
    """Effective resistance via the dense pseudoinverse."""
    pinv = dense_pinv(g)
    return [float(pinv[s, s] + pinv[t, t] - 2.0 * pinv[s, t])
            for s, t in pairs]


def dense_eigenpairs(g):
    """All eigenpairs, ascending, via LAPACK."""
    return np.linalg.eigh(dense_laplacian(g))


def brute_force_mst_weight(g):
    """Maximum total spanning-tree weight by enumerating all edge subsets
    of size N - 1.  Exponential; only for tiny graphs."""
    n = g.node_count
    edges = list(zip(*edge_columns(g)))
    best = -np.inf
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        merged = 0
        for s, t, _ in subset:
            ra, rb = find(s), find(t)
            if ra != rb:
                parent[ra] = rb
                merged += 1
        if merged == n - 1:
            best = max(best, sum(w for _, _, w in subset))
    return best


def reference_maximum_spanning_tree(g):
    """Kruskal's maximum spanning forest with ties toward the smaller
    ``(s, t)``: scan the edges by weight descending, then ``(s, t)``
    ascending, and keep each edge that joins two components.

    Returns the kept ``(s, t, w)`` triples sorted by ``(s, t)`` and the
    number of components of ``g``.
    """
    parent = list(range(g.node_count))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    kept = []
    for s, t, w in sorted(zip(*edge_columns(g)),
                          key=lambda e: (-e[2], e[0], e[1])):
        ra, rb = find(s), find(t)
        if ra != rb:
            parent[ra] = rb
            kept.append((s, t, w))
    return sorted(kept), g.node_count - len(kept)


def reference_mtx_edges(entries):
    """What ``read_graph_mtx`` must make of nonzero ``(r, c, w)`` entries,
    with ``r != c`` and ``w > 0``: one pair per unordered ``(s, t)`` in
    ascending order, each group's weights checked in file order.

    Returns ``("conflict", (s, t))`` for the first pair whose weights spread
    more than ``1e-12 * |first weight|``, else ``("edges", triples)``
    with each pair's first weight.
    """
    groups = {}
    for r, c, w in entries:
        groups.setdefault((min(r, c), max(r, c)), []).append(w)
    edges = []
    for (s, t), ws in sorted(groups.items()):
        if max(ws) - min(ws) > 1e-12 * abs(ws[0]):
            return "conflict", (s, t)
        edges.append((s, t, ws[0]))
    return "edges", edges


def brute_force_knn_distances(X, k):
    """Each row's ``k`` smallest squared Euclidean distances to the other
    rows, ascending: a full sort of the row's distances to every row."""
    nearest = []
    for i in range(X.shape[0]):
        d = np.sum((X - X[i]) ** 2, axis=1)
        nearest.append(np.sort(np.delete(d, i))[:k])
    return nearest


def random_unit_current(n, rng):
    y = rng.standard_normal(n)
    y -= y.mean()
    return y / np.linalg.norm(y)


def sample_distinct_pairs(n, count, rng):
    seen = set()
    while len(seen) < count:
        s, t = (int(v) for v in rng.integers(0, n, 2))
        if s != t:
            seen.add((min(s, t), max(s, t)))
    return sorted(seen)


def closest_pair_bridges(X, s, t):
    """The bridges that join the components of the pairs ``(s, t)``, found
    one per pass over every pair of rows: each is the globally closest pair
    of rows in different components, by exact squared differences, ties to
    the smallest ``(s, t)``.  Returns ``(s, t, squared distance)`` triples
    in the order found."""
    n = X.shape[0]
    labels = np.arange(n)
    for a, b in zip(s.tolist(), t.tolist()):
        labels[labels == labels[a]] = labels[b]
    bridges = []
    while np.any(labels != labels[0]):
        best = (np.inf, -1, -1)
        for a in range(n - 1):
            d = np.sum((X[a + 1:] - X[a]) ** 2, axis=1)
            d[labels[a + 1:] == labels[a]] = np.inf
            b = int(np.argmin(d))  # the first of equal minima: smallest t
            best = min(best, (float(d[b]), a, a + 1 + b))
        d, a, b = best
        labels[labels == labels[a]] = labels[b]
        bridges.append((a, b, d))
    return bridges


class FullDisk:
    """A file that takes ``room`` bytes, then fails as a full disk does."""

    def __init__(self, fh, room):
        self._fh, self._room = fh, room

    def write(self, data):
        if len(data) > self._room:
            self._fh.write(data[:self._room])
            self._room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= len(data)
        return self._fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
