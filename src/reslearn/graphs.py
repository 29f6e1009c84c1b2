"""Weighted undirected graphs, Laplacians, effective resistance, spanning trees.

The graph model is deliberately narrow: simple undirected graphs with strictly
positive edge weights (conductances).  Edges are stored canonically as
``s < t`` arrays sorted lexicographically, which makes every construction
deterministic and bit-reproducible.  Each graph has one Laplacian operator,
built on first use, which owns its matrix, components and grounded factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

# Pairs per block of right-hand sides in effective_resistance; bounds its
# memory at O(N * block).
_RESISTANCE_BLOCK = 256


class DisconnectedGraphError(ValueError):
    """Raised by operations that require a connected graph."""

    def __init__(self, n_components, message=None):
        self.n_components = int(n_components)
        super().__init__(
            message or f"graph is disconnected ({self.n_components} components)"
        )


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected positively weighted graph on nodes ``0..node_count-1``.

    Edges are held in three parallel arrays with canonical orientation
    ``sources[i] < targets[i]``, sorted by ``(s, t)``, no duplicates, all
    weights strictly positive.  Instances are immutable; mutating operations
    return new graphs.
    """

    node_count: int
    sources: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.sources, self.targets, self.weights):
            a.setflags(write=False)

    @classmethod
    def from_edges(cls, node_count, edges):
        """Build a graph from an iterable of ``(s, t, w)`` triples.

        Endpoints may appear in either order; they are canonicalized to
        ``s < t``.  A duplicate ``(s, t)`` pair replaces the earlier weight
        (last one wins), so re-inserting an edge updates it in place.

        Raises
        ------
        ValueError
            On self-loops, out-of-range endpoints, or non-positive weights.
        """
        node_count = int(node_count)
        if node_count < 1:
            raise ValueError("node_count must be positive")
        edges = list(edges)
        s = np.asarray([e[0] for e in edges], dtype=np.int64)
        t = np.asarray([e[1] for e in edges], dtype=np.int64)
        w = np.asarray([e[2] for e in edges], dtype=np.float64)
        return cls._from_arrays(node_count, s, t, w)

    @classmethod
    def _from_arrays(cls, node_count, s, t, w):
        if np.any(s == t):
            raise ValueError("self-loops are not allowed")
        if np.any((s < 0) | (s >= node_count) | (t < 0) | (t >= node_count)):
            raise ValueError("edge endpoint out of range")
        if np.any(~np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("edge weights must be finite and > 0")
        lo = np.minimum(s, t)
        hi = np.maximum(s, t)
        # Stable sort by (s, t); for duplicates keep the *last* occurrence.
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        keys = lo * np.int64(node_count) + hi
        # np.unique keeps the first of each run; flip so the last wins.
        _, first_of_run = np.unique(keys[::-1], return_index=True)
        keep = len(keys) - 1 - first_of_run
        keep.sort()
        return cls(node_count, np.ascontiguousarray(lo[keep]),
                   np.ascontiguousarray(hi[keep]),
                   np.ascontiguousarray(w[keep]))

    @property
    def edge_count(self):
        return self.sources.shape[0]

    def edge_list(self):
        """Edges as a list of ``(s, t, w)`` tuples in canonical order."""
        return list(zip(self.sources.tolist(), self.targets.tolist(),
                        self.weights.tolist()))

    def with_edges(self, edges):
        """Return a new graph with ``edges`` inserted (duplicates replace)."""
        extra = list(edges)
        if not extra:
            return self
        s = np.concatenate([self.sources,
                            np.asarray([e[0] for e in extra], dtype=np.int64)])
        t = np.concatenate([self.targets,
                            np.asarray([e[1] for e in extra], dtype=np.int64)])
        w = np.concatenate([self.weights,
                            np.asarray([e[2] for e in extra], dtype=np.float64)])
        return WeightedGraph._from_arrays(self.node_count, s, t, w)

    def scaled(self, factor):
        """Return a copy with every edge weight multiplied by ``factor``."""
        if not np.isfinite(factor) or factor <= 0:
            raise ValueError("scale factor must be finite and > 0")
        return WeightedGraph(self.node_count, self.sources, self.targets,
                             np.ascontiguousarray(self.weights * factor))

    def adjacency(self):
        """Symmetric weighted adjacency as CSR."""
        n = self.node_count
        rows = np.concatenate([self.sources, self.targets])
        cols = np.concatenate([self.targets, self.sources])
        vals = np.concatenate([self.weights, self.weights])
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    @cached_property
    def _laplacian(self):
        return LaplacianOperator(self)


class LaplacianOperator:
    """Symmetric PSD Laplacian ``L = D - W`` of a :class:`WeightedGraph`
    (see :func:`build_laplacian`), with its CSR ``matrix``, ``components`` and
    the factor :mod:`reslearn.spectral` caches on it.  It keeps no reference
    to its graph, so reference counting frees the two together."""

    def __init__(self, graph):
        self.node_count = graph.node_count
        adj = graph.adjacency()
        deg = np.asarray(adj.sum(axis=1)).ravel()
        self.matrix = (sp.diags(deg) - adj).tocsr()
        self._factor = None

    @cached_property
    def components(self):
        """``(count, labels)``: connected components, labels ``0..count-1``
        in a read-only array."""
        count, labels = connected_components(self.matrix, directed=False)
        labels.setflags(write=False)
        return int(count), labels

    def apply(self, x):
        """Return ``L @ x`` (works for vectors and column-stacked matrices)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.node_count:
            raise ValueError("dimension mismatch")
        return self.matrix @ x


def build_laplacian(g):
    """The one Laplacian operator of ``g``, assembled on first call and
    cached on the graph; derived graphs (``scaled``, ``with_edges``, ...)
    are new graphs with their own."""
    return g._laplacian


def quadratic_form(g, x):
    """Smoothness of the signal ``x``: sum of ``w_{s,t} (x_s - x_t)^2``.

    Equals ``x^T L x`` up to rounding; accepts an (N,) vector or an (N, M)
    matrix (summed over columns).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != g.node_count:
        raise ValueError("dimension mismatch")
    diff = x[g.sources] - x[g.targets]
    if diff.ndim == 1:
        return float(np.dot(g.weights, diff * diff))
    return float(np.dot(g.weights, (diff * diff).sum(axis=1)))


def is_connected(g):
    """Whether ``g`` has a single connected component, plus node labels."""
    n, labels = build_laplacian(g).components
    return n == 1, labels


def _require_connected(L):
    """Raise :class:`DisconnectedGraphError` unless ``L``'s graph is
    connected."""
    n, _ = L.components
    if n != 1:
        raise DisconnectedGraphError(n)


_is_bool = np.frompyfunc(lambda v: isinstance(v, (bool, np.bool_)), 1, 1)


def _node_pairs(pairs, n, name):
    """Endpoint arrays ``(s, t)`` of ``pairs``, which must be (k, 2) integer
    (not boolean) node indices in ``[0, n)`` with ``s != t``; raises
    ``ValueError`` naming ``name`` otherwise.  No pairs gives empty arrays."""
    pairs = list(pairs)
    arr = np.asarray(pairs)
    if arr.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if (arr.ndim != 2 or arr.shape[1] != 2
            or not np.issubdtype(arr.dtype, np.integer)
            or _is_bool(np.asarray(pairs, dtype=object)).any()):
        raise ValueError(f"{name} must be (s, t) pairs of integer node "
                         "indices")
    if np.any((arr < 0) | (arr >= n)):
        raise ValueError(f"{name}: node index out of range [0, {n})")
    s, t = arr.astype(np.int64).T
    if np.any(s == t):
        raise ValueError(f"{name}: a pair joins a node to itself")
    return s, t


def effective_resistance(g, pairs):
    """Effective resistance ``e_{s,t}^T L^+ e_{s,t}`` for each node pair.

    The columns ``e_s - e_t`` are solved through
    :func:`reslearn.spectral.solve_laplacian`, at most ``_RESISTANCE_BLOCK``
    pairs per call, so every block shares the graph's one grounded factor of
    L and memory stays O(N * block).  No pairs gives an empty list.

    Raises
    ------
    DisconnectedGraphError
        Resistance is undefined across components.
    SolverError
        If the Laplacian solve fails (see ``solve_laplacian``).
    ValueError
        If ``pairs`` is not (k, 2) integer node indices in range, or a pair
        has ``s == t``.
    """
    from .spectral import solve_laplacian

    n = g.node_count
    src, dst = _node_pairs(pairs, n, "pairs")
    lap = build_laplacian(g)
    out = []
    for start in range(0, src.size, _RESISTANCE_BLOCK):
        s, t = (v[start:start + _RESISTANCE_BLOCK] for v in (src, dst))
        cols = np.arange(s.size)
        b = np.zeros((n, s.size))
        b[s, cols] = 1.0
        b[t, cols] = -1.0
        x = solve_laplacian(lap, b)
        out.extend((x[s, cols] - x[t, cols]).tolist())
    return out


def maximum_spanning_tree(g):
    """Maximum-weight spanning tree of a connected graph; raises
    :class:`DisconnectedGraphError` with the component count otherwise.

    Ties are broken toward the lexicographically smaller ``(s, t)`` pair so
    repeated runs are bit-identical: each edge's rank in the order (weight
    descending, then ``(s, t)`` ascending) is a distinct weight, whose unique
    minimum spanning tree is the tree Kruskal's algorithm keeps scanning
    that order.
    """
    n = g.node_count
    order = np.lexsort((g.targets, g.sources, -g.weights))
    rank = np.empty(order.size)
    rank[order] = np.arange(1, order.size + 1)  # 0 would mean "no edge"
    ranked = sp.coo_matrix((rank, (g.sources, g.targets)), shape=(n, n))
    forest = minimum_spanning_tree(ranked)
    if forest.nnz < n - 1:
        raise DisconnectedGraphError(n - forest.nnz)
    keep = np.sort(order[forest.data.astype(np.int64) - 1])
    return WeightedGraph(n, g.sources[keep], g.targets[keep],
                         g.weights[keep])


def grid_graph(rows, cols, weight=1.0):
    """Rectangular grid graph with uniform edge weight (4-neighborhood)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, weight))
            if r + 1 < rows:
                edges.append((v, v + cols, weight))
    return WeightedGraph.from_edges(rows * cols, edges)
