"""Weighted undirected graphs, Laplacians, effective resistance, spanning trees.

The graph model is deliberately narrow: simple undirected graphs with strictly
positive edge weights (conductances).  The ``WeightedGraph`` constructor is
the one place that checks edges and stores them canonically, as ``s < t``
arrays sorted lexicographically, which makes every construction
deterministic and bit-reproducible.  Each graph owns its Laplacian: the
matrix (assembled by SciPy from its edges), its connected components and its
grounded factor are built on first use and cached on the graph, and every
Laplacian routine takes the graph.
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

    def __init__(self, n_components):
        self.n_components = int(n_components)
        super().__init__(
            f"graph is disconnected ({self.n_components} components)")


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected positively weighted graph on nodes ``0..node_count-1``.

    The constructor sets up the one edge invariant every routine relies on:
    three parallel read-only arrays (int64 endpoints, float64 weights) with
    ``sources[i] < targets[i]``, sorted by ``(s, t)``, no duplicates, all
    weights finite and strictly positive.  It takes edges in any order and
    orientation; a duplicate ``(s, t)`` pair keeps its last weight.
    Instances are immutable; mutating operations return new graphs.

    Raises
    ------
    ValueError
        If ``node_count`` is not an integer >= 1, the three arrays are not
        1-D of one length, an endpoint is not an integer (booleans are
        refused) in ``[0, node_count)``, an edge joins a node to itself, or
        a weight is not a finite real number > 0.
    """

    node_count: int
    sources: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_int("node_count", self.node_count, 1)
        n = int(self.node_count)
        object.__setattr__(self, "node_count", n)
        raw = (self.sources, self.targets, self.weights)
        s, t, w = (np.asarray(a) for a in raw)
        if not (s.ndim == t.ndim == w.ndim == 1
                and s.size == t.size == w.size):
            raise ValueError("sources, targets and weights must be 1-D "
                             "arrays of one length")
        # numpy turns a list mixing booleans with numbers into numbers.
        bools = [not isinstance(a, np.ndarray)
                 and _is_bool(np.asarray(a, dtype=object)).any() for a in raw]
        if bools[0] or bools[1]:
            raise ValueError("edge endpoints must be (s, t) pairs of integer "
                             "node indices")
        if bools[2]:
            raise ValueError("edge weights must be real numbers")
        if s.size and not (np.issubdtype(s.dtype, np.integer)
                           and np.issubdtype(t.dtype, np.integer)):
            raise ValueError("edge endpoints must be integer node indices, "
                             f"got {s.dtype} and {t.dtype}")
        lo, hi = np.minimum(s, t), np.maximum(s, t)
        if lo.size and (lo.min() < 0 or hi.max() >= n):
            raise ValueError(f"edge endpoint out of range [0, {n})")
        if np.any(lo == hi):
            raise ValueError("self-loops are not allowed")
        if w.size and not (np.issubdtype(w.dtype, np.integer)
                           or np.issubdtype(w.dtype, np.floating)):
            raise ValueError(f"edge weights must be real numbers, got "
                             f"{w.dtype}")
        w = w.astype(np.float64, copy=False)
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("edge weights must be finite and > 0")
        lo, hi = (a.astype(np.int64, copy=False) for a in (lo, hi))
        # Stable sort by (s, t); of each run of duplicates keep the last.
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        last = np.ones(keys.size, dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        order = order[last]
        for name, a in (("sources", lo), ("targets", hi), ("weights", w)):
            a = a[order]
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def from_edges(cls, node_count, edges):
        """Build a graph from an iterable of ``(s, t, w)`` triples.

        Endpoints may appear in either order; they are canonicalized to
        ``s < t``.  A duplicate ``(s, t)`` pair replaces the earlier weight
        (last one wins), so re-inserting an edge updates it in place.

        Raises
        ------
        ValueError
            If ``node_count`` is not an integer >= 1, or an edge is not an
            ``(s, t, w)`` triple of two distinct in-range integer endpoints
            and a finite, positive real weight.
        """
        _require_int("node_count", node_count, 1)
        return cls(node_count, *_edge_arrays(edges, node_count))

    @property
    def edge_count(self):
        return self.sources.shape[0]

    def edge_list(self):
        """Edges as a list of ``(s, t, w)`` tuples in canonical order."""
        return list(zip(self.sources.tolist(), self.targets.tolist(),
                        self.weights.tolist()))

    def with_edges(self, edges):
        """Return a new graph with ``edges`` inserted (duplicates replace);
        ``edges`` are ``(s, t, w)`` triples as :meth:`from_edges` takes."""
        s, t, w = _edge_arrays(edges, self.node_count)
        if not s.size:
            return self
        return self._pass_connected(WeightedGraph(
            self.node_count, np.concatenate([self.sources, s]),
            np.concatenate([self.targets, t]),
            np.concatenate([self.weights, w])))

    def scaled(self, factor):
        """Return a copy with every edge weight multiplied by ``factor``."""
        if not np.isfinite(factor) or factor <= 0:
            raise ValueError("scale factor must be finite and > 0")
        return self._pass_connected(WeightedGraph(
            self.node_count, self.sources, self.targets,
            self.weights * factor))

    def _pass_connected(self, other):
        """``other``, a graph on these nodes that holds every edge of this
        one: when this graph's cached components say it is connected, so is
        ``other``, which takes them without a components pass of its own."""
        cached = self.__dict__.get("_components")
        if cached is not None and cached[0] == 1:
            # cached_property reads the instance dict first.
            other.__dict__["_components"] = cached
        return other

    def adjacency(self):
        """Symmetric weighted adjacency as CSR."""
        n = self.node_count
        rows = np.concatenate([self.sources, self.targets])
        cols = np.concatenate([self.targets, self.sources])
        vals = np.concatenate([self.weights, self.weights])
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    @cached_property
    def laplacian(self):
        """The CSR Laplacian ``L = D - W``, assembled on first use and cached;
        derived graphs (``scaled``, ``with_edges``, ...) are new graphs with
        their own."""
        n, s, t, w = self.node_count, self.sources, self.targets, self.weights
        nodes = np.arange(n)
        # SciPy sums and sorts COO entries given in any order.  Listed as
        # here, with edges sorted by (s, t), row i arrives already sorted:
        # the edges (j, i) with j < i, the diagonal, then the edges (i, j)
        # with j > i; and bincount sums each degree in that column order.
        degree = np.bincount(np.concatenate([t, s]), np.concatenate([w, w]),
                             minlength=n)
        return sp.csr_matrix((np.concatenate([-w, degree, -w]),
                              (np.concatenate([t, nodes, s]),
                               np.concatenate([s, nodes, t]))), shape=(n, n))

    @cached_property
    def _components(self):
        """``(count, labels)``: connected components, labels ``0..count-1``
        in a read-only array."""
        count, labels = connected_components(self.laplacian, directed=False)
        labels.setflags(write=False)
        return int(count), labels

    @cached_property
    def _factor(self):
        """Grounded SuperLU factor of :attr:`laplacian`; see
        :func:`reslearn.spectral._grounded_factor`."""
        from .spectral import _grounded_factor

        return _grounded_factor(self.laplacian)


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
    n, labels = g._components
    return n == 1, labels


def _require_connected(g):
    """Raise :class:`DisconnectedGraphError` unless ``g`` is connected."""
    n, _ = g._components
    if n != 1:
        raise DisconnectedGraphError(n)


def _require_int(name, value, minimum):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    (Python or numpy, not boolean) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


_is_bool = np.frompyfunc(lambda v: isinstance(v, (bool, np.bool_)), 1, 1)


def _node_pairs(pairs, n, name):
    """Endpoint arrays ``(s, t)`` of ``pairs``, which must be (k, 2) integer
    (not boolean) node indices in ``[0, n)`` with ``s != t``; raises
    ``ValueError`` naming ``name`` otherwise.  No pairs gives empty arrays."""
    malformed = ValueError(f"{name} must be (s, t) pairs of integer node "
                           "indices")
    pairs = list(pairs)
    try:
        arr = np.asarray(pairs)
    except ValueError:  # ragged: pairs of different lengths or nesting
        raise malformed from None
    if arr.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if (arr.ndim != 2 or arr.shape[1] != 2
            or not np.issubdtype(arr.dtype, np.integer)
            or _is_bool(np.asarray(pairs, dtype=object)).any()):
        raise malformed
    if np.any((arr < 0) | (arr >= n)):
        raise ValueError(f"{name}: node index out of range [0, {n})")
    s, t = arr.astype(np.int64).T
    if np.any(s == t):
        raise ValueError(f"{name}: a pair joins a node to itself")
    return s, t


def _edge_arrays(edges, n):
    """Arrays ``(s, t, w)`` of the ``(s, t, w)`` triples ``edges``: endpoints
    as :func:`_node_pairs` takes them, each weight a real scalar (Python or
    numpy, not boolean); raises ``ValueError`` otherwise.  No edges gives
    empty arrays."""
    edges = list(edges)
    if not all(len(e) == 3 for e in edges):
        raise ValueError("edges must be (s, t, w) triples")
    s, t = _node_pairs([e[:2] for e in edges], n, "edge endpoints")
    w = [e[2] for e in edges]
    if not all(isinstance(v, (int, float, np.integer, np.floating))
               and not isinstance(v, bool) for v in w):
        raise ValueError("edge weights must be real numbers")
    return s, t, np.asarray(w, dtype=np.float64)


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
    out = []
    for start in range(0, src.size, _RESISTANCE_BLOCK):
        s, t = (v[start:start + _RESISTANCE_BLOCK] for v in (src, dst))
        cols = np.arange(s.size)
        b = np.zeros((n, s.size))
        b[s, cols] = 1.0
        b[t, cols] = -1.0
        x = solve_laplacian(g, b)
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
    keep = order[forest.data.astype(np.int64) - 1]
    tree = WeightedGraph(n, g.sources[keep], g.targets[keep], g.weights[keep])
    # n - 1 edges spanning n nodes: a tree is connected by construction.
    labels = np.zeros(n, dtype=np.int32)
    labels.setflags(write=False)
    tree.__dict__["_components"] = (1, labels)
    return tree


def grid_graph(rows, cols):
    """Rectangular grid graph with unit edge weights (4-neighborhood)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    node = np.arange(rows * cols).reshape(rows, cols)
    s = np.concatenate([node[:, :-1].ravel(), node[:-1].ravel()])
    t = np.concatenate([node[:, 1:].ravel(), node[1:].ravel()])
    return WeightedGraph(rows * cols, s, t, np.ones(s.size))
