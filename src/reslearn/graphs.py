"""Weighted undirected graphs, Laplacians, effective resistance, spanning trees.

The graph model is deliberately narrow: simple undirected graphs with strictly
positive edge weights (conductances).  The ``WeightedGraph`` constructor is
the one place that checks edges and stores them canonically, as ``s < t``
arrays sorted lexicographically, which makes every construction
deterministic and bit-reproducible.  Each graph owns its Laplacian: the
matrix (assembled by SciPy from its edges), its connected component count and
its grounded factor are built on first use and cached on the graph, and every
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
# Elements per block of row differences in _squared_row_distances (256 KB).
_DISTANCE_BLOCK = 2**15


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
    weights finite, positive and normal.  Edges come in any order and
    orientation; a duplicate ``(s, t)`` pair keeps its last weight.  The
    ``(s, t)`` order is the one tie rule: rankings of edges break ties by it.
    Instances are immutable; mutating operations return new graphs.

    Raises
    ------
    ValueError
        If ``node_count`` is not an integer >= 1, the endpoints break the
        node-index contract of :func:`_index_pairs` (naming ``edge
        endpoints``), the weights break that of :func:`_real_matrix` (naming
        ``edge weights``), or they are not 1-D, as many, normal floats > 0.
    """

    node_count: int
    sources: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_int("node_count", self.node_count, 1)
        n = int(self.node_count)
        object.__setattr__(self, "node_count", n)
        s, t = _index_pairs((self.sources, self.targets), n, "edge endpoints")
        w = _real_matrix("edge weights", self.weights, ndims=(1,))
        if w.size != s.size:
            raise ValueError("sources, targets and weights must be 1-D "
                             "arrays of one length")
        if not np.all(w > 0):
            raise ValueError("edge weights must be > 0")
        if np.any(w < np.finfo(float).tiny):
            raise ValueError("edge weights must be normal floats, at least "
                             f"{np.finfo(float).tiny}")
        lo, hi = np.minimum(s, t), np.maximum(s, t)
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

    @property
    def edge_count(self):
        return self.sources.shape[0]

    def with_edges(self, sources, targets, weights):
        """Return a new graph with the edges ``(sources[i], targets[i])`` of
        weight ``weights[i]`` inserted, checked by the constructor as given;
        an edge given again, here or in this graph, keeps its last weight."""
        new = WeightedGraph(self.node_count, sources, targets, weights)
        if not new.edge_count:
            return self
        return self._pass_connected(WeightedGraph(
            self.node_count, np.concatenate([self.sources, new.sources]),
            np.concatenate([self.targets, new.targets]),
            np.concatenate([self.weights, new.weights])))

    def scaled(self, factor):
        """Return a copy with every edge weight multiplied by ``factor``."""
        _require_real("scale factor", factor, "(0, inf)")
        return self._pass_connected(WeightedGraph(
            self.node_count, self.sources, self.targets,
            self.weights * factor))

    def _pass_connected(self, other):
        """``other``, a graph on these nodes that holds every edge of this
        one: when this graph's cached component count says it is connected,
        so is ``other``, which takes it without a components pass of its
        own."""
        if self.__dict__.get("_components") == 1:
            # cached_property reads the instance dict first.
            other.__dict__["_components"] = 1
        return other

    @cached_property
    def laplacian(self):
        """The CSR Laplacian ``L = D - W``, assembled on first use and cached;
        derived graphs (``scaled``, ``with_edges``, ...) are new graphs with
        their own.  Raises ``ValueError`` if a weighted degree overflows."""
        n, s, t, w = self.node_count, self.sources, self.targets, self.weights
        nodes = np.arange(n)
        # SciPy sums and sorts COO entries given in any order.  Listed as
        # here, with edges sorted by (s, t), row i arrives already sorted:
        # the edges (j, i) with j < i, the diagonal, then the edges (i, j)
        # with j > i; and bincount sums each degree in that column order.
        degree = np.bincount(np.concatenate([t, s]), np.concatenate([w, w]),
                             minlength=n)
        if not np.all(np.isfinite(degree)):
            raise ValueError("badly scaled graph: a weighted degree "
                             "overflows; rescale the weights")
        return sp.csr_matrix((np.concatenate([-w, degree, -w]),
                              (np.concatenate([t, nodes, s]),
                               np.concatenate([s, nodes, t]))), shape=(n, n))

    @cached_property
    def _components(self):
        """The number of connected components."""
        return int(connected_components(self.laplacian, directed=False)[0])

    @cached_property
    def _factor(self):
        """Grounded SuperLU factor of :attr:`laplacian`; see
        :func:`reslearn.spectral._grounded_factor`."""
        from .spectral import _grounded_factor

        return _grounded_factor(self.laplacian)


def quadratic_form(g, x):
    """Smoothness of the signal ``x``: sum of ``w_{s,t} (x_s - x_t)^2``.

    Equals ``x^T L x`` up to rounding; ``x`` is an (N,) vector or an (N, M)
    matrix (summed over columns), checked as ``X`` by :func:`_real_matrix`.
    Sums per edge through :func:`_squared_row_distances`: O(E + block) memory.
    """
    x = _real_matrix("X", x, g.node_count, (1, 2)).reshape(g.node_count, -1)
    return float(g.weights @ _squared_row_distances(x, g.sources, g.targets))


def is_connected(g):
    """Whether ``g`` has a single connected component."""
    return g._components == 1


def _require_connected(g):
    """Raise :class:`DisconnectedGraphError` unless ``g`` is connected."""
    if g._components != 1:
        raise DisconnectedGraphError(g._components)


def _require_int(name, value, minimum):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    (Python or numpy, not boolean) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def _require_real(name, value, interval):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a real number
    (Python or numpy, not boolean) in ``interval``, such as ``"[0, inf)"``."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    low, high = (float(b) for b in interval[1:-1].split(","))
    if not ((value >= low if interval[0] == "[" else value > low)
            and (value <= high if interval[-1] == "]" else value < high)):
        raise ValueError(f"{name} must be in {interval}, got {value!r}")


def _real_matrix(name, a, rows=None, ndims=(2,)):
    """The one check of real-valued arrays (measurements, right-hand sides,
    edge weights, eigenvalues): ``a`` holds no boolean (:func:`_holds_bool`),
    is not ragged, its ``np.asarray`` dtype is integer or floating, its
    ``ndim`` is in ``ndims``, it has ``rows`` rows when given, and every
    entry is finite.  Returns C-ordered float64, the layout of the
    learner's row gathers (kNN and :func:`_squared_row_distances`), and
    C-ordered float64 input without a copy; raises one ``ValueError``
    naming ``name`` per fault otherwise."""
    if _holds_bool(a):
        raise ValueError(f"{name} must hold real numbers, not a boolean")
    try:
        a = np.asarray(a)
    except ValueError:  # numpy refuses a ragged nested sequence
        raise ValueError(f"{name} is ragged") from None
    if a.dtype.kind not in "iuf":  # signed, unsigned integer or floating
        raise ValueError(f"{name} must hold real numbers, not {a.dtype}")
    if a.ndim not in ndims:
        shape = {(1,): "a 1-D array", (2,): "an (N, M) matrix",
                 (1, 2): "an (N,) vector or (N, M) matrix"}[ndims]
        raise ValueError(f"{name} must be {shape}, got shape {a.shape}")
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"{name} has {a.shape[0]} rows for {rows} nodes")
    a = np.ascontiguousarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite (found NaN or inf)")
    return a


def _unit_scale(a, axis=None):
    """``(a * 2**-e, e)``: ``a`` in unit scale, max |a| in [0.5, 1) over
    ``a`` or per column (``axis=0``; ``e`` is 0 for a zero column).  On it,
    comparisons, sorts, norms and solves give the same bits, scaled, unless
    an entry drops below 2**-1022, and none overflow.  ``a`` itself comes
    back when every ``e`` is 0, a scaled copy otherwise, so callers only
    read the result."""
    _, e = np.frexp(np.maximum(a.max(axis=axis), -a.min(axis=axis)))
    if not np.any(e):
        return a, e
    return np.ldexp(a, -e), e


def _squared_row_distances(A, s, t):
    """The one per-pair squared difference ``||A[s] - A[t]||^2`` between
    rows, for the int64 index arrays ``s, t``.  Pairs are taken in blocks
    of ``_DISTANCE_BLOCK // A.shape[1]`` rows (at least two; width 0 counts
    as 1), each written into the one output, so memory is the output plus
    one block of differences, whatever the pair count and row width.
    einsum reduces each row of a block of two or more alone, so the blocks
    give the one-shot bits."""
    n = len(s)
    out = np.empty(n)
    rows = max(2, _DISTANCE_BLOCK // max(1, A.shape[1]))
    for start in range(0, n, rows):
        # A last block of one row takes the row before it along: einsum
        # sums a lone row wider than numpy's 8192-element buffer in another
        # order than the same row among others.
        lo, stop = max(0, min(start, n - 2)), start + rows
        diff = A[s[lo:stop]] - A[t[lo:stop]]
        out[lo:stop] = np.einsum("ij,ij->i", diff, diff)
    return out


def _holds_bool(raw):
    """Whether ``raw`` is a boolean or a list or tuple holding one at any
    depth, which numpy would take as a number; arrays go by their dtype."""
    return (isinstance(raw, (bool, np.bool_)) or isinstance(raw, (list, tuple))
            and any(map(_holds_bool, raw)))


def _index_pairs(columns, n, name):
    """The one check of node indices: ``columns`` are the endpoints
    ``(s, t)`` of node pairs, two 1-D sequences of one length of integers
    (not booleans) in ``[0, n)`` with no ``s[i] == t[i]``.  An array is
    judged by its dtype, any other sequence by its elements too (numpy
    turns a boolean among numbers into a number).  Returns int64 arrays;
    raises ``ValueError`` naming ``name`` otherwise."""
    malformed = ValueError(f"{name} must be (s, t) pairs of integer node "
                           "indices")
    try:
        s, t = (np.asarray(end) for end in columns)
    except ValueError:  # not two sequences, or ragged ones
        raise malformed from None
    integer = all(np.issubdtype(a.dtype, np.integer) for a in (s, t))
    if (s.ndim != 1 or s.shape != t.shape or s.size and not integer
            or _holds_bool(columns)):
        raise malformed
    s, t = s.astype(np.int64, copy=False), t.astype(np.int64, copy=False)
    if s.size and (min(s.min(), t.min()) < 0 or max(s.max(), t.max()) >= n):
        raise ValueError(f"{name}: node index out of range [0, {n})")
    if np.any(s == t):
        raise ValueError(f"{name}: a pair joins a node to itself")
    return s, t


def effective_resistance(g, sources, targets):
    """Effective resistance ``e_{s,t}^T L^+ e_{s,t}`` of each node pair
    ``(sources[i], targets[i])``.

    The endpoints are checked by :func:`_index_pairs`, int arrays taken as
    they are.  The columns ``e_s - e_t`` are solved through
    :func:`reslearn.spectral.solve_laplacian`, at most ``_RESISTANCE_BLOCK``
    pairs per call, so every block shares the graph's one grounded factor
    of L and memory stays O(N * block).  Returns a float64 array, one
    resistance per pair.

    Raises
    ------
    DisconnectedGraphError
        Resistance is undefined across components.
    SolverError
        If the Laplacian solve fails (see ``solve_laplacian``).
    ValueError
        If the endpoints break the node-index contract of
        :func:`_index_pairs` (naming ``pairs``).
    """
    from .spectral import solve_laplacian

    n = g.node_count
    src, dst = _index_pairs((sources, targets), n, "pairs")
    out = np.empty(src.size)
    for start in range(0, src.size, _RESISTANCE_BLOCK):
        s, t = (v[start:start + _RESISTANCE_BLOCK] for v in (src, dst))
        cols = np.arange(s.size)
        b = np.zeros((n, s.size))
        b[s, cols] = 1.0
        b[t, cols] = -1.0
        x = solve_laplacian(g, b)
        out[start:start + s.size] = x[s, cols] - x[t, cols]
    return out


def maximum_spanning_tree(g):
    """Maximum-weight spanning tree of a connected graph; raises
    :class:`DisconnectedGraphError` with the component count otherwise.

    Equal weights go by the graph's canonical ``(s, t)`` order, so repeated
    runs are bit-identical: each edge's rank in the order (weight descending,
    a stable sort keeping ties in that order) is a distinct weight, whose
    unique minimum spanning tree is the tree Kruskal's algorithm keeps
    scanning that order.
    """
    n = g.node_count
    order = np.argsort(-g.weights, kind="stable")
    rank = np.empty(order.size)
    rank[order] = np.arange(1, order.size + 1)  # 0 would mean "no edge"
    ranked = sp.coo_matrix((rank, (g.sources, g.targets)), shape=(n, n))
    forest = minimum_spanning_tree(ranked)
    if forest.nnz < n - 1:
        raise DisconnectedGraphError(n - forest.nnz)
    keep = order[forest.data.astype(np.int64) - 1]
    tree = WeightedGraph(n, g.sources[keep], g.targets[keep], g.weights[keep])
    # n - 1 edges spanning n nodes: a tree is connected by construction.
    tree.__dict__["_components"] = 1
    return tree


def grid_graph(rows, cols):
    """Rectangular grid graph with unit edge weights (4-neighborhood).

    Raises ``ValueError`` naming ``rows`` or ``cols`` unless it is an
    integer >= 1."""
    _require_int("rows", rows, 1)
    _require_int("cols", cols, 1)
    node = np.arange(rows * cols).reshape(rows, cols)
    s = np.concatenate([node[:, :-1].ravel(), node[:-1].ravel()])
    t = np.concatenate([node[:, 1:].ravel(), node[1:].ravel()])
    return WeightedGraph(rows * cols, s, t, np.ones(s.size))
