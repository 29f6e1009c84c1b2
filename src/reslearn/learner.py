"""Iterative spectral densification: learn a sparse resistor network whose
embedding distances encode measured voltage distances.

The loop starts from the maximum spanning tree of an exact k-nearest-neighbor
candidate graph (one k-d tree query) built on the voltage rows, then
repeatedly scores every off-graph candidate edge by its objective-gradient
sensitivity ``R - z_data / M`` (one array scorer, which takes resistances
``R``, in the loop the embedding distances ``z_emb``, and reads ``z_data /
M`` off the weight ``M / z_data``) and includes the highest-ranked ones
until no candidate's sensitivity is positive; one boolean mask over the
candidate graph's edges tracks which are in.  A final global edge scaling
matches solved voltage norms to measured ones when currents are given.

The loop runs the paper's reference experimental protocol, fixed in the
module constants ``KNN_COUNT``, ``MODE_COUNT``, ``BETA_SAMPLE`` and
``MAX_ITERATIONS``; none of them is an option.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .graphs import (WeightedGraph, _real_matrix, _require_int,
                     _squared_row_distances, _unit_scale,
                     maximum_spanning_tree)
from .spectral import (
    _outside_range,
    eigensolve_smallest,
    embedding_distances,
    solve_laplacian,
)


KNN_COUNT = 5  # nearest neighbors per voltage row in the candidate graph
MODE_COUNT = 4  # nontrivial eigenpairs per iteration (r = 5)
BETA_SAMPLE = 1e-3  # inclusion budget per iteration: ceil(N * BETA_SAMPLE)
MAX_ITERATIONS = 10 * math.ceil(1 / BETA_SAMPLE)


@dataclass(frozen=True)
class IterationRecord:
    """One iteration: the largest candidate sensitivity ``s_max``, then the
    learned graph's edge count after inclusion and the wall-clock seconds;
    ``s_max`` is in unit scale (see :func:`learn`), ``* 4**e`` in X's units."""

    iteration: int
    s_max: float
    edge_count: int
    seconds: float = 0.0


@dataclass
class LearnTrace:
    """Per-iteration convergence record plus the terminal status:
    ``"converged"``, ``"candidate_pool_exhausted"`` or ``"max_iterations"``."""

    records: list[IterationRecord] = field(default_factory=list)
    status: str = "converged"

    @property
    def iterations(self):
        return len(self.records)

    @property
    def s_max_history(self):
        return np.asarray([r.s_max for r in self.records])


def _knn_pairs(X, k):
    """k-nearest-neighbor pairs ``(i, j)`` as int64 arrays: each row ``i``,
    ascending, with its ``min(k, N - 1)`` nearest other rows ``j`` in
    Euclidean distance, nearest first.  A pair found from both ends comes
    back twice, once from each.

    One k-d tree query finds them.  It is exact in distance; where several
    rows tie at a row's k-th distance, the tree's traversal order decides
    which are kept, so the choice is fixed for a given ``X`` but does not
    follow row index.  No distance overflows: ``X`` is in unit scale.
    """
    # Imported here: at module level scipy.spatial slows ``import reslearn``
    # by about 0.1 s.
    from scipy.spatial import cKDTree

    n = X.shape[0]
    k_eff = min(k, n - 1)
    _, nbr = cKDTree(X).query(X, k=k_eff + 1)
    other = nbr != np.arange(n)[:, None]
    # With duplicate rows the query may return k_eff + 1 rows at distance 0
    # without the row itself; keep exactly k_eff other rows either way.
    other &= np.cumsum(other, axis=1) <= k_eff
    return (np.repeat(np.arange(n, dtype=np.int64), k_eff),
            nbr[other].astype(np.int64))


def _floored_distances(X, s, t):
    """Squared data distances ``||X[s] - X[t]||^2`` of the pairs ``(s, t)``,
    zeros (duplicate rows) floored at the smallest positive one: the closest
    distinct pair.  Positive distances are never lifted.  The pairs must
    connect every row, as the repaired pool does: then they all join equal
    rows only if every row equals row 0, which is checked on ``X`` itself,
    not on copies of the pairs' rows.  Memory is O(pairs) plus one block of
    :func:`~reslearn.graphs._squared_row_distances`.  Raises
    ``ValueError`` if all rows are identical, which on ``X`` in unit scale
    bounds the caller's rows to agree within 2**-1073 of max |X| (scaling
    rounds an entry by at most 2**-1075, max |X| is then at least 1/2), or
    if two rows are too close to weigh: the square of their weight ``M /
    z`` would overflow, which in unit scale means they agree to 77 digits
    of max |X|; rows whose only distance underflows to 0 are too close, not
    identical."""
    z = _squared_row_distances(X, s, t)
    i = np.argmin(np.where(z > 0, z, np.inf))  # 0 when no z is positive
    if z[i] == 0 and np.all(X == X[0]):
        raise ValueError("degenerate measurements: all voltage rows "
                         "identical, every entry to within 2**-1073 of max "
                         "|X|")
    if z[i] < X.shape[1] / np.sqrt(np.finfo(np.float64).max):
        a, b = sorted((s[i], t[i]))
        # The rows' gap from their difference in unit scale, as z[i] may
        # have underflowed.
        d, k = _unit_scale(X[a] - X[b])
        gap = np.ldexp(np.linalg.norm(d), k) / max(X.max(), -X.min())
        raise ValueError(
            f"badly scaled measurements: voltage rows {a} and {b} are "
            f"{gap:.3g} of max |X| apart, too close for their weight M / z "
            "to be squared; merge them")
    return np.maximum(z, z[i])


def _connectivity_repair(X, s, t):
    """Bridge the components of the candidate pairs ``(s, t)`` until they
    connect every row: C components get C - 1 bridges, the Euclidean
    minimum spanning tree's edges between them.  Borůvka rounds find them:
    every component but the largest (each pair across components has an end
    outside it) takes its closest outside row by one exact k-d tree query,
    and these bridges join by ascending ``(distance, s, t)`` while their
    ends are in different components.  Where rows tie, the tree's order
    decides, as in :func:`_knn_pairs`.  Returns the pairs with the bridges
    (``s < t``) appended, the input arrays when they already connect; no
    bridge distance overflows, since ``X`` is in unit scale.
    """
    from scipy.spatial import cKDTree

    n = X.shape[0]
    pairs = sp.coo_matrix((np.ones(s.size), (s, t)), shape=(n, n))
    _, labels = connected_components(pairs, directed=False)
    while np.any(labels != labels[0]):
        bridges = []
        for c in np.setdiff1d(labels, np.argmax(np.bincount(labels))):
            inside = np.flatnonzero(labels == c)
            outside = np.flatnonzero(labels != c)
            dist, nbr = cKDTree(X[outside]).query(X[inside])
            i = np.argmin(dist)
            bridges.append((dist[i], *sorted((inside[i], outside[nbr[i]]))))
        joined = []
        for _, a, b in sorted(bridges):
            if labels[a] != labels[b]:
                labels[labels == labels[a]] = labels[b]
                joined.append((a, b))
        a, b = np.array(joined, dtype=np.int64).T
        s, t = np.concatenate((s, a)), np.concatenate((t, b))
    return s, t


def _as_voltages(X, rows=None):
    """``X`` from :func:`~reslearn.graphs._real_matrix`, (N >= 2, M >= 1)."""
    X = _real_matrix("X", X, rows)
    if X.shape[0] < 2 or X.shape[1] < 1:
        raise ValueError("X must be (N >= 2, M >= 1)")
    return X


def _as_currents(Y, X):
    """``Y`` as :func:`~reslearn.graphs._real_matrix` returns it, shaped
    like the checked ``X``, each column nonzero and orthogonal to the
    all-ones vector.  Every column of ``X`` must be nonzero too, or edge
    scaling has no ratio to match.

    Each current column must also do positive work on its voltages, ``x_j^T
    y_j > 0`` (taken in unit scale): a resistor network is passive, so
    ``x_j^T y_j = y_j^T L^+ y_j > 0`` for any nonzero ``y_j`` orthogonal to
    the all-ones vector."""
    Y = _real_matrix("Y", Y, X.shape[0])
    if Y.shape != X.shape:
        raise ValueError("X and Y shapes differ")
    if not np.all(np.any(X, axis=0)):
        raise ValueError("zero voltage column: scaling ratio undefined")
    unit, _ = _unit_scale(Y, axis=0)
    norms = np.linalg.norm(unit, axis=0)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise ValueError(f"Y column {zero[0]} is all zeros: every current "
                         "column must excite the network")
    if _outside_range(unit.sum(axis=0), norms, unit.shape[0]):
        raise ValueError("current columns not orthogonal to all-ones")
    idle = np.flatnonzero(
        np.einsum("ij,ij->j", _unit_scale(X, axis=0)[0], unit) <= 0)
    if idle.size:
        raise ValueError(f"Y column {idle[0]} does no work on its voltages "
                         "(x_j^T y_j <= 0): X and Y are not a "
                         "voltage/current pair")
    return Y


def init_graph(X, k):
    """Candidate graph and its maximum spanning tree seed.

    The candidate graph connects each voltage row to its ``k`` nearest rows
    (exact, by k-d tree; in either direction) with weight ``M / z_data``;
    its C components are bridged by the C - 1 Euclidean minimum spanning
    tree edges between them, rows that tie going by the tree's order.  The
    seed is the maximum-weight (minimum-distance) spanning tree.  Duplicate
    rows are joined with the closest distinct pair's weight.  It all runs
    on ``X * 2**-e`` in unit scale (:func:`~reslearn.graphs._unit_scale`;
    ``X`` itself when already there); the weights are returned in X's
    units, ``* 4**-e``.  Beyond ``X`` and the k-d tree, working memory is
    O(N * k) for the pairs plus one block of row differences
    (:func:`~reslearn.graphs._squared_row_distances`), never pairs times M.

    Raises ``ValueError`` if ``k`` is not an integer >= 1, if ``X`` is not
    an (N >= 2, M >= 1) matrix as :func:`~reslearn.graphs._real_matrix`
    takes it, if all its rows are identical (to within 2**-1073 of max
    |X|) or two nearly so (:func:`_floored_distances`), or if a weight is
    not a normal float.
    """
    _require_int("k", k, 1)
    X, e = _unit_scale(_as_voltages(X))
    n, m = X.shape
    s, t = _connectivity_repair(X, *_knn_pairs(X, k))
    g_o = _in_units(WeightedGraph(n, s, t, m / _floored_distances(X, s, t)),
                    -2 * e)
    return g_o, maximum_spanning_tree(g_o)


def _in_units(g, power):
    """``g``, learned in unit scale, with every weight times ``2**power``
    into the caller's units, keeping ``g``'s cached connectivity.  Raises
    ``ValueError`` unless every weight is then a normal float."""
    if power == 0:  # already in the caller's units; keep g and its caches
        return g
    _, (low, high) = np.frexp([g.weights.min(), g.weights.max()])
    if not -1022 < low + power <= high + power <= 1024:  # normal exponents
        raise ValueError("badly scaled measurements: the weights in the "
                         "units of X are past the float range; rescale X")
    return g._pass_connected(WeightedGraph(
        g.node_count, g.sources, g.targets, np.ldexp(g.weights, power)))


def _top_order(sens, cap):
    """Indices of the ``cap`` highest of the nonempty ``sens``, by ``sens``
    descending, ties by position: the first ``cap`` entries of
    ``np.argsort(-sens, kind="stable")``.

    ``np.partition`` finds the cap-th highest value and only the entries at
    or above it are sorted.
    """
    cap = min(cap, sens.size)
    floor = -np.partition(-sens, cap - 1)[cap - 1]
    head = np.flatnonzero(sens >= floor)
    return head[np.argsort(-sens[head], kind="stable")][:cap]


def _rank_candidates(r, w, cap):
    """``(order, sens)`` of candidate edges with resistances ``r`` (any
    estimate; the loop passes embedding distances) and weights ``w = M /
    z_data``: ``sens = r - 1 / w``, the objective's gradient in each edge's
    weight; ``order`` ranks the top ``cap`` descending, ties by position,
    which is ``(s, t)`` order in the loop."""
    sens = r - 1 / w
    return _top_order(sens, cap), sens


def edge_scale(g, X, Y):
    """Rescale all edge weights so solved voltage norms match measured ones.

    For each current column the voltages are re-solved on ``g`` (one
    checked :func:`~reslearn.spectral.solve_laplacian` call per column); the
    single global factor is ``sqrt(mean ||x_solved||^2 /
    ||x_measured||^2)``, which restores a uniformly mis-scaled graph exactly.
    Each column of ``X`` and ``Y``, and each solved column, is taken in unit
    scale (:func:`~reslearn.graphs._unit_scale`) with its power of two kept
    apart, so no norm, ratio or square overflows, whatever the units of the
    data or of ``g``'s weights; the weights are scaled into X's units once.

    Raises ``ValueError`` unless ``X`` and ``Y`` are real matrices of one
    shape, one row per node of ``g``, whose columns are all nonzero, with
    every current column orthogonal to the all-ones vector and doing
    positive work on its voltages (:func:`_as_currents`); solved voltages
    that overflow, or a weight that is not a normal float, raise it too
    (badly scaled measurements).  A failed solve raises
    :class:`~reslearn.spectral.SolverError`.
    """
    X = _as_voltages(X, g.node_count)
    Y, f = _unit_scale(_as_currents(Y, X), axis=0)
    X, e = _unit_scale(X, axis=0)
    solved = [_unit_scale(solve_laplacian(g, y)) for y in Y.T]
    ratios = (np.array([np.linalg.norm(x) for x, _ in solved])
              / np.linalg.norm(X, axis=0))
    # ratio j in X's units is ratios[j] * 2**shift[j]
    shift = np.array([k for _, k in solved]) + f - e
    top = shift.max()
    factor = np.sqrt(np.ldexp(ratios ** 2, 2 * (shift - top)).mean())
    return _in_units(g.scaled(float(factor)), top)


def learn(X, Y=None):
    """Run the full learning loop; returns ``(graph, trace)``.

    The loop raises the combinatorial-Laplacian objective ``F(w) = log pdet
    L(w) - sum_e w_e z_e / M`` (``L`` the precision, no prior added) by the
    reference protocol, fixed in this module's constants: the seed is
    :func:`init_graph` with ``KNN_COUNT`` neighbors.  Per iteration:
    compute the first ``MODE_COUNT`` nontrivial eigenpairs of the current
    graph (capped at ``N - 1``), score all remaining candidates, include
    those ranked in the top ``ceil(N * BETA_SAMPLE)`` whose sensitivity is
    positive (weight ``M / z_data``), and record the maximum sensitivity.
    Terminates when the maximum sensitivity is at most 0, the candidate pool
    runs out, or after ``MAX_ITERATIONS`` iterations.  The loop does not
    evaluate ``F``; :func:`~reslearn.spectral.objective_value` does, on any
    graph.
    With ``Y`` given, the final graph is edge-scaled; without it
    (reduced-network learning) the unscaled weights stand.  ``X`` and ``Y``
    are checked as in :func:`edge_scale`.

    The seed and the loop run on ``X * 2**-e`` in unit scale
    (:func:`~reslearn.graphs._unit_scale`), so data in any units give the
    same edges and ``s_max`` history: for any ``j`` and ``k`` that keep the
    data exact, ``learn(X * 2**j, Y * 2**k)`` learns the edges of ``learn(X,
    Y)`` with weights times ``2**(-2j)`` without ``Y`` and ``2**(k - j)``
    with it.  The weights come back in X's units:
    times ``4**-e`` without ``Y``; with it, :func:`edge_scale` on the
    caller's ``X`` and ``Y`` scales them there.  Either way they are refused
    as badly scaled measurements unless normal floats.
    """
    X_unit = _as_voltages(X)
    if Y is not None:
        # Refuse bad currents before the loop, judged against the caller's
        # voltages: unit scaling may flush a column of X to zero.
        _as_currents(Y, X_unit)
    X_unit, e = _unit_scale(X_unit)
    n = X_unit.shape[0]

    # The seed tree is bound only to ``graph``, so its factor is freed once
    # the first inclusion replaces it; the loop reads only the pool, so the
    # unit-scale copy of X goes now.
    g_o, graph = init_graph(X_unit, KNN_COUNT)
    del X_unit
    pool_s, pool_t, pool_w = g_o.sources, g_o.targets, g_o.weights
    # Which of g_o's edges the learned graph holds; it only ever gains them.
    in_graph = np.isin(pool_s * n + pool_t, graph.sources * n + graph.targets)

    trace = LearnTrace()
    include_cap = math.ceil(n * BETA_SAMPLE)
    modes = min(MODE_COUNT, n - 1)

    for iteration in range(1, MAX_ITERATIONS + 1):
        tick = time.perf_counter()
        idx = np.flatnonzero(~in_graph)
        if idx.size == 0:
            trace.status = "candidate_pool_exhausted"
            break
        r = embedding_distances(eigensolve_smallest(graph, modes),
                                pool_s[idx], pool_t[idx])
        top, sens = _rank_candidates(r, pool_w[idx], include_cap)
        s_max = float(sens[top[0]])

        if s_max > 0:
            take = idx[top[sens[top] > 0]]
            in_graph[take] = True
            graph = graph.with_edges(pool_s[take], pool_t[take],
                                     pool_w[take])

        trace.records.append(IterationRecord(
            iteration=iteration, s_max=s_max, edge_count=graph.edge_count,
            seconds=time.perf_counter() - tick))
        if s_max <= 0:
            trace.status = "converged"
            break
    else:
        trace.status = "max_iterations"

    if Y is None:
        return _in_units(graph, -2 * e), trace
    return edge_scale(graph, X, Y), trace
