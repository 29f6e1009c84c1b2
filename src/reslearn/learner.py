"""Iterative spectral densification: learn a sparse resistor network whose
embedding distances encode measured voltage distances.

The loop starts from the maximum spanning tree of an exact k-nearest-neighbor
candidate graph (one k-d tree query) built on the voltage rows, then
repeatedly scores every off-graph candidate edge by its objective-gradient
sensitivity (one array scorer, shared with :func:`score_candidates`) and
includes the highest-ranked ones until no candidate's sensitivity is
positive; one boolean mask over the candidate graph's edges tracks which
are in.  A final global edge scaling matches solved voltage norms to the
measured ones when current measurements are available.

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

from .graphs import (WeightedGraph, _node_pairs, _real_matrix, _require_int,
                     maximum_spanning_tree)
from .spectral import (
    SolverError,
    _outside_range,
    _squared_row_distances,
    eigensolve_smallest,
    embedding_distances,
    solve_laplacian,
)


KNN_COUNT = 5  # nearest neighbors per voltage row in the candidate graph
MODE_COUNT = 4  # nontrivial eigenpairs per iteration (r = 5)
BETA_SAMPLE = 1e-3  # inclusion budget per iteration: ceil(N * BETA_SAMPLE)
MAX_ITERATIONS = 10_000  # 10 * ceil(1 / BETA_SAMPLE)


@dataclass(frozen=True)
class EdgeCandidate:
    """A scored candidate edge.

    ``sensitivity = z_emb - z_data / M`` approximates the objective gradient
    with respect to this edge's weight; ``distortion = M * z_emb / z_data``
    equals 1 exactly when the edge weight ``M / z_data`` makes embedding and
    data distances agree.
    """

    s: int
    t: int
    z_data: float
    z_emb: float
    sensitivity: float
    distortion: float


@dataclass(frozen=True)
class IterationRecord:
    """One iteration: the largest candidate sensitivity ``s_max``, then the
    learned graph's edge count after inclusion and the wall-clock seconds."""

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


def _knn_rows(X, k):
    """Each row's ``min(k, N - 1)`` nearest other rows in Euclidean distance,
    as an (N, min(k, N - 1)) index array, nearest first.

    One k-d tree query finds them.  It is exact in distance; where several
    rows tie at a row's k-th distance, the tree's traversal order decides
    which are kept, so the choice is fixed for a given ``X`` but does not
    follow row index.  Raises ``ValueError`` if a distance overflows to inf
    (``X`` badly scaled).
    """
    # Imported here: at module level scipy.spatial slows ``import reslearn``
    # by about 0.1 s.
    from scipy.spatial import cKDTree

    n = X.shape[0]
    k_eff = min(k, n - 1)
    dist, nbr = cKDTree(X).query(X, k=k_eff + 1)
    # The tree reports an overflowed distance as inf, with neighbor index N.
    if not np.all(np.isfinite(dist)):
        raise ValueError("badly scaled measurements: a nearest-neighbor "
                         "distance overflows to inf; rescale X")
    other = nbr != np.arange(n)[:, None]
    # With duplicate rows the query may return k_eff + 1 rows at distance 0
    # without the row itself; keep exactly k_eff other rows either way.
    other &= np.cumsum(other, axis=1) <= k_eff
    return nbr[other].reshape(n, k_eff)


def _knn_pairs(X, k):
    """k-nearest-neighbor pairs as ``(s, t)`` int64 arrays, ``s < t``, sorted
    by ``(s, t)``: the union over both directions of :func:`_knn_rows`."""
    nbr = _knn_rows(X, k)
    n, k_eff = nbr.shape
    i = np.repeat(np.arange(n, dtype=np.int64), k_eff)
    j = nbr.ravel().astype(np.int64)
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    return keys // n, keys % n


def _floored_distances(X, s, t):
    """Squared data distances ``||X[s] - X[t]||^2`` of the pairs ``(s, t)``,
    zeros (duplicate rows) floored at the smallest positive one: the closest
    distinct pair.  Positive distances are never lifted.  Raises
    ``ValueError`` if all rows are identical, or if the square of the
    largest weight ``M / z`` overflows (``X`` badly scaled): eigenpair
    residual norms square entries that can reach the weights' size."""
    z = _squared_row_distances(X, s, t)
    positive = z[z > 0]
    if positive.size == 0 and np.array_equal(X[s], X[t]):
        raise ValueError("degenerate measurements: all voltage rows identical")
    floor = positive.min() if positive.size else 0.0
    if floor < X.shape[1] / np.sqrt(np.finfo(np.float64).max):
        raise ValueError(
            f"badly scaled measurements: the closest distinct rows are "
            f"{floor:.3g} apart squared, so the weight M / z squared "
            "overflows; rescale X")
    return np.maximum(z, floor)


def _connectivity_repair(X, s, t):
    """Bridge the components of the candidate pairs ``(s, t)`` until they
    connect every row: C components get C - 1 bridges, the Euclidean
    minimum spanning tree's edges between them.  Borůvka rounds find them:
    every component but the largest (each pair across components has an end
    outside it) takes its closest outside row by one exact k-d tree query,
    and these bridges join by ascending ``(distance, s, t)`` while their
    ends are in different components.  Where rows tie, the tree's order
    decides, as in :func:`_knn_rows`.  Returns the pairs with the bridges
    (``s < t``) appended, the input arrays when they already connect; raises
    ``ValueError`` if a bridge distance overflows to inf.
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
            if dist[i] == np.inf:  # the tree's index is then len(outside)
                raise ValueError("badly scaled measurements: a bridge "
                                 "distance overflows to inf; rescale X")
            bridges.append((dist[i], *sorted((inside[i], outside[nbr[i]]))))
        for _, a, b in sorted(bridges):
            if labels[a] != labels[b]:
                labels[labels == labels[a]] = labels[b]
                s, t = np.append(s, a), np.append(t, b)
    return s, t


def _as_voltages(X, rows=None):
    """``X`` from :func:`~reslearn.graphs._real_matrix`, C-ordered, (N >= 2,
    M >= 1); one layout, so sums over it round alike for any input order."""
    X = np.ascontiguousarray(_real_matrix("X", X, rows))
    if X.shape[0] < 2 or X.shape[1] < 1:
        raise ValueError("X must be (N >= 2, M >= 1)")
    return X


def _as_currents(Y, X):
    """``Y`` as :func:`~reslearn.graphs._real_matrix` returns it, C-ordered,
    shaped like the checked ``X``, each column nonzero and orthogonal to the
    all-ones vector.  Every column of ``X`` must be nonzero too, or edge
    scaling has no ratio to match."""
    Y = np.ascontiguousarray(_real_matrix("Y", Y, X.shape[0]))
    if Y.shape != X.shape:
        raise ValueError("X and Y shapes differ")
    if not np.all(np.any(X, axis=0)):
        raise ValueError("zero voltage column: scaling ratio undefined")
    norms = np.linalg.norm(Y, axis=0)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise ValueError(f"Y column {zero[0]} is all zeros: every current "
                         "column must excite the network")
    if _outside_range(Y, norms):
        raise ValueError("current columns not orthogonal to all-ones")
    return Y


def init_graph(X, k):
    """Candidate graph and its maximum spanning tree seed.

    The candidate graph connects each voltage row to its ``k`` nearest rows
    (exact, by k-d tree; in either direction) with weight ``M / z_data``;
    its C components are bridged by the C - 1 Euclidean minimum spanning
    tree edges between them, rows that tie going by the tree's order.  The
    seed is the maximum-weight (minimum-distance) spanning tree.  Duplicate
    rows are joined with the closest distinct pair's weight.

    Raises ``ValueError`` if ``k`` is not an integer >= 1, if ``X`` is not
    an (N >= 2, M >= 1) matrix as :func:`~reslearn.graphs._real_matrix`
    takes it, or if all its rows are identical.
    """
    _require_int("k", k, 1)
    X = _as_voltages(X)
    n, m = X.shape
    s, t = _connectivity_repair(X, *_knn_pairs(X, k))
    g_o = WeightedGraph(n, s, t, m / _floored_distances(X, s, t))
    return g_o, maximum_spanning_tree(g_o)


def perturbation_estimate(eigenvector, delta_weight, s, t):
    """First-order shift of the eigenvalue of the unit-norm ``eigenvector``
    from adding weight ``delta_weight`` on edge ``(s, t)``:
    ``delta_weight * (u_s - u_t)^2``."""
    u = np.asarray(eigenvector, dtype=np.float64)
    d = float(u[s] - u[t])
    return float(delta_weight) * d * d


def _top_order(sens, s, t, cap=None):
    """Indices of the ``cap`` (default all) highest of the nonempty ``sens``,
    by ``sens`` descending, ties by ascending ``(s, t)``: the first ``cap``
    entries of ``np.lexsort((t, s, -sens))``.

    ``np.partition`` finds the cap-th highest value and only the entries at
    or above it are sorted.
    """
    cap = min(sens.size if cap is None else cap, sens.size)
    floor = -np.partition(-sens, cap - 1)[cap - 1]
    head = np.flatnonzero(sens >= floor)
    return head[np.lexsort((t[head], s[head], -sens[head]))][:cap]


def _rank_candidates(basis, s, t, w, cap=None):
    """``(order, sens, z_emb)`` of candidate edges ``(s, t)`` with weights
    ``w = M / z_data``: ``sens = z_emb - 1 / w``, the data term ``z_data /
    M`` read off the weight; ``order`` ranks the top ``cap`` (default all)
    descending, ties by ascending ``(s, t)``."""
    z_emb = embedding_distances(basis, s, t)
    sens = z_emb - 1 / w
    return _top_order(sens, s, t, cap), sens, z_emb


def score_candidates(basis, X, candidates):
    """Score candidate edges against the eigenpairs ``basis`` and the data.

    ``candidates`` are ``(s, t)`` pairs of distinct node indices of the
    basis; ``X`` has one row per node.  Returns :class:`EdgeCandidate`
    objects sorted by sensitivity descending (ties broken by ascending
    ``(s, t)``).  Zero data distances are floored at the smallest positive one
    among the candidates, so distortions stay finite.

    Raises ``ValueError`` on candidates that break the node-index contract
    or an ``X`` that :func:`~reslearn.graphs._real_matrix` refuses, one row
    per node of the basis.
    """
    n = basis.eigenvectors.shape[0]
    X = _as_voltages(X, n)
    s, t = _node_pairs(candidates, n, "candidates")
    if s.size == 0:
        return []
    m = X.shape[1]
    z_data = _floored_distances(X, s, t)
    order, sens, z_emb = _rank_candidates(basis, s, t, m / z_data)
    dist = m * z_emb / z_data
    return [EdgeCandidate(s=int(s[i]), t=int(t[i]), z_data=float(z_data[i]),
                          z_emb=float(z_emb[i]), sensitivity=float(sens[i]),
                          distortion=float(dist[i]))
            for i in order]


def edge_scale(g, X, Y):
    """Rescale all edge weights so solved voltage norms match measured ones.

    For each current column the voltages are re-solved on ``g`` (one
    triangular solve per column against the graph's cached factor); the
    single global factor is ``sqrt(mean ||x_solved||^2 /
    ||x_measured||^2)``, which restores a uniformly mis-scaled graph exactly.

    Raises ``ValueError`` unless ``X`` and ``Y`` are real matrices of one
    shape, one row per node of ``g``, whose columns are all nonzero, with
    every current column orthogonal to the all-ones vector.  A norm ratio
    that is not finite and > 0 (``X`` badly scaled) raises it too, as do
    solved voltages that overflow; any other failed solve raises
    :class:`~reslearn.spectral.SolverError`.
    """
    X = _as_voltages(X, g.node_count)
    Y = _as_currents(Y, X)
    # A norm past the float range, or solved voltages that overflow (their
    # residual is then not finite), is refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(X, axis=0)
        try:
            ratios = np.array([np.linalg.norm(solve_laplacian(g, y)) / norm
                               for y, norm in zip(Y.T, norms)]) ** 2
        except SolverError as exc:
            if exc.residual is None or np.isfinite(exc.residual):
                raise
            ratios = np.inf
    if not np.all((ratios > 0) & (ratios < np.inf)):
        raise ValueError("badly scaled measurements: a solved-to-measured "
                         "voltage norm ratio is not finite and positive; "
                         "rescale X")
    return g.scaled(float(np.sqrt(ratios.mean())))


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
    runs out, or after ``MAX_ITERATIONS`` iterations.  Scaling ``X`` by
    ``c`` scales every sensitivity by ``c**2`` and keeps its sign, so no
    tolerance ties the edges to the units of ``X``, though small enough
    units make the eigensolves fail (README).  The loop does not
    evaluate ``F``; :func:`~reslearn.spectral.objective_value` does, on any
    graph.
    With ``Y`` given, the final graph is edge-scaled; without it
    (reduced-network learning) the unscaled weights stand.  ``X`` and ``Y``
    are checked as in :func:`edge_scale`.
    """
    X = _as_voltages(X)
    n = X.shape[0]
    if Y is not None:
        Y = _as_currents(Y, X)

    # The seed tree is bound only to ``graph``, so its factor is freed once
    # the first inclusion replaces it.
    g_o, graph = init_graph(X, KNN_COUNT)
    pool_s, pool_t, pool_w = g_o.sources, g_o.targets, g_o.weights
    # Which of g_o's edges the learned graph holds; it only ever gains them.
    in_graph = np.isin(pool_s * n + pool_t, graph.sources * n + graph.targets)

    trace = LearnTrace()
    include_cap = math.ceil(n * BETA_SAMPLE)
    modes = min(MODE_COUNT, n - 1)

    status = "max_iterations"
    for iteration in range(1, MAX_ITERATIONS + 1):
        tick = time.perf_counter()
        idx = np.flatnonzero(~in_graph)
        if idx.size == 0:
            status = "candidate_pool_exhausted"
            break
        basis = eigensolve_smallest(graph, modes)
        top, sens, _ = _rank_candidates(basis, pool_s[idx], pool_t[idx],
                                        pool_w[idx], include_cap)
        s_max = float(sens[top[0]])

        converged = s_max <= 0
        if not converged:
            take = idx[top[sens[top] > 0]]
            in_graph[take] = True
            graph = graph.with_edges(zip(pool_s[take], pool_t[take],
                                         pool_w[take]))

        trace.records.append(IterationRecord(
            iteration=iteration, s_max=s_max, edge_count=graph.edge_count,
            seconds=time.perf_counter() - tick))
        if converged:
            status = "converged"
            break

    trace.status = status
    if Y is not None:
        graph = edge_scale(graph, X, Y)
    return graph, trace
