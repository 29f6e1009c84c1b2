"""Iterative spectral densification: learn a sparse resistor network whose
embedding distances encode measured voltage distances.

The loop starts from the maximum spanning tree of an exact k-nearest-neighbor
candidate graph (one k-d tree query) built on the voltage rows, then
repeatedly scores every off-graph candidate edge by its objective-gradient
sensitivity (one array scorer, shared with :func:`score_candidates`) and
includes the highest-ranked ones until no candidate exceeds the tolerance;
one boolean mask over the candidate graph's edges tracks which are in.  A
final global edge scaling matches solved voltage norms to the measured ones
when current measurements are available.
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
    _outside_range,
    _squared_row_distances,
    eigensolve_smallest,
    embedding_distances,
    objective_value,
    solve_laplacian,
)

# Nontrivial eigenvalues in the recorded objective, capped at N - 1.
OBJECTIVE_EIG_COUNT = 50
# Rows per block of the brute-force bridge search in _connectivity_repair;
# bounds its memory at O(N * block).
_REPAIR_BLOCK = 256


@dataclass(frozen=True)
class LearnConfig:
    """Knobs of the learning loop.

    The loop raises the combinatorial-Laplacian objective ``F(w) = log pdet
    L(w) - sum_e w_e z_e / M``; ``L`` is the precision, with no prior added.

    Defaults follow the reference experimental protocol: 5 nearest
    neighbors, 4 embedding modes (r = 5), sensitivity tolerance 1e-12 and
    edge sampling ratio 1e-3.  With ``record_objective`` every iteration
    records the objective over a fixed :data:`OBJECTIVE_EIG_COUNT` (50)
    nontrivial eigenvalues, capped at ``N - 1``.
    """

    k: int = 5
    r: int = 5
    tol: float = 1e-12
    beta_sample: float = 1e-3
    max_iterations: int | None = None
    record_objective: bool = False

    def __post_init__(self):
        _require_int("k", self.k, 1)
        _require_int("r", self.r, 2)
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        if not 0 < self.beta_sample <= 1:
            raise ValueError("beta_sample must be in (0, 1]")
        if self.max_iterations is not None:
            _require_int("max_iterations", self.max_iterations, 1)

    @property
    def resolved_max_iterations(self):
        if self.max_iterations is not None:
            return self.max_iterations
        return 10 * math.ceil(1.0 / self.beta_sample)


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
    iteration: int
    s_max: float
    edge_count: int
    objective: float | None = None
    seconds: float = 0.0


@dataclass
class LearnTrace:
    """Per-iteration convergence record plus the terminal status."""

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
    ``ValueError`` if all rows are identical, or if the largest weight
    ``M / z`` overflows (``X`` badly scaled)."""
    z = _squared_row_distances(X, s, t)
    positive = z[z > 0]
    if positive.size == 0 and np.array_equal(X[s], X[t]):
        raise ValueError("degenerate measurements: all voltage rows identical")
    floor = positive.min() if positive.size else 0.0
    if floor < X.shape[1] / np.finfo(np.float64).max:
        raise ValueError(
            f"badly scaled measurements: the closest distinct rows are "
            f"{floor:.3g} apart squared, so the weight M / z overflows; "
            "rescale X")
    return np.maximum(z, floor)


def _connectivity_repair(X, s, t):
    """Bridge the components of the candidate pairs ``(s, t)`` (sorted
    arrays, ``s < t``) until they connect every row.

    Each bridge is the globally closest pair of rows in different
    components, ties going to the smallest ``(s, t)``.  Returns the pairs,
    still sorted, with the bridges inserted; when they already connect, the
    input arrays themselves.
    """
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    while True:
        pairs = sp.coo_matrix((np.ones(s.size), (s, t)), shape=(n, n))
        ncomp, labels = connected_components(pairs, directed=False)
        if ncomp == 1:
            return s, t
        best = (np.inf, -1, -1)
        for lo in range(0, n, _REPAIR_BLOCK):
            hi = min(lo + _REPAIR_BLOCK, n)
            d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * (X[lo:hi] @ X.T)
            np.maximum(d2, 0.0, out=d2)
            same = labels[lo:hi, None] == labels[None, :]
            d2[same] = np.inf
            flat = np.argmin(d2)
            row, col = np.unravel_index(flat, d2.shape)
            a, b = int(lo + row), int(col)
            cand = (float(d2[row, col]), min(a, b), max(a, b))
            if cand < best:
                best = cand
        _, a, b = best
        at = np.searchsorted(s * n + t, a * n + b)
        s, t = np.insert(s, at, a), np.insert(t, at, b)


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
    (exact, by k-d tree; in either direction) with weight ``M / z_data``; if
    disconnected it is repaired by bridging the closest inter-component
    pairs.  The seed is the maximum-weight (minimum-distance) spanning tree.
    Duplicate rows are joined with the closest distinct pair's weight.

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
    """Indices of the ``cap`` highest ``sens`` (all of them when ``cap`` is
    ``None``), by ``sens`` descending, ties by ascending ``(s, t)``: the
    first ``cap`` entries of ``np.lexsort((t, s, -sens))``.

    With a cap, ``np.partition`` finds the cap-th highest value and only
    the entries at or above it are sorted.
    """
    if cap is not None and cap < sens.size:
        floor = -np.partition(-sens, cap - 1)[cap - 1]
        head = np.flatnonzero(sens >= floor)
        return head[np.lexsort((t[head], s[head], -sens[head]))][:cap]
    return np.lexsort((t, s, -sens))


def _rank_candidates(basis, s, t, z_data, m, cap=None):
    """``(order, sens, z_emb)`` of candidate edges ``(s, t)`` with data
    distances ``z_data`` over ``m`` measurements: ``sens = z_emb - z_data /
    m``; ``order`` ranks the top ``cap`` (default all) descending, ties by
    ascending ``(s, t)``."""
    z_emb = embedding_distances(basis, s, t)
    sens = z_emb - z_data / m
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
    order, sens, z_emb = _rank_candidates(basis, s, t, z_data, m)
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
    that is not finite and > 0 (``X`` badly scaled) raises it too.
    """
    X = _as_voltages(X, g.node_count)
    Y = _as_currents(Y, X)
    ratios = np.empty(X.shape[1])
    # A norm past the float range is refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(X, axis=0)
        for i in range(X.shape[1]):
            solved = solve_laplacian(g, Y[:, i])
            ratios[i] = (np.linalg.norm(solved) / norms[i]) ** 2
    if not np.all((ratios > 0) & (ratios < np.inf)):
        raise ValueError("badly scaled measurements: a solved-to-measured "
                         "voltage norm ratio is not finite and positive; "
                         "rescale X")
    return g.scaled(float(np.sqrt(ratios.mean())))


def learn(X, Y=None, config=None):
    """Run the full learning loop; returns ``(graph, trace)``.

    Per iteration: compute the first ``r - 1`` nontrivial eigenpairs of the
    current graph (capped at ``N - 1``), score all remaining candidates,
    include those ranked in the top ``ceil(N * beta_sample)`` whose
    sensitivity exceeds ``tol`` (weight ``M / z_data``), and record the
    maximum sensitivity.  Terminates when the maximum sensitivity drops to
    ``tol``, the candidate pool runs out, or the iteration cap is reached.
    With ``Y`` given, the final graph is edge-scaled; without it
    (reduced-network learning) the unscaled weights stand.  ``X`` and ``Y``
    are checked as in :func:`edge_scale`.
    """
    config = config or LearnConfig()
    X = _as_voltages(X)
    n, m = X.shape
    if Y is not None:
        Y = _as_currents(Y, X)

    # The seed tree is bound only to ``graph``, so its factor is freed once
    # the first inclusion replaces it.
    g_o, graph = init_graph(X, config.k)
    pool_s, pool_t, pool_w = g_o.sources, g_o.targets, g_o.weights
    pool_z = _floored_distances(X, pool_s, pool_t)
    # Which of g_o's edges the learned graph holds; it only ever gains them.
    in_graph = np.isin(pool_s * n + pool_t, graph.sources * n + graph.targets)

    trace = LearnTrace()
    include_cap = math.ceil(n * config.beta_sample)
    max_iter = config.resolved_max_iterations
    modes = min(config.r - 1, n - 1)

    status = "max_iterations"
    for iteration in range(1, max_iter + 1):
        tick = time.perf_counter()
        idx = np.flatnonzero(~in_graph)
        if idx.size == 0:
            status = "candidate_pool_exhausted"
            break
        basis = eigensolve_smallest(graph, modes)
        top, sens, _ = _rank_candidates(basis, pool_s[idx], pool_t[idx],
                                        pool_z[idx], m, include_cap)
        s_max = float(sens[top[0]])

        converged = s_max <= config.tol
        if not converged:
            take = idx[top[sens[top] > config.tol]]
            in_graph[take] = True
            graph = graph.with_edges(zip(pool_s[take], pool_t[take],
                                         pool_w[take]))

        objective = None
        if config.record_objective:
            objective = objective_value(
                graph, X, min(OBJECTIVE_EIG_COUNT, n - 1)).total
        trace.records.append(IterationRecord(
            iteration=iteration, s_max=s_max, edge_count=graph.edge_count,
            objective=objective, seconds=time.perf_counter() - tick))
        if converged:
            status = "converged"
            break

    trace.status = status
    if Y is not None:
        graph = edge_scale(graph, X, Y)
    return graph, trace
