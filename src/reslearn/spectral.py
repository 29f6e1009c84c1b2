"""Smallest nontrivial Laplacian eigenpairs, embedding distances derived from
them, Laplacian solves, and the truncated log-pseudo-determinant objective.

Every routine takes a :class:`~reslearn.graphs.WeightedGraph` and reads its
cached Laplacian.  Every application of the pseudoinverse ``L^+`` goes
through one sparse LU factor of the grounded Laplacian ``L[1:, 1:]`` (node 0
held at potential 0), built on first use in SuperLU's symmetric mode
(minimum-degree ordering on ``A^T + A``, diagonal pivots) and cached on the
graph, so each graph is factored at most once.  All routines remove the
trivial eigenpair (eigenvalue 0, constant vector) explicitly instead of
regularizing it away, so they operate on the subspace orthogonal to the
all-ones vector.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .graphs import (
    _index_pairs,
    _real_matrix,
    _require_connected,
    _require_int,
    _squared_row_distances,
    _unit_scale,
    quadratic_form,
)

# Residual every eigenpair must reach, relative to max(1, lambda).
EIG_TOL = 1e-8
# Restart cap of the Lanczos backend.
EIG_MAX_RESTARTS = 5000
# Relative residual every column of a Laplacian solve must reach.
SOLVE_TOL = 1e-10
# Dense LAPACK path up to this size; the iterative path is the scalable one.
DENSE_EIG_LIMIT = 128


class EigensolverError(RuntimeError):
    """Eigensolver did not reach the requested residual tolerance."""

    def __init__(self, message, best_residual=None):
        self.best_residual = best_residual
        super().__init__(message)


class SolverError(RuntimeError):
    """Laplacian solve failed: singular factor or residual above tolerance."""


def _arpack_smallest(g, count):
    n = g.node_count
    lu = g._factor

    # x -> L^+ x: the constant vector maps to 0 and the range onto itself, so
    # the largest eigenvalues mu of this operator are 1 / lambda, unshifted.
    def matvec(x):
        x = _grounded_solve(lu, x - x.sum() / n)
        x -= x.sum() / n  # sum / n, not mean(): this runs once per step
        return x

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    v0 -= v0.mean()
    ncv = int(min(n, max(2 * count + 1, 20)))
    # ARPACK stops once ||L^+ u - mu u|| <= tol * mu, which gives ||L u -
    # lambda u|| <= ||L|| * tol; ||L|| <= 2 * max degree (Gershgorin), so
    # this tol lands every pair ten times inside the EIG_TOL check.
    # Divided in two steps, 2 * max degree cannot overflow.
    tol = max(0.1 * EIG_TOL / 2.0 / g.laplacian.diagonal().max(),
              np.finfo(float).eps)
    try:
        # Weights near the smallest normal float put L^+ x past the float
        # range; stop there, not at an ARPACK error that hides the cause.
        with np.errstate(over="raise", invalid="raise"):
            mu, u = spla.eigsh(op, k=count, which="LM", v0=v0, ncv=ncv,
                               maxiter=EIG_MAX_RESTARTS, tol=tol)
    except FloatingPointError as exc:
        raise ValueError(f"badly scaled graph: {exc} applying L^+; rescale "
                         "the weights") from None
    except spla.ArpackNoConvergence as exc:
        best = None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            best = float(_eig_residuals(g, 1.0 / exc.eigenvalues,
                                        exc.eigenvectors).min())
        raise EigensolverError(
            f"eigensolver did not converge within {EIG_MAX_RESTARTS} "
            "restarts",
            best_residual=best) from exc
    lam = 1.0 / mu
    order = np.argsort(lam)
    return lam[order], u[:, order]


def _eig_residuals(g, lam, u):
    """Residual ``||L u_i - lambda_i u_i||`` of each eigenpair column, its
    norm taken in unit scale so that no square overflows.  Lanczos returns
    ``u`` column-major but SciPy returns ``L @ u`` C-ordered; the
    column-major copy keeps every column reduction of the block contiguous."""
    r, e = _unit_scale(np.asfortranarray(g.laplacian @ u) - u * lam, axis=0)
    return np.ldexp(np.linalg.norm(r, axis=0), e)


def eigensolve_smallest(g, count):
    """The ``count`` smallest nontrivial eigenpairs ``(lam, u)`` of the
    Laplacian of graph ``g``, as ``numpy.linalg.eigh`` returns them:
    eigenvalues ``lam`` ascending and positive, and ``u`` with one unit-norm
    column per eigenvalue, each orthogonal to the all-ones vector.

    The trivial pair (eigenvalue 0, constant vector) is removed by deflation
    against the all-ones vector.  The backend follows from the size alone:
    dense LAPACK for graphs of at most :data:`DENSE_EIG_LIMIT` nodes or for
    more than half the modes, otherwise Lanczos on ``L^+`` applied through
    the grounded factor, capped at :data:`EIG_MAX_RESTARTS` restarts and
    stopped ten times inside the residual check below, not at machine
    precision.  Either backend's vectors are then centered, normalized and
    signed (the largest-magnitude entry positive) in one step.

    Residuals ``||L u - lambda u||`` are verified against
    ``EIG_TOL * max(1, lambda)`` per pair; failure raises
    :class:`EigensolverError` carrying the best residual reached.

    Raises ``ValueError`` unless ``count`` is an integer in ``[1, N - 1]``
    or if a weighted degree or a Lanczos iterate overflows ("badly scaled
    graph"), and
    :class:`DisconnectedGraphError` unless ``g`` is connected.
    """
    n = g.node_count
    _require_int("count", count, 1)
    if not count <= n - 1:
        raise ValueError(f"count must be in [1, {n - 1}], got {count}")
    _require_connected(g)
    if n <= DENSE_EIG_LIMIT or count > n // 2:
        lam, u = np.linalg.eigh(g.laplacian.toarray())
        lam, u = lam[1:count + 1], u[:, 1:count + 1]
    else:
        lam, u = _arpack_smallest(g, count)
    u = u - u.mean(axis=0, keepdims=True)
    u = u / np.linalg.norm(u, axis=0, keepdims=True)
    # Largest-magnitude entry positive; ties resolved by np.argmax order.
    u = u * np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(count)])
    res = _eig_residuals(g, lam, u)
    limit = EIG_TOL * np.maximum(1.0, lam)
    if not np.all(res <= limit):
        raise EigensolverError(
            f"eigenpair residual {res.max():.3e} exceeds tolerance",
            best_residual=float(res.min()))
    return lam, u


def embedding_distances(basis, sources, targets):
    """Squared distances ``||U^T (e_s - e_t)||^2`` of the node pairs
    ``(sources[i], targets[i])``, checked as by
    :func:`~reslearn.graphs.effective_resistance`, in the embedding ``U``
    with columns ``u_i / sqrt(lambda_i)`` of the eigenpairs ``basis = (lam,
    u)`` that :func:`eigensolve_smallest` returns; over all ``N - 1`` modes,
    the effective resistance ``(e_s - e_t)^T L^+ (e_s - e_t)``.

    ``u`` must be a real (N, k) matrix and ``lam`` a real 1-D array, both
    checked by :func:`~reslearn.graphs._real_matrix` (naming ``basis u``
    and ``basis lam``), with ``lam`` of shape (k,) and > 0.  Raises one
    ``ValueError`` naming ``basis`` per fault otherwise.  Returns a float64
    array, one distance per pair."""
    try:
        lam, u = basis
    except (TypeError, ValueError):  # not a pair
        raise ValueError("basis must be a pair (lam, u) of arrays") from None
    u = _real_matrix("basis u", u)
    lam = _real_matrix("basis lam", lam, ndims=(1,))
    if lam.shape != u.shape[1:]:
        raise ValueError(f"basis lam must be a ({u.shape[1]},) vector for u "
                         f"of shape {u.shape}, got shape {lam.shape}")
    if not np.all(lam > 0):
        raise ValueError("basis lam must be > 0")
    s, t = _index_pairs((sources, targets), u.shape[0], "pairs")
    return _squared_row_distances(u / np.sqrt(lam), s, t)


def _grounded_factor(L):
    """SuperLU factor of ``L[1:, 1:]`` for the CSR Laplacian ``L``; each
    graph builds it once, as its cached ``_factor``.

    Grounding node 0 makes the reduced matrix nonsingular on a connected
    graph; callers check connectivity first.  The grounded Laplacian is
    symmetric positive definite, so the factor runs in SuperLU's symmetric
    mode: a minimum-degree ordering of ``A^T + A`` applied to rows and
    columns alike, with pivots taken from the diagonal (threshold 0; the
    default, 1, pivots off it on learned graphs, adding fill).  A numerically
    singular factor (e.g. weights spanning more than machine precision)
    raises :class:`SolverError`.
    """
    try:
        # The transpose of the symmetric CSR block is that block in CSC.
        return spla.splu(L[1:, 1:].T, permc_spec="MMD_AT_PLUS_A",
                         options={"SymmetricMode": True,
                                  "DiagPivotThresh": 0.0})
    except RuntimeError as exc:
        raise SolverError(
            f"grounded Laplacian factorization failed: {exc}") from exc


def _grounded_solve(lu, b):
    """Solve ``L x = b`` for ``b`` in range(L), an (N,) vector or (N, M)
    block, with node 0 grounded (``x[0] = 0``), ``x`` in ``b``'s memory
    layout; centering each column of ``x`` to mean 0 gives ``L^+ b``."""
    x = np.empty_like(b)
    x[0] = 0.0
    x[1:] = lu.solve(b[1:])
    return x


def _outside_range(sums, norms, n):
    """Whether a column with sum ``sums`` and norm ``norms`` over ``n`` rows
    is outside range(L): ``|sum| > 1e-8 * sqrt(n) * norm``, column-wise."""
    return bool(np.any(np.abs(sums) > 1e-8 * np.sqrt(n) * norms))


def solve_laplacian(g, b):
    """Solve ``L x = b`` for the Laplacian ``L`` of a connected graph ``g``,
    with ``x`` centered to mean 0.

    ``b`` is an (N,) vector or an (N, M) block, checked by ``_real_matrix``,
    whose columns are orthogonal to the all-ones vector (the range of L).
    The solve works on a column-major copy of ``b``, so every per-column
    reduction reads one contiguous column and every input layout solves to
    the same bits; ``x`` comes back column-major.  The range check, the
    solve and the residual check run on ``b`` with each column in unit
    scale (:func:`~reslearn.graphs._unit_scale`): all columns in one call
    against the graph's cached grounded factor (see
    :func:`_grounded_factor`), each to relative residual :data:`SOLVE_TOL`;
    each solved column is centered in its own unit scale, so its sum cannot
    overflow.  Scaled back once, ``b * 2**k`` solves to the same bits times
    ``2**k``.

    Raises
    ------
    ValueError
        If ``b`` breaks the contract of ``_real_matrix`` (naming ``b``), a
        column has a non-negligible all-ones component, or the solution
        overflows in b's units ("badly scaled measurements").
    DisconnectedGraphError
        If the graph has more than one component.
    SolverError
        If the factorization fails or a column's relative residual is above
        :data:`SOLVE_TOL`.
    """
    b, e = _unit_scale(np.asfortranarray(
        _real_matrix("b", b, g.node_count, (1, 2))), axis=0)
    _require_connected(g)
    n, bsum, bnorm = b.shape[0], b.sum(axis=0), np.linalg.norm(b, axis=0)
    if _outside_range(bsum, bnorm, n):
        raise ValueError("right-hand side is not orthogonal to the "
                         "all-ones vector (b is outside range(L))")
    b = b - bsum / n
    # Centered in unit scale: entries near the float maximum are finite
    # where their sum is not.
    x, f = _unit_scale(_grounded_solve(g._factor, b), axis=0)
    x = np.ldexp(x - x.sum(axis=0) / n, f)
    rel = (np.linalg.norm(np.asfortranarray(g.laplacian @ x) - b, axis=0)
           / np.maximum(bnorm, np.finfo(float).tiny))
    if not np.all(rel <= SOLVE_TOL):
        raise SolverError(f"relative residual {rel.max():.3e} above "
                          f"tolerance {SOLVE_TOL:g}")
    if np.any(np.frexp(np.maximum(x.max(axis=0), -x.min(axis=0)))[1] + e
              > np.finfo(float).maxexp):
        raise ValueError("badly scaled measurements: the solution "
                         "overflows in the units of b")
    return np.ldexp(x, e)


def objective_value(g, X, eig_count):
    """The learning objective ``F = sum log(lambda_i) - (1/M) sum_e w_e ||X^T
    e||^2`` of graph ``g`` with voltages ``X``, as a float.

    The sum runs over the first ``eig_count`` nontrivial eigenvalues (over
    all ``N - 1``, ``log pdet L``), which come from
    :func:`eigensolve_smallest`, whose backend follows from the size.  ``X``
    is checked as in :func:`~reslearn.graphs.quadratic_form` and needs at
    least one column.
    """
    # A malformed X is refused before the eigensolve; an (N,) vector is one
    # measurement.
    X = _real_matrix("X", X, g.node_count, (1, 2)).reshape(g.node_count, -1)
    if X.shape[1] == 0:
        raise ValueError("X has no columns")
    trace = quadratic_form(g, X) / X.shape[1]
    _require_int("eig_count", eig_count, 1)
    if not eig_count <= g.node_count - 1:
        raise ValueError("eig_count out of range")
    lam = eigensolve_smallest(g, eig_count)[0]
    return float(np.sum(np.log(lam))) - trace
