"""Smallest nontrivial Laplacian eigenpairs, spectral embeddings, Laplacian
solves, and the truncated log-det objective.

Every application of the pseudoinverse ``L^+`` goes through one sparse LU
factor of the grounded Laplacian ``L[1:, 1:]`` (node 0 held at potential 0),
built on first use in SuperLU's symmetric mode (minimum-degree ordering on
``A^T + A``, diagonal pivots) and cached on the graph's one
:class:`LaplacianOperator`, so each graph is factored at most once.  All
routines remove the trivial eigenpair (eigenvalue 0, constant vector)
explicitly instead of regularizing it away, so they operate on the subspace
orthogonal to the all-ones vector.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .graphs import (  # DisconnectedGraphError is re-exported
    DisconnectedGraphError,
    _require_connected,
    build_laplacian,
    quadratic_form,
)

DEFAULT_EIG_TOL = 1e-8
DEFAULT_EIG_MAXITER = 5000
# Relative residual every column of a Laplacian solve must reach.
SOLVE_TOL = 1e-10
# Dense LAPACK path below this size; the iterative path is the scalable one.
DENSE_EIG_LIMIT = 128


class EigensolverError(RuntimeError):
    """Eigensolver did not reach the requested residual tolerance."""

    def __init__(self, message, best_residual=None):
        self.best_residual = best_residual
        super().__init__(message)


class SolverError(RuntimeError):
    """Laplacian solve failed: singular factor or residual above tolerance.

    ``residual`` is the worst relative residual, when one was computed.
    """

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


@dataclass(frozen=True)
class SpectralBasis:
    """First nontrivial Laplacian eigenpairs plus the embedding they induce.

    ``eigenvalues`` are ascending and positive (the trivial zero mode is
    excluded); ``eigenvectors`` columns are unit norm and orthogonal to the
    all-ones vector.  ``embedding`` column ``i`` is
    ``u_i / sqrt(lambda_i + inverse_variance)``; it is ``None`` until
    :func:`build_embedding` populates it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    inverse_variance: float = 0.0
    embedding: np.ndarray | None = None

    @property
    def mode_count(self):
        return self.eigenvalues.shape[0]

    @property
    def node_count(self):
        return self.eigenvectors.shape[0]


def _fix_signs(vecs):
    # Largest-magnitude entry positive; ties resolved by np.argmax order.
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def _project_out_ones(vecs):
    vecs = vecs - vecs.mean(axis=0, keepdims=True)
    return vecs / np.linalg.norm(vecs, axis=0, keepdims=True)


def _dense_smallest(L, count):
    vals, vecs = np.linalg.eigh(L.matrix.toarray())
    lam = vals[1:count + 1]
    u = _fix_signs(_project_out_ones(vecs[:, 1:count + 1]))
    return lam, u


def _arpack_smallest(L, count, maxiter):
    n = L.node_count
    lu = _grounded_factor(L)

    # x -> L^+ x: the constant vector maps to 0 and the range onto itself, so
    # the largest eigenvalues mu of this operator are 1 / lambda, unshifted.
    def matvec(x):
        return _grounded_solve(lu, x - x.sum() / n)

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    v0 -= v0.mean()
    ncv = int(min(n, max(2 * count + 1, 20)))
    try:
        mu, u = spla.eigsh(op, k=count, which="LM", v0=v0, ncv=ncv,
                           maxiter=maxiter, tol=0)
    except spla.ArpackNoConvergence as exc:
        best = None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            best = _best_partial_residual(L, exc.eigenvalues,
                                          exc.eigenvectors)
        raise EigensolverError(
            f"eigensolver did not converge within {maxiter} iterations",
            best_residual=best) from exc
    lam = 1.0 / mu
    order = np.argsort(lam)
    lam = np.maximum(lam[order], 0.0)
    u = _fix_signs(_project_out_ones(u[:, order]))
    return lam, u


def _best_partial_residual(L, mu, u):
    lam = 1.0 / mu
    res = np.linalg.norm(L.matrix @ u - u * lam, axis=0)
    return float(res.min())


def eigensolve_smallest(L, count, tol=DEFAULT_EIG_TOL,
                        max_iterations=DEFAULT_EIG_MAXITER, method="auto"):
    """Compute the ``count`` smallest nontrivial eigenpairs of a Laplacian.

    The trivial pair (eigenvalue 0, constant vector) is removed by deflation
    against the all-ones vector.  ``method`` selects the backend: ``"dense"``
    (LAPACK, exact small-scale reference), ``"iterative"`` (Lanczos on
    ``L^+`` applied through the grounded factor), or ``"auto"``.

    Residuals ``||L u - lambda u||`` are verified against
    ``tol * max(1, lambda)`` per pair; failure raises
    :class:`EigensolverError` carrying the best residual reached.
    """
    n = L.node_count
    if not 1 <= count <= n - 1:
        raise ValueError(f"count must be in [1, {n - 1}], got {count}")
    _require_connected(L)
    if method == "auto":
        method = "dense" if (n <= DENSE_EIG_LIMIT or count > n // 2
                             or count >= n - 2) else "iterative"
    if method == "dense":
        lam, u = _dense_smallest(L, count)
    elif method == "iterative":
        lam, u = _arpack_smallest(L, count, max_iterations)
    else:
        raise ValueError(f"unknown method {method!r}")
    res = np.linalg.norm(L.matrix @ u - u * lam, axis=0)
    limit = tol * np.maximum(1.0, lam)
    if np.any(res > limit):
        raise EigensolverError(
            f"eigenpair residual {res.max():.3e} exceeds tolerance",
            best_residual=float(res.min()))
    return SpectralBasis(eigenvalues=lam, eigenvectors=u)


def build_embedding(basis, inverse_variance=0.0):
    """Populate the embedding columns ``u_i / sqrt(lambda_i + 1/sigma^2)``.

    With ``inverse_variance == 0`` and all ``N - 1`` nontrivial modes, the
    squared embedding distance between two nodes equals their effective
    resistance.
    """
    if inverse_variance < 0:
        raise ValueError("inverse_variance must be >= 0")
    emb = basis.eigenvectors / np.sqrt(basis.eigenvalues + inverse_variance)
    return dataclasses.replace(basis, inverse_variance=float(inverse_variance),
                               embedding=emb)


def _squared_row_distances(A, s, t):
    """Squared Euclidean distances ``||A[s] - A[t]||^2`` between rows."""
    diff = A[s] - A[t]
    if diff.ndim == 1:
        return float(np.dot(diff, diff))
    return np.einsum("ij,ij->i", diff, diff)


def embedding_distances(basis, sources, targets):
    """Squared embedding distances ``||U^T (e_s - e_t)||^2`` (vectorized)."""
    if basis.embedding is None:
        raise ValueError("embedding not built; call build_embedding first")
    return _squared_row_distances(basis.embedding, sources, targets)


def _grounded_factor(L):
    """SuperLU factor of ``L[1:, 1:]``, built once and cached on ``L``.

    Grounding node 0 makes the reduced matrix nonsingular on a connected
    graph; callers check connectivity first.  The grounded Laplacian is
    symmetric positive definite, so the factor runs in SuperLU's symmetric
    mode: a minimum-degree ordering of ``A^T + A`` applied to rows and
    columns alike, with pivots taken from the diagonal.  A numerically
    singular factor (e.g. weights spanning more than machine precision)
    raises :class:`SolverError`.
    """
    if L._factor is None:
        try:
            L._factor = spla.splu(L.matrix[1:, 1:].tocsc(),
                                  permc_spec="MMD_AT_PLUS_A",
                                  options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SolverError(
                f"grounded Laplacian factorization failed: {exc}") from exc
    return L._factor


def _grounded_solve(lu, b):
    """``L^+ b`` for ``b`` in range(L), an (N,) vector or (N, M) block: solve
    with node 0 grounded, then re-center every column to mean 0."""
    x = np.empty(b.shape)
    x[0] = 0.0
    x[1:] = lu.solve(b[1:])
    # sum / N rather than mean(): this runs once per Lanczos step.
    x -= x.sum(axis=0) / x.shape[0]
    return x


def solve_laplacian(L, b):
    """Solve ``L x = b`` on a connected graph with ``x`` centered to mean 0.

    ``b`` is an (N,) vector or an (N, M) block whose columns are orthogonal
    to the all-ones vector (the range of L).  All columns are solved in one
    call against the cached grounded factor (see :func:`_grounded_factor`),
    and each must reach relative residual :data:`SOLVE_TOL`.

    Raises
    ------
    ValueError
        On a shape mismatch, non-finite entries, or a column with a
        non-negligible all-ones component.
    DisconnectedGraphError
        If the graph has more than one component.
    SolverError
        If the factorization fails or a column's relative residual is above
        :data:`SOLVE_TOL`.
    """
    n = L.node_count
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError("dimension mismatch")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    _require_connected(L)
    bnorm = np.linalg.norm(b, axis=0)
    if not np.any(bnorm):
        return np.zeros(b.shape)
    if np.any(np.abs(b.sum(axis=0)) > 1e-8 * np.sqrt(n) * bnorm):
        raise ValueError("right-hand side is not orthogonal to the "
                         "all-ones vector (b is outside range(L))")
    b = b - b.mean(axis=0)
    x = _grounded_solve(_grounded_factor(L), b)
    rel = (np.linalg.norm(L.matrix @ x - b, axis=0)
           / np.maximum(bnorm, np.finfo(float).tiny))
    if not np.all(rel <= SOLVE_TOL):
        worst = float(rel.max())
        raise SolverError(
            f"relative residual {worst:.3e} above tolerance {SOLVE_TOL:g}",
            residual=worst)
    return x


@dataclass(frozen=True)
class ObjectiveValue:
    """Truncated log-det objective split into its two terms.

    ``total = logdet_term - trace_term``; the sparsity penalty weight is
    fixed to zero (it never changes the edge ranking), so no third term
    appears.
    """

    logdet_term: float
    trace_term: float
    total: float
    eig_count: int


def objective_value(g, X, inverse_variance=0.0, eig_count=50,
                    include_trivial_mode=True, method="auto"):
    """Evaluate the learning objective on graph ``g`` with voltages ``X``.

    ``logdet_term`` sums ``log(lambda_i + inverse_variance)`` over the first
    ``eig_count`` nontrivial eigenvalues; when ``inverse_variance > 0`` the
    trivial mode contributes ``log(inverse_variance)`` as well, which
    ``include_trivial_mode`` can disable.  ``trace_term`` is the averaged
    quadratic form ``(1/M) (sum_e w_e ||X^T e||^2 + inverse_variance
    ||X||_F^2)``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != g.node_count:
        raise ValueError("dimension mismatch between graph and X")
    if not 1 <= eig_count <= g.node_count - 1:
        raise ValueError("eig_count out of range")
    basis = eigensolve_smallest(build_laplacian(g), eig_count, method=method)
    logdet = float(np.sum(np.log(basis.eigenvalues + inverse_variance)))
    if inverse_variance > 0 and include_trivial_mode:
        logdet += float(np.log(inverse_variance))
    m = X.shape[1]
    trace = quadratic_form(g, X)
    if inverse_variance > 0:
        trace += inverse_variance * float(np.sum(X * X))
    trace /= m
    return ObjectiveValue(logdet_term=logdet, trace_term=trace,
                          total=logdet - trace, eig_count=int(eig_count))
