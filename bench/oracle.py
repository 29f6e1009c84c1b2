"""Direct-factorization reference for Laplacian solves and effective
resistances, independent of reslearn's own solver paths.

The Laplacian is assembled here from raw edge arrays; node 0 is grounded and
the reduced matrix ``L[1:, 1:]`` is factored once with SuperLU.  Every
quantity the benchmark checks or scores (measurement residuals, resistances,
Pearson r) comes from this module, never from reslearn or from the fields of
a ``manifest.json``.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

# Distinct endpoints per batched solve in `GroundedLaplacian.resistances`.
RESISTANCE_BLOCK = 32


def laplacian(n, sources, targets, weights):
    """``D - W`` as CSR from edge arrays (each undirected edge once)."""
    s = np.asarray(sources, dtype=np.int64)
    t = np.asarray(targets, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    adj = sp.coo_matrix((np.concatenate([w, w]),
                         (np.concatenate([s, t]), np.concatenate([t, s]))),
                        shape=(n, n)).tocsr()
    return (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()


def read_mtx_edges(path):
    """``(n, s, t, w)`` with ``s < t`` from a symmetric Matrix Market file."""
    upper = sp.triu(sp.coo_matrix(scipy.io.mmread(path)), k=1).tocoo()
    return upper.shape[0], upper.row, upper.col, upper.data


def component_count(n, sources, targets):
    adj = sp.coo_matrix((np.ones(len(sources)), (sources, targets)),
                        shape=(n, n))
    return connected_components(adj, directed=False)[0]


class GroundedLaplacian:
    """Laplacian of one connected graph with ``L[1:, 1:]`` factored once."""

    def __init__(self, n, sources, targets, weights):
        self.n = int(n)
        self.matrix = laplacian(self.n, sources, targets, weights)
        self._lu = spla.splu(self.matrix[1:, 1:].tocsc())

    def solve(self, rhs):
        """Mean-zero potentials ``X`` with ``L X = rhs`` for zero-sum
        columns."""
        rhs = np.asarray(rhs, dtype=np.float64)
        x = np.zeros_like(rhs)
        x[1:] = self._lu.solve(np.ascontiguousarray(rhs[1:]))
        return x - x.mean(axis=0)

    def relative_residual(self, X, Y):
        """``||L X - Y||_F / ||Y||_F``."""
        return float(np.linalg.norm(self.matrix @ X - Y) / np.linalg.norm(Y))

    def resistances(self, pairs):
        """Effective resistance of each ``(s, t)`` row of ``pairs``.

        With node 0 grounded, ``R(s, t) = G_ss + G_tt - 2 G_st`` where ``G``
        is the inverse of the reduced Laplacian padded with a zero row and
        column for node 0.  The columns of ``G`` are solved for
        ``RESISTANCE_BLOCK`` distinct endpoints at a time, so the temporary
        memory stays at a few MB even for N = 10^4.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        nodes = np.unique(pairs)
        nodes = nodes[nodes != 0]
        # Columns of G for `nodes`, restricted to the rows of `nodes`.
        green = np.zeros((len(nodes), len(nodes)))
        for lo in range(0, len(nodes), RESISTANCE_BLOCK):
            block = nodes[lo:lo + RESISTANCE_BLOCK]
            rhs = np.zeros((self.n - 1, len(block)))
            rhs[block - 1, np.arange(len(block))] = 1.0
            green[:, lo:lo + len(block)] = self._lu.solve(rhs)[nodes - 1]

        def g(a, b):
            out = np.zeros(len(a))
            live = (a != 0) & (b != 0)
            out[live] = green[np.searchsorted(nodes, a[live]),
                              np.searchsorted(nodes, b[live])]
            return out

        s, t = pairs[:, 0], pairs[:, 1]
        return g(s, s) + g(t, t) - 2.0 * g(s, t)


def sample_pairs(n, count, seed):
    """``count`` distinct node pairs ``s < t``, drawn uniformly from
    ``seed``."""
    rng = np.random.default_rng(seed)
    picked = set()
    while len(picked) < count:
        s, t = (int(v) for v in rng.integers(0, n, 2))
        if s != t:
            picked.add((min(s, t), max(s, t)))
    return np.asarray(sorted(picked), dtype=np.int64)


def pearson(a, b):
    return float(np.corrcoef(a, b)[0, 1])


def max_relative_error(actual, reference):
    actual = np.asarray(actual, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    return float(np.max(np.abs(actual - reference) / np.abs(reference)))
