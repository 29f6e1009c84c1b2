"""Post-hoc evaluation of a learned graph against its ground truth: spectrum
comparison and effective-resistance correlation.
"""

from __future__ import annotations

import numpy as np

from .graphs import _require_int, effective_resistance
from .spectral import eigensolve_smallest


def compare_spectra(g_true, g_learned, count):
    """First ``count`` nontrivial eigenvalues of both graphs plus per-index
    relative errors ``|learned - true| / true``; the graphs must share the
    node set."""
    if g_true.node_count != g_learned.node_count:
        raise ValueError(f"node counts differ: {g_true.node_count} vs "
                         f"{g_learned.node_count}")
    lam_true = eigensolve_smallest(g_true, count)[0]
    lam_learned = eigensolve_smallest(g_learned, count)[0]
    rel = np.abs(lam_learned - lam_true) / lam_true
    return lam_true, lam_learned, rel


def _sample_pairs(n, pair_count, seed):
    _require_int("seed", seed, 0)
    total = n * (n - 1) // 2
    flat = np.arange(total) if pair_count >= total else np.sort(
        np.random.default_rng(seed).choice(total, size=pair_count,
                                           replace=False))
    # Invert the triangular linear index: pairs (s, t) with s < t.
    s = ((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * flat)) // 2).astype(
        np.int64)
    start = s * (2 * n - s - 1) // 2
    return np.column_stack([s, flat - start + s + 1])


def pearson(a, b):
    """Pearson correlation with a zero-variance guard."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.std() == 0 or b.std() == 0:
        return 1.0 if np.allclose(a, b) else 0.0
    return float(np.corrcoef(a, b)[0, 1])


def resistance_correlation(g_true, g_learned, pair_count, seed):
    """Effective resistances of sampled node pairs on both graphs.

    ``min(pair_count, N(N - 1) / 2)`` distinct pairs ``s < t``, in
    row-major upper-triangle order: every pair when ``pair_count`` reaches
    the total, otherwise a sample without replacement drawn from ``seed``.
    Returns ``(pairs, r_true, r_learned, pearson_r)``, the pairs an int64
    (k, 2) array, whose columns go to :func:`effective_resistance` as its
    endpoints, and the resistances float64 arrays.  A correlation needs at
    least 2 pairs, so a ``pair_count`` that is not an integer >= 2 raises
    ``ValueError``, as do a graph with fewer than 2 pairs (one or two
    nodes) and a bad ``seed``.
    """
    if g_true.node_count != g_learned.node_count:
        raise ValueError(f"node counts differ: {g_true.node_count} vs "
                         f"{g_learned.node_count}")
    n = g_true.node_count
    _require_int("pair_count", pair_count, 2)
    pairs = _sample_pairs(n, pair_count, seed)
    if len(pairs) < 2:
        raise ValueError(f"a {n}-node graph has only {len(pairs)} pair")
    r_true = effective_resistance(g_true, *pairs.T)
    r_learned = effective_resistance(g_learned, *pairs.T)
    return pairs, r_true, r_learned, pearson(r_true, r_learned)

