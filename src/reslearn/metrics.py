"""Post-hoc evaluation of a learned graph against its ground truth: spectrum
comparison, effective-resistance correlation, and the CSV emitters the
pipeline writes.
"""

from __future__ import annotations

import numpy as np

from .graphs import effective_resistance
from .spectral import eigensolve_smallest

# Below this many total node pairs the resistance report enumerates all of
# them instead of sampling.
EXHAUSTIVE_PAIR_LIMIT = 10_000


def compare_spectra(g_true, g_learned, count):
    """First ``count`` nontrivial eigenvalues of both graphs plus per-index
    relative errors ``|learned - true| / true``; the graphs must share the
    node set."""
    if g_true.node_count != g_learned.node_count:
        raise ValueError("graphs must share the node set")
    lam_true = eigensolve_smallest(g_true, count).eigenvalues
    lam_learned = eigensolve_smallest(g_learned, count).eigenvalues
    rel = np.abs(lam_learned - lam_true) / lam_true
    return lam_true, lam_learned, rel


def _sample_pairs(n, pair_count, seed):
    total = n * (n - 1) // 2
    if total < EXHAUSTIVE_PAIR_LIMIT or pair_count >= total:
        return [(s, t) for s in range(n) for t in range(s + 1, n)]
    flat = np.sort(np.random.default_rng(seed).choice(
        total, size=pair_count, replace=False))
    # Invert the triangular linear index: pairs (s, t) with s < t.
    s = ((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * flat)) // 2).astype(
        np.int64)
    start = s * (2 * n - s - 1) // 2
    return list(zip(s.tolist(), (flat - start + s + 1).tolist()))


def pearson(a, b):
    """Pearson correlation with a zero-variance guard."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.std() == 0 or b.std() == 0:
        return 1.0 if np.allclose(a, b) else 0.0
    return float(np.corrcoef(a, b)[0, 1])


def resistance_correlation(g_true, g_learned, pair_count, seed):
    """Effective resistances of sampled node pairs on both graphs.

    Pairs are sampled without replacement; below
    :data:`EXHAUSTIVE_PAIR_LIMIT` total pairs the enumeration is exhaustive.
    Returns ``(pairs, r_true, r_learned, pearson_r)``.  A correlation needs
    at least 2 pairs, so ``pair_count < 2`` raises ``ValueError``, as does a
    graph with fewer than 2 pairs (2 nodes).
    """
    if g_true.node_count != g_learned.node_count:
        raise ValueError("graphs must share the node set")
    n = g_true.node_count
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if pair_count < 2:
        raise ValueError(f"pair_count must be >= 2, got {pair_count}")
    pairs = _sample_pairs(n, pair_count, seed)
    if len(pairs) < 2:
        raise ValueError(f"a {n}-node graph has only {len(pairs)} pair")
    r_true = np.asarray(effective_resistance(g_true, pairs))
    r_learned = np.asarray(effective_resistance(g_learned, pairs))
    return pairs, r_true, r_learned, pearson(r_true, r_learned)


# The CSV writers format Python floats (``tolist()``): the same digits as
# numpy scalars give, at about half the cost.


def write_spectra_csv(path, spectrum_true, spectrum_learned):
    rows = zip(np.asarray(spectrum_true, dtype=np.float64).tolist(),
               np.asarray(spectrum_learned, dtype=np.float64).tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,lambda_true,lambda_learned\n")
        for i, (lt, ll) in enumerate(rows):
            fh.write(f"{i + 2},{lt:.17g},{ll:.17g}\n")


def write_resistance_scatter_csv(path, pairs, r_true, r_learned):
    rows = zip(pairs, np.asarray(r_true, dtype=np.float64).tolist(),
               np.asarray(r_learned, dtype=np.float64).tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s,t,r_true,r_learned\n")
        for (s, t), rt, rl in rows:
            fh.write(f"{s},{t},{rt:.17g},{rl:.17g}\n")


def write_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,s_max,edges,F\n")
        for rec in trace.records:
            obj = "" if rec.objective is None else f"{rec.objective:.17g}"
            fh.write(f"{rec.iteration},{rec.s_max:.17g},{rec.edge_count},"
                     f"{obj}\n")


def write_layout_csv(path, coords):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,x,y\n")
        for i, (x, y) in enumerate(
                np.asarray(coords, dtype=np.float64).tolist()):
            fh.write(f"{i},{x:.17g},{y:.17g}\n")
