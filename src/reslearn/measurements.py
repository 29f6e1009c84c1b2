"""Synthetic voltage/current measurement generation.

Reproducibility contract: every generator is a pure function of its inputs
and an integer seed >= 0.  Randomness is drawn from PCG64 generators seeded
through ``numpy.random.SeedSequence(seed).spawn(...)`` with one child stream
per measurement column, so per-column work can be parallelized without
changing results.  Measurement matrices are checked by
:func:`reslearn.graphs._real_matrix`, whose errors name them.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import _real_matrix, _require_int, _require_real, _unit_scale
from .spectral import solve_laplacian


def _column_rngs(seed, count):
    _require_int("seed", seed, 0)
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(c) for c in children]


def generate_currents(node_count, count, seed):
    """Random current excitations: i.i.d. normal columns, centered to be
    orthogonal to the all-ones vector, then normalized to unit 2-norm.

    Deterministic given ``seed``; column ``i`` uses the ``i``-th child
    stream of ``SeedSequence(seed)``.
    """
    _require_int("node_count", node_count, 2)
    _require_int("count", count, 1)
    n, m = int(node_count), int(count)
    Y = np.empty((n, m))
    for i, rng in enumerate(_column_rngs(seed, m)):
        y = rng.standard_normal(n)
        y -= y.mean()
        Y[:, i] = y / np.linalg.norm(y)
    return Y


def simulate_voltages(g, Y):
    """Voltage responses of graph ``g``: solve ``L x_i = y_i`` for every
    column of the (N, M) matrix ``Y`` in one block solve."""
    return solve_laplacian(g, _real_matrix("Y", Y, g.node_count))


def add_noise(X, noise_level, seed):
    """Per column: ``x + noise_level * ||x|| * eps`` with ``eps`` a Gaussian
    direction normalized to unit 2-norm, so ``||x_noisy - x|| ==
    noise_level * ||x||`` exactly, ``||x||`` taken in unit scale (see
    :func:`~reslearn.graphs._unit_scale`) to hold in any units.
    ``noise_level == 0`` returns X unchanged.  Raises ``ValueError`` if a
    noisy entry is not finite (``X`` badly scaled).
    """
    _require_real("noise_level", noise_level, "[0, inf)")
    X = _real_matrix("X", X)
    _require_int("seed", seed, 0)
    if noise_level == 0:
        return X.copy()
    out = X.copy()
    unit, e = _unit_scale(X, axis=0)
    for i, rng in enumerate(_column_rngs(seed, X.shape[1])):
        eps = rng.standard_normal(X.shape[0])
        # A noisy value past the float range is refused below, not warned.
        with np.errstate(over="ignore"):
            out[:, i] += (noise_level * np.ldexp(np.linalg.norm(unit[:, i]),
                                                 e[i])
                          * (eps / np.linalg.norm(eps)))
    if not np.all(np.isfinite(out)):
        raise ValueError("badly scaled measurements: a noisy voltage "
                         "overflows; rescale X")
    return out


def jl_measurement_count(node_count, epsilon):
    """Measurement count ``ceil(24 ln(N) / epsilon^2)`` for the resistance
    sketch (Johnson-Lindenstrauss scaling)."""
    _require_real("epsilon", epsilon, "(0, 1)")
    _require_int("node_count", node_count, 2)
    return max(1, math.ceil(24.0 * math.log(node_count) / epsilon ** 2))


def generate_jl_measurements(g, epsilon, seed):
    """Voltages ``X`` and currents ``Y`` (N x M, column ``i`` of ``X``
    answering column ``i`` of ``Y``) whose voltage distances sketch
    effective resistances.

    Currents are random +-1/sqrt(M) combinations of the weighted incidence
    rows: ``Y^T = C W^{1/2} B`` with ``C`` an (M x |E|) Rademacher matrix
    (row ``i`` drawn from child stream ``i``), and voltages solve
    ``L x_i = y_i``.  For every node pair, ``||X^T e_{s,t}||^2`` then lies in
    ``(1 +- epsilon) R_eff(s, t)`` with high probability.

    Note the currents carry their construction norms; they are orthogonal to
    the all-ones vector but not unit length.
    """
    n = g.node_count
    m = jl_measurement_count(n, epsilon)
    sqrt_w = np.sqrt(g.weights)
    scale = 1.0 / math.sqrt(m)
    ends = np.concatenate([g.sources, g.targets])
    Y = np.empty((n, m))
    for i, rng in enumerate(_column_rngs(seed, m)):
        coeff = (rng.integers(0, 2, size=g.edge_count) * 2 - 1) * scale
        row = coeff * sqrt_w
        Y[:, i] = np.bincount(ends, np.concatenate([row, -row]), minlength=n)
    return simulate_voltages(g, Y), Y


def generate_measurement_set(g, count, seed):
    """Random-excitation protocol: ``(X, Y)``, the currents ``Y`` of
    :func:`generate_currents` and their noiseless voltages ``X``, column
    ``i`` of ``X`` answering column ``i`` of ``Y``; :func:`add_noise` adds
    noise to ``X``."""
    Y = generate_currents(g.node_count, count, seed)
    return simulate_voltages(g, Y), Y


def subsample_nodes(X, fraction, seed):
    """Keep ``ceil(fraction * N)`` uniformly sampled distinct rows of X.

    Returns the reduced matrix and the kept row indices (ascending).  Used
    for reduced-network learning, which proceeds from voltages alone.
    """
    X = _real_matrix("X", X)
    _require_int("seed", seed, 0)
    _require_real("fraction", fraction, "(0, 1]")
    n = X.shape[0]
    keep = math.ceil(fraction * n)
    if keep < 2:
        raise ValueError("fraction keeps fewer than 2 nodes")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=keep, replace=False))
    return X[idx], idx
