"""Synthetic voltage/current measurement generation.

Reproducibility contract: every generator is a pure function of its inputs
and an integer seed.  Randomness is drawn from PCG64 generators seeded
through ``numpy.random.SeedSequence(seed).spawn(...)`` with one child stream
per measurement column, so per-column work can be parallelized without
changing results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import _require_int
from .spectral import solve_laplacian


@dataclass(frozen=True)
class MeasurementSet:
    """Paired voltage matrix ``X`` and optional current matrix ``Y`` (N x M).

    Column ``i`` of ``X`` is the voltage response to the current excitation
    in column ``i`` of ``Y``.  ``seed`` and ``noise_level`` record provenance.
    """

    X: np.ndarray
    Y: np.ndarray | None = None
    seed: int | None = None
    noise_level: float = 0.0

    @property
    def node_count(self):
        return self.X.shape[0]

    @property
    def measurement_count(self):
        return self.X.shape[1]


def _column_rngs(seed, count):
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


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
        while True:
            y = rng.standard_normal(n)
            y -= y.mean()
            norm = np.linalg.norm(y)
            if norm > 0:
                break
        Y[:, i] = y / norm
    return Y


def simulate_voltages(g, Y):
    """Voltage responses of graph ``g``: solve ``L x_i = y_i`` for every
    column of ``Y`` in one block solve."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != g.node_count:
        raise ValueError("Y must be (node_count, M)")
    return solve_laplacian(g, Y)


def add_noise(X, noise_level, seed):
    """Per column: ``x + noise_level * ||x|| * eps`` with ``eps`` a Gaussian
    direction normalized to unit 2-norm, so ``||x_noisy - x|| ==
    noise_level * ||x||`` exactly.  ``noise_level == 0`` returns X unchanged.
    """
    if not (np.isfinite(noise_level) and noise_level >= 0):
        raise ValueError("noise_level must be finite and >= 0")
    X = np.asarray(X, dtype=np.float64)
    if noise_level == 0:
        return X.copy()
    out = X.copy()
    for i, rng in enumerate(_column_rngs(seed, X.shape[1])):
        while True:
            eps = rng.standard_normal(X.shape[0])
            norm = np.linalg.norm(eps)
            if norm > 0:
                break
        out[:, i] += noise_level * np.linalg.norm(X[:, i]) * (eps / norm)
    return out


def jl_measurement_count(node_count, epsilon):
    """Measurement count ``ceil(24 ln(N) / epsilon^2)`` for the resistance
    sketch (Johnson-Lindenstrauss scaling)."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if node_count < 2:
        raise ValueError("node_count must be >= 2")
    return max(1, math.ceil(24.0 * math.log(node_count) / epsilon ** 2))


def generate_jl_measurements(g, epsilon, seed):
    """Measurement set whose voltage distances sketch effective resistances.

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
    Y = np.zeros((n, m))
    for i, rng in enumerate(_column_rngs(seed, m)):
        coeff = (rng.integers(0, 2, size=g.edge_count) * 2 - 1) * scale
        row = coeff * sqrt_w
        y = np.zeros(n)
        np.add.at(y, g.sources, row)
        np.add.at(y, g.targets, -row)
        Y[:, i] = y
    X = simulate_voltages(g, Y)
    return MeasurementSet(X=X, Y=Y, seed=seed, noise_level=0.0)


def generate_measurement_set(g, count, seed, noise_level=0.0):
    """Full random-excitation protocol: currents, voltages, optional noise.

    Noise draws from seed ``seed + 1`` so the excitation stream is unchanged
    by the noise setting.  Raises ``ValueError`` unless ``noise_level`` is
    finite and >= 0.
    """
    Y = generate_currents(g.node_count, count, seed)
    X = add_noise(simulate_voltages(g, Y), noise_level, seed + 1)
    return MeasurementSet(X=X, Y=Y, seed=seed, noise_level=float(noise_level))


def subsample_nodes(X, fraction, seed):
    """Keep ``ceil(fraction * N)`` uniformly sampled distinct rows of X.

    Returns the reduced matrix and the kept row indices (ascending).  Used
    for reduced-network learning, which proceeds from voltages alone.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be an (N, M) matrix, got shape {X.shape}")
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    n = X.shape[0]
    keep = math.ceil(fraction * n)
    if keep < 2:
        raise ValueError("fraction keeps fewer than 2 nodes")
    if keep == n:
        return X.copy(), np.arange(n)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    idx = np.sort(rng.choice(n, size=keep, replace=False))
    return X[idx], idx
