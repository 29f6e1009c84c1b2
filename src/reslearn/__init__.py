"""reslearn: learn ultra-sparse resistor networks (graph Laplacians) from
linear voltage/current measurements by iterative spectral densification.

The package is organized around a small immutable graph model
(:mod:`reslearn.graphs`), which owns each graph's Laplacian, spectral
machinery for eigenpairs, embedding distances and Laplacian solves through
the graph's one grounded LU factor (:mod:`reslearn.spectral`),
measurement generators (:mod:`reslearn.measurements`), the learning loop
(:mod:`reslearn.learner`), evaluation metrics (:mod:`reslearn.metrics`), and
file formats (:mod:`reslearn.io`).  ``reslearn.cli`` wires them into a
file-based pipeline.
"""

__version__ = "0.1.0"

from .graphs import (
    DisconnectedGraphError,
    WeightedGraph,
    effective_resistance,
    grid_graph,
    is_connected,
    maximum_spanning_tree,
    quadratic_form,
)
from .learner import (
    EdgeCandidate,
    IterationRecord,
    LearnTrace,
    edge_scale,
    init_graph,
    learn,
    perturbation_estimate,
    score_candidates,
)
from .measurements import (
    MeasurementSet,
    add_noise,
    generate_currents,
    generate_jl_measurements,
    generate_measurement_set,
    jl_measurement_count,
    simulate_voltages,
    subsample_nodes,
)
from .metrics import (
    compare_spectra,
    resistance_correlation,
)
from .spectral import (
    EigensolverError,
    SolverError,
    SpectralBasis,
    eigensolve_smallest,
    embedding_distances,
    objective_value,
    solve_laplacian,
)

__all__ = [
    "DisconnectedGraphError",
    "EdgeCandidate",
    "EigensolverError",
    "IterationRecord",
    "LearnTrace",
    "MeasurementSet",
    "SolverError",
    "SpectralBasis",
    "WeightedGraph",
    "add_noise",
    "compare_spectra",
    "edge_scale",
    "effective_resistance",
    "eigensolve_smallest",
    "embedding_distances",
    "generate_currents",
    "generate_jl_measurements",
    "generate_measurement_set",
    "grid_graph",
    "init_graph",
    "is_connected",
    "jl_measurement_count",
    "learn",
    "maximum_spanning_tree",
    "objective_value",
    "perturbation_estimate",
    "quadratic_form",
    "resistance_correlation",
    "score_candidates",
    "simulate_voltages",
    "solve_laplacian",
    "subsample_nodes",
]
