"""Sparse network inference from pairwise association scores.

The pipeline standardizes raw associations (correlations, covariances,
p-values) into z-scores, fits a per-row spike-plus-slab mixture that
thresholds them into a conservative binary adjacency, and clusters the
result by regularized spectral embedding. A simulation harness
generates logistic-linear benchmark networks with planted communities
and noisy pairwise correlations for end-to-end evaluation.
"""

from .assoc import (
    AssocMatrix,
    SymmetricMatrix,
    cooccurrence_pvalues,
    correlation_from_covariance,
    covariance_matrix,
    fisher_z,
    pvalues_to_z,
)
from .community import (
    SpectralConfig,
    detect_communities,
    detect_communities_report,
    select_num_communities,
    spectral_on_continuous,
)
from .ebayes import (
    MixtureFit,
    PosteriorSummary,
    detection_threshold,
    fit_row,
    fit_rows,
    infer_adjacency,
    marginal_loglik,
    posterior_median,
    universal_threshold,
    weight_lower_bound,
)
from .errors import (
    AssocnetError,
    ConvergenceError,
    DegenerateVarianceError,
    InvalidInputError,
    ParameterError,
)
from .graphs import Partition, SparseAdjacency
from .metrics import (
    ConfusionCounts,
    DensitySummary,
    edge_confusion,
    edge_density,
    nmi,
)
from .simgen import (
    GroundTruth,
    SimConfig,
    expand_grid,
    generate_correlations,
    generate_ground_truth,
    generate_network,
    plant_communities,
    run_single,
    run_study,
    sample_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "AssocMatrix",
    "AssocnetError",
    "ConfusionCounts",
    "ConvergenceError",
    "DegenerateVarianceError",
    "DensitySummary",
    "GroundTruth",
    "InvalidInputError",
    "MixtureFit",
    "ParameterError",
    "Partition",
    "PosteriorSummary",
    "SimConfig",
    "SparseAdjacency",
    "SpectralConfig",
    "SymmetricMatrix",
    "cooccurrence_pvalues",
    "correlation_from_covariance",
    "covariance_matrix",
    "detect_communities",
    "detect_communities_report",
    "detection_threshold",
    "edge_confusion",
    "edge_density",
    "expand_grid",
    "fisher_z",
    "fit_row",
    "fit_rows",
    "generate_correlations",
    "generate_ground_truth",
    "generate_network",
    "infer_adjacency",
    "marginal_loglik",
    "nmi",
    "plant_communities",
    "posterior_median",
    "pvalues_to_z",
    "run_single",
    "run_study",
    "sample_alpha",
    "select_num_communities",
    "spectral_on_continuous",
    "universal_threshold",
    "weight_lower_bound",
]
