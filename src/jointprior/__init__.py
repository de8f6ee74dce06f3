"""Jointly normal priors with prescribed Gaussian marginals, uncertain
cross-correlation, and Metropolis-within-Gibbs inference."""

__version__ = "0.1.0"

from .linalg import ContractionError, FactorizationError
from .covariance import (
    KernelConfig,
    KLBasis,
    PdePriorConfig,
    WhiteningFilter,
    fem_precision_filter,
    kl_truncate,
    sqexp_covariance,
    whitening_filter,
)
from .mesh_fem import Mesh, build_lattice_mesh, assemble_fem_matrices
from .joint_prior import (
    Contraction,
    JointPrior,
    canonical_cross,
    correlation_prior_logdensity,
    reduced_joint_covariance,
    scalar_prior_stationary,
)
from .inference import Chain, MwgConfig, NoiseModel, gauss_newton_map, mwg_run
from .diagnostics import MetricsReport, autocorrelation, ess

__all__ = [
    "Chain",
    "Contraction",
    "ContractionError",
    "FactorizationError",
    "JointPrior",
    "KernelConfig",
    "KLBasis",
    "Mesh",
    "MetricsReport",
    "MwgConfig",
    "NoiseModel",
    "PdePriorConfig",
    "WhiteningFilter",
    "assemble_fem_matrices",
    "autocorrelation",
    "build_lattice_mesh",
    "canonical_cross",
    "correlation_prior_logdensity",
    "ess",
    "fem_precision_filter",
    "gauss_newton_map",
    "kl_truncate",
    "mwg_run",
    "reduced_joint_covariance",
    "scalar_prior_stationary",
    "sqexp_covariance",
    "whitening_filter",
]
