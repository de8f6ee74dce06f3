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
from .mesh_fem import Mesh, build_lattice_mesh, assemble_fem_matrices, solve_darcy
from .joint_prior import (
    Contraction,
    JointPrior,
    build_joint_prior,
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
    "build_joint_prior",
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
    "solve_darcy",
    "sqexp_covariance",
    "whitening_filter",
]
