"""Dense symmetric-positive-definite linear algebra primitives.

All matrices are plain float64 ndarrays.  Factorisations raise instead of
regularising, so modelling errors (indefinite covariances, correlations at
or beyond +-1) surface at the call site rather than being silently clipped.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

# Symmetry is checked relative to the largest entry.
SYMMETRY_RTOL = 1e-12
# Strict contractions must satisfy sigma_max <= 1 - CONTRACTION_MARGIN.
CONTRACTION_MARGIN = 1e-12
# Eigenvalues below EIGENVALUE_FLOOR * lambda_max are treated as nonpositive.
EIGENVALUE_FLOOR = 1e-14


class FactorizationError(ValueError):
    """An SPD factorisation failed (input not positive definite)."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class ContractionError(ValueError):
    """A matrix required to be a strict contraction is not one."""

    def __init__(self, message, sigma_max=None):
        super().__init__(message)
        self.sigma_max = sigma_max


def check_symmetric(a, name="matrix", rtol=SYMMETRY_RTOL):
    """Return ``a`` as a float array after checking squareness, finiteness
    and symmetry."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.size == 0:
        return a
    scale = float(np.abs(a).max())
    if not scale < np.inf:  # max|A| is NaN or inf
        raise ValueError(f"{name} has non-finite entries")
    skew = float(np.abs(a - a.T).max())
    if skew > rtol * max(scale, 1.0e-300):
        raise ValueError(
            f"{name} is not symmetric: max|A - A^T| = {skew:.3e} "
            f"exceeds {rtol:g} * max|A| = {rtol * scale:.3e}"
        )
    return a


def cholesky_lower(a, name="matrix"):
    """Lower-triangular R with R @ R.T == a.

    Raises FactorizationError naming the failing pivot (0-based) when the
    input is not positive definite.
    """
    a = check_symmetric(a, name)
    if a.shape[0] == 0:
        return a.copy()
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    r, info = potrf(a, lower=True, clean=True, overwrite_a=False)
    if info > 0:
        raise FactorizationError(
            f"{name} is not positive definite: Cholesky broke down at pivot {info - 1}",
            pivot=info - 1,
        )
    if info < 0:
        raise ValueError(f"invalid argument {-info} passed to LAPACK potrf")
    return r


def solve_lower(r, b):
    """R^{-1} b for a lower-triangular R (as from ``cholesky_lower``).

    A bare LAPACK call with no finiteness check: callers check their
    inputs once, where they enter.
    """
    (trtrs,) = get_lapack_funcs(("trtrs",), (r, b))
    x, info = trtrs(r, b, lower=True)
    if info != 0:
        raise ValueError(f"triangular solve failed: LAPACK trtrs info {info}")
    return x


def sym_eig(a, name="matrix"):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and eigenvectors as orthonormal columns, so a = V @ diag(w) @ V.T.
    """
    a = check_symmetric(a, name)
    w, v = np.linalg.eigh(a)
    return np.ascontiguousarray(w[::-1]), np.ascontiguousarray(v[:, ::-1])


def spectral_norm(c):
    """Largest singular value of a rectangular matrix."""
    c = np.asarray(c, dtype=float)
    if c.size == 0:
        return 0.0
    return float(np.linalg.svd(c, compute_uv=False)[0])


def logdet_spd(a, name="matrix"):
    """log det of an SPD matrix via Cholesky (2 * sum log R_ii)."""
    r = cholesky_lower(a, name)
    return 2.0 * float(np.sum(np.log(np.diagonal(r)))) if a.shape[0] else 0.0


def scale_rows(d, x):
    """diag(d) @ x for x of shape (n,) or (n, k)."""
    return (x.T * d).T
