"""Marginal covariance models, whitening filters, and truncated KL bases.

A whitening filter is a factor L with cov = (L^T L)^{-1}: applying L maps a
correlated Gaussian to white noise, applying L^{-1} colours white noise.
Three factors are built:

* ``cholesky``        L = R^{-1} with R the lower Cholesky factor of cov
* ``principal_sqrt``  L = cov^{-1/2}, the symmetric root
* elliptic            L given directly as an SPD sparse operator, cov = L^{-2}
                      (``fem_precision_filter``)

``joint_prior.Contraction.defect`` builds one more, of I - C^T C.

The third hosts elliptic-operator priors cov = (a1 K + a2 M + a3 B)^{-2}
assembled from finite-element matrices; the covariance is never formed
densely unless explicitly requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from . import linalg
from .linalg import FactorizationError
from .mesh_fem import assemble_fem_matrices


@dataclass(frozen=True)
class KernelConfig:
    """Squared-exponential kernel settings.

    ``nugget`` is added to the diagonal; the kernel matrix is analytically
    positive definite but numerically rank deficient at realistic node
    counts, so a small nugget keeps factorisations meaningful.
    """

    correlation_length: float
    nugget: float = 1e-8

    def __post_init__(self):
        if self.correlation_length <= 0:
            raise ValueError(f"correlation_length must be > 0, got {self.correlation_length}")
        if self.nugget < 0:
            raise ValueError(f"nugget must be >= 0, got {self.nugget}")


def _check_theta(theta):
    theta = linalg.check_symmetric(np.asarray(theta, dtype=float), "anisotropy matrix")
    if theta.shape != (2, 2):
        raise ValueError(f"anisotropy matrix must be 2x2, got {theta.shape}")
    if theta[0, 0] <= 0 or np.linalg.det(theta) <= 0:
        raise ValueError("anisotropy matrix must be positive definite")
    return theta


@dataclass(frozen=True)
class PdePriorConfig:
    """Coefficients of the elliptic precision-root operator a1*K + a2*M + a3*B.

    a1 and a2 set correlation length and variance; a3 weights the boundary
    mass matrix, which damps variance inflation near the boundary.  theta is
    the 2x2 SPD anisotropy of the stiffness term.
    """

    a1: float
    a2: float
    a3: float = 0.0
    theta: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        if self.a1 <= 0 or self.a2 <= 0:
            raise ValueError(
                f"a1 and a2 must be > 0 (a1={self.a1}, a2={self.a2}); "
                "a2 = 0 leaves a singular Neumann-like operator"
            )
        if self.a3 < 0:
            raise ValueError(f"a3 must be >= 0, got {self.a3}")
        object.__setattr__(self, "theta", _check_theta(self.theta))


class WhiteningFilter:
    """Factor L with cov = (L^T L)^{-1}, held as the maps x -> L x and
    x -> L^{-1} x and their transposes (which default to the maps, for a
    symmetric L); x may be (n,) or (n, k).  Immutable after construction."""

    def __init__(self, dim, apply, solve, *, apply_t=None, solve_t=None, cov=None):
        self.dim = dim
        self._apply = apply
        self._apply_t = apply if apply_t is None else apply_t
        self._solve = solve
        self._solve_t = solve if solve_t is None else solve_t
        self._cov = cov

    def apply(self, x):
        """L @ x."""
        return self._apply(x)

    def apply_t(self, x):
        """L.T @ x."""
        return self._apply_t(x)

    def solve(self, x):
        """L^{-1} @ x (colouring map for sampling)."""
        return self._solve(x)

    def solve_t(self, x):
        """L^{-T} @ x."""
        return self._solve_t(x)

    def covariance(self):
        """Dense covariance (L^T L)^{-1} (computed once, then cached)."""
        if self._cov is None:
            cov = self.solve(self.solve_t(np.eye(self.dim)))
            self._cov = 0.5 * (cov + cov.T)
        return self._cov.copy()


def whitening_filter(cov, kind):
    """Build a whitening filter for a dense SPD covariance.

    kind = "cholesky" uses L = R^{-1} with R the lower Cholesky factor of cov
    (so the colouring map L^{-1} is triangular); kind = "principal_sqrt"
    uses the symmetric root L = cov^{-1/2}.
    """
    cov = linalg.check_symmetric(cov, "covariance")
    n = cov.shape[0]
    if kind == "cholesky":
        r = linalg.cholesky_lower(cov, "covariance")
        return WhiteningFilter(
            n, lambda x: solve_triangular(r, x, lower=True), lambda x: r @ x,
            apply_t=lambda x: solve_triangular(r, x, lower=True, trans="T"),
            solve_t=lambda x: r.T @ x, cov=cov.copy(),
        )
    if kind == "principal_sqrt":
        w, v = linalg.sym_eig(cov, "covariance")
        if n and (w[0] <= 0 or w[-1] <= linalg.EIGENVALUE_FLOOR * w[0]):
            raise FactorizationError(
                f"covariance is not positive definite: eigenvalue range [{w[-1]:.3e}, {w[0]:.3e}]"
            )
        root = (v * np.sqrt(w)) @ v.T
        inv_root = (v / np.sqrt(w)) @ v.T
        root = 0.5 * (root + root.T)
        inv_root = 0.5 * (inv_root + inv_root.T)
        return WhiteningFilter(n, lambda x: inv_root @ x, lambda x: root @ x, cov=cov.copy())
    raise ValueError(f"unknown whitening filter kind: {kind!r}")


def fem_precision_filter(mesh, cfg: PdePriorConfig):
    """Whitening filter for the elliptic prior cov = (a1*K + a2*M + a3*B)^{-2}.

    The operator L = a1*K + a2*M + a3*B is symmetric positive definite for
    admissible coefficients, hence it is its own principal precision root.
    """
    fem = assemble_fem_matrices(mesh, theta=cfg.theta)
    l = (cfg.a1 * fem.stiffness + cfg.a2 * fem.mass + cfg.a3 * fem.boundary_mass).tocsc()
    l = 0.5 * (l + l.T)
    try:
        lu = spla.splu(l.tocsc())
    except RuntimeError as exc:  # splu: exactly singular
        raise FactorizationError(f"elliptic operator is singular: {exc}") from exc
    if np.any(lu.U.diagonal() <= 0):
        raise FactorizationError("elliptic operator is not positive definite")
    return WhiteningFilter(l.shape[0], lambda x: l @ x,
                           lambda x: lu.solve(np.asarray(x, dtype=float)))


def sqexp_covariance(points, cfg: KernelConfig):
    """Squared-exponential covariance exp(-0.5 (r/l)^2) + nugget on the diagonal.

    ``points`` is (n,) for 1-D locations or (n, d) for d-D locations.
    Duplicate points with a zero nugget are rejected (singular matrix).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    diff = pts[:, None, :] - pts[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    n = pts.shape[0]
    off = ~np.eye(n, dtype=bool)
    if cfg.nugget == 0 and np.any(r2[off] == 0.0):
        i, j = np.argwhere((r2 == 0.0) & off)[0]
        raise ValueError(
            f"duplicate points {i} and {j} with zero nugget give a singular covariance"
        )
    cov = np.exp(-0.5 * r2 / cfg.correlation_length**2)
    cov[np.diag_indices(n)] += cfg.nugget
    return cov


@dataclass(frozen=True)
class KLBasis:
    """Truncated eigenbasis of a covariance: leading modes and their scales.

    modes: (n, k) orthonormal columns; scales: sqrt of the leading
    eigenvalues (positive, descending); captured_fraction: retained share
    of the total eigenvalue sum.
    """

    modes: np.ndarray
    scales: np.ndarray
    k: int
    captured_fraction: float

    @property
    def n(self):
        return self.modes.shape[0]

    def expand(self, coeff):
        """Field offset V_hat @ diag(scales) @ coeff; coeff is (k,) or (k, N)."""
        return self.modes @ linalg.scale_rows(self.scales, np.asarray(coeff, dtype=float))

    def project(self, offset):
        """Whitened coordinates diag(1/scales) @ V_hat.T @ offset."""
        return linalg.scale_rows(1.0 / self.scales, self.modes.T @ np.asarray(offset, dtype=float))


def kl_truncate(cov, k):
    """Leading-k eigenbasis of a dense covariance (best rank-k approximation)."""
    cov = linalg.check_symmetric(cov, "covariance")
    n = cov.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"truncation order k = {k} out of range [1, {n}]")
    w, v = linalg.sym_eig(cov, "covariance")
    if w[k - 1] <= 0:
        raise FactorizationError(
            f"eigenvalue {k - 1} of the covariance is not positive ({w[k - 1]:.3e})"
        )
    captured = float(np.sum(w[:k]) / np.sum(w))
    return KLBasis(modes=v[:, :k].copy(), scales=np.sqrt(w[:k]), k=k, captured_fraction=captured)
