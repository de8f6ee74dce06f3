"""Jointly normal prior with prescribed marginals and contraction-encoded
cross-correlation.

Given whitening filters L_p, L_m of the two marginal covariances and a strict
contraction C, the joint covariance

    Gamma = [[Gamma_p,               L_p^{-1} C L_m^{-T}],
             [L_m^{-1} C^T L_p^{-T}, Gamma_m          ]]

is positive definite for every strict contraction and preserves both
marginals exactly.  Sampling and whitening never densify Gamma: with the
defect operator D (D D^T = I - C^T C),

    draw    s = [[L_p^{-1},      0        ],   whiten  L = [[L_p,               0          ],
                 [L_m^{-1} C^T,  L_m^{-1} D]]               [-D^{-1} C^T L_p,   D^{-1} L_m]]

satisfy cov(draw(eta)) = Gamma and Gamma = (L^T L)^{-1}.  D^{-1} is itself a
whitening filter, of I - C^T C (``Contraction.defect``), so all three factors
are ``WhiteningFilter``s: every colouring step is a ``solve`` and every
whitening step an ``apply``.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .covariance import WhiteningFilter, whitening_filter
from .linalg import CONTRACTION_MARGIN, ContractionError, scale_rows


class Contraction:
    """Cross-correlation operator with spectral norm strictly below 1.

    A structured contraction is a one-to-one index pairing whose entries are
    tied to free correlation coordinates,

        C[rows[k], cols[k]] = values[labels[k]],   zero elsewhere:

      scalar          identity pairing, one label: c * I
      piecewise       identity pairing, one label per subdomain
      paired_sparse   any one-to-one pairing, one label per pair
                      (couples fields of different dimensions)

    A dense contraction is an arbitrary rectangular strict contraction with
    no free coordinates: ``values`` is empty and ``with_values([])`` returns
    it unchanged.  Correlation inference reparameterises each coordinate as
    tanh(gamma).
    """

    def __init__(self, shape, values, pairs=None, matrix=None):
        self.shape = (int(shape[0]), int(shape[1]))
        self._values = values
        self._pairs = pairs  # (rows, cols, labels); None for a dense matrix
        self._matrix = matrix
        self._entries = None if pairs is None else values[pairs[2]]  # C[rows[k], cols[k]]
        sigma = self.sigma_max()
        if not sigma < 1.0 - CONTRACTION_MARGIN:  # also rejects a NaN or inf coordinate
            raise ContractionError(
                f"not a strict contraction: sigma_max = {sigma:.17g} "
                f">= 1 - {CONTRACTION_MARGIN:g}",
                sigma_max=sigma,
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, c, n):
        """Homogeneous correlation c * I on n shared indices."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        idx = np.arange(n)
        return cls((n, n), np.array([float(c)]), (idx, idx, np.zeros(n, dtype=int)))

    @classmethod
    def piecewise(cls, labels, values):
        """Per-subdomain correlation: diag entry i is values[labels[i]]."""
        labels = np.asarray(labels, dtype=int)
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-D integer array")
        if labels.min() < 0 or labels.max() >= values.size:
            raise ValueError(
                f"labels reference values outside [0, {values.size})"
            )
        n = labels.size
        idx = np.arange(n)
        return cls((n, n), values.copy(), (idx, idx, labels.copy()))

    @classmethod
    def paired_sparse(cls, rows, cols, values, shape):
        """One-to-one index pairing: C[rows[k], cols[k]] = values[k]."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        values = np.asarray(values, dtype=float)
        if not rows.shape == cols.shape == values.shape or rows.ndim != 1:
            raise ValueError("rows, cols, values must be 1-D arrays of equal length")
        n1, n2 = shape
        if rows.size:
            if rows.min() < 0 or rows.max() >= n1 or cols.min() < 0 or cols.max() >= n2:
                raise ValueError(f"pair indices out of range for shape {shape}")
            if np.unique(rows).size != rows.size or np.unique(cols).size != cols.size:
                raise ValueError("paired_sparse requires each row and column index at most once")
        return cls((n1, n2), values.copy(), (rows.copy(), cols.copy(), np.arange(rows.size)))

    @classmethod
    def dense(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(f"dense contraction must be 2-D, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ContractionError("dense contraction entries must be finite")
        return cls(matrix.shape, np.empty(0), matrix=matrix.copy())

    # -- free correlation coordinates ---------------------------------------

    @property
    def n_free(self):
        return self._values.size

    @property
    def values(self):
        """Free correlation coordinates (empty for a dense contraction)."""
        return self._values.copy()

    def with_values(self, values):
        """Same pairing and tying, new correlation coordinates."""
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.size != self.n_free:
            raise ValueError(f"expected {self.n_free} correlation values, got {values.size}")
        if self._matrix is not None:
            return self
        return Contraction(self.shape, values.copy(), self._pairs)

    @property
    def pairing(self):
        """(rows, cols, labels) of a structured contraction, None for a dense one."""
        return self._pairs

    def pairs(self, l):
        """Index pairs (rows, cols) whose entry is the coordinate ``l``."""
        if not 0 <= l < self.n_free:
            raise IndexError(f"coordinate {l} outside [0, {self.n_free})")
        rows, cols, labels = self._pairs
        return rows[labels == l], cols[labels == l]

    # -- linear operator interface ------------------------------------------

    def matvec(self, x):
        """C @ x for x of shape (n2,) or (n2, k)."""
        x = np.asarray(x, dtype=float)
        if self._matrix is not None:
            return self._matrix @ x
        rows, cols, _ = self._pairs
        y = np.zeros((self.shape[0],) + x.shape[1:])
        y[rows] = scale_rows(self._entries, x[cols])
        return y

    def rmatvec(self, y):
        """C.T @ y for y of shape (n1,) or (n1, k)."""
        y = np.asarray(y, dtype=float)
        if self._matrix is not None:
            return self._matrix.T @ y
        rows, cols, _ = self._pairs
        x = np.zeros((self.shape[1],) + y.shape[1:])
        x[cols] = scale_rows(self._entries, y[rows])
        return x

    def as_matrix(self):
        if self._matrix is not None:
            return self._matrix.copy()
        rows, cols, _ = self._pairs
        c = np.zeros(self.shape)
        c[rows, cols] = self._entries
        return c

    def sigma_max(self):
        """Largest singular value; for a pairing (one entry per row and column)
        its largest coordinate in magnitude, unused piecewise labels included."""
        if self._matrix is not None:
            return linalg.spectral_norm(self._matrix)
        return float(np.abs(self._values).max()) if self._values.size else 0.0

    # -- defect and determinants ---------------------------------------------

    def defect(self):
        """Whitening filter of I - C^T C: ``solve`` applies the defect operator
        D (D D^T = I - C^T C, symmetric), ``apply`` its inverse."""
        if self._matrix is not None:
            gram = np.eye(self.shape[1]) - self._matrix.T @ self._matrix
            return whitening_filter(0.5 * (gram + gram.T), "principal_sqrt")
        d = np.ones(self.shape[1])
        d[self._pairs[1]] = np.sqrt(1.0 - self._entries**2)
        return WhiteningFilter(d.size, lambda x: scale_rows(1.0 / d, x),
                               lambda x: scale_rows(d, x))

    def logdet_complement(self):
        """log det(I - C C^T) = log det(I - C^T C).

        A pairing uses the product formula over its entries; a dense
        contraction factors the smaller Gram complement (the two
        determinants coincide for any rectangular C).
        """
        if self._matrix is not None:
            n1, n2 = self.shape
            c = self._matrix
            if n2 <= n1:
                gram = np.eye(n2) - c.T @ c
            else:
                gram = np.eye(n1) - c @ c.T
            return linalg.logdet_spd(0.5 * (gram + gram.T), "Gram complement")
        return float(np.sum(np.log1p(-self._entries**2)))


def _add_mean(x, mean):
    return (x.T + mean).T


class JointPrior:
    """Joint Gaussian prior assembled from marginal whitening filters, a
    strict contraction, and marginal means.  Immutable after construction."""

    def __init__(self, filter_p, filter_m, contraction, mean_p=None, mean_m=None):
        n1, n2 = filter_p.dim, filter_m.dim
        if contraction.shape != (n1, n2):
            raise ValueError(
                f"contraction shape {contraction.shape} does not match marginals ({n1}, {n2})"
            )
        mean_p = np.zeros(n1) if mean_p is None else np.asarray(mean_p, dtype=float)
        mean_m = np.zeros(n2) if mean_m is None else np.asarray(mean_m, dtype=float)
        if mean_p.shape != (n1,) or mean_m.shape != (n2,):
            raise ValueError(
                f"mean shapes {mean_p.shape}, {mean_m.shape} do not match marginals ({n1}, {n2})"
            )
        self.filter_p = filter_p
        self.filter_m = filter_m
        self.contraction = contraction
        self.mean_p = mean_p
        self.mean_m = mean_m
        self.defect = contraction.defect()

    @property
    def n1(self):
        return self.filter_p.dim

    @property
    def n2(self):
        return self.filter_m.dim

    @property
    def n(self):
        return self.n1 + self.n2

    @property
    def mean(self):
        return np.concatenate([self.mean_p, self.mean_m])

    def sample(self, eta):
        """Colour white noise eta (shape (n,) or (n, k)) into joint draws."""
        eta = np.asarray(eta, dtype=float)
        if eta.shape[0] != self.n:
            raise ValueError(f"eta must have leading dimension {self.n}, got {eta.shape}")
        eta1, eta2 = eta[: self.n1], eta[self.n1 :]
        p = _add_mean(self.filter_p.solve(eta1), self.mean_p)
        m = _add_mean(
            self.filter_m.solve(self.contraction.rmatvec(eta1) + self.defect.solve(eta2)),
            self.mean_m,
        )
        return np.concatenate([p, m])

    def sample_t(self, y):
        """Transpose of the mean-free colouring map, S^T = [[L_p^{-T}, C L_m^{-T}],
        [0, D^T L_m^{-T}]], applied to y of shape (n,) or (n, k)."""
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.n:
            raise ValueError(f"y must have leading dimension {self.n}, got {y.shape}")
        t = self.filter_m.solve_t(y[self.n1 :])
        top = self.filter_p.solve_t(y[: self.n1]) + self.contraction.matvec(t)
        return np.concatenate([top, self.defect.solve_t(t)])

    def whiten(self, s):
        """Exact inverse of ``sample``: recovers eta from a joint state."""
        s = np.asarray(s, dtype=float)
        xp = _add_mean(s[: self.n1], -self.mean_p)
        xm = _add_mean(s[self.n1 :], -self.mean_m)
        w1 = self.filter_p.apply(xp)
        w2 = self.defect.apply(self.filter_m.apply(xm) - self.contraction.rmatvec(w1))
        return np.concatenate([w1, w2])

    def log_density(self, s):
        """Joint log prior density up to a constant independent of s and C.

        Returns -(|L (s - s*)|^2 + log det(I - C C^T)) / 2; the quadratic
        form is evaluated through the joint whitening filter, never by a
        dense inversion.  The contraction-independent parts of log det Gamma
        are dropped.
        """
        w = self.whiten(s)
        return -0.5 * (float(w @ w) + self.contraction.logdet_complement())

    def cross_covariance(self):
        """Dense off-diagonal block L_p^{-1} C L_m^{-T}."""
        y = self.filter_p.solve(self.contraction.as_matrix())
        return self.filter_m.solve(y.T).T

    def dense_covariance(self):
        """Densified joint covariance (testing and small problems only)."""
        gp = self.filter_p.covariance()
        gm = self.filter_m.covariance()
        gpm = self.cross_covariance()
        top = np.hstack([gp, gpm])
        bottom = np.hstack([gpm.T, gm])
        return np.vstack([top, bottom])


def canonical_cross(prior):
    """Whitened cross-covariance and its singular values.

    Returns (W, sigma) with W = Gamma_p^{-1/2} Gamma_pm Gamma_m^{-1/2}.  The
    singular values of W are the canonical correlations between the two
    fields; with principal-square-root filters W equals the contraction
    entrywise, and for any valid filter pair sigma(W) = sigma(C).
    """
    inv_sqrt_p = whitening_filter(prior.filter_p.covariance(), "principal_sqrt")
    inv_sqrt_m = whitening_filter(prior.filter_m.covariance(), "principal_sqrt")
    w_matrix = inv_sqrt_m.apply(inv_sqrt_p.apply(prior.cross_covariance()).T).T
    sigma = np.linalg.svd(w_matrix, compute_uv=False)
    return w_matrix, sigma


def scalar_prior_stationary(p, m, c):
    """Value, gradient, and Hessian of the scalar joint log prior.

    V(p, m, c) = -(p^2 - 2 c p m + m^2) / (2 (1 - c^2)) - log(1 - c^2) / 2
    is the log density (up to a constant) of standard-normal marginals with
    correlation c and a flat correlation prior.  Its only stationary point
    is the saddle at the origin, where the Hessian is diag(-1, -1, 1): for
    fixed (p, m) the value can always be increased by pushing c towards
    +-1, which is why joint maximum-a-posteriori estimation of the
    correlation is unreliable.
    """
    if abs(c) >= 1.0:
        raise ValueError(f"correlation must satisfy |c| < 1, got {c}")
    t = 1.0 - c * c
    a = p - c * m
    b = m - c * p
    v = -(p * p - 2.0 * c * p * m + m * m) / (2.0 * t) - 0.5 * np.log(t)
    grad = np.array([-a / t, -b / t, c / t + a * b / (t * t)])
    n = a * b
    n_c = 2.0 * c * p * m - p * p - m * m  # d(a b)/dc
    hess = np.empty((3, 3))
    hess[0, 0] = -1.0 / t
    hess[1, 1] = -1.0 / t
    hess[0, 1] = hess[1, 0] = c / t
    hess[0, 2] = hess[2, 0] = (m * t - 2.0 * c * a) / (t * t)
    hess[1, 2] = hess[2, 1] = (p * t - 2.0 * c * b) / (t * t)
    hess[2, 2] = (1.0 + c * c) / (t * t) + (n_c * t + 4.0 * c * n) / (t * t * t)
    return float(v), grad, hess


def correlation_prior_logdensity(gamma):
    """Log density of the correlation coordinates gamma, c_i = tanh(gamma_i).

    Each coordinate carries density sech(gamma)^2 / 2, the pushforward of
    the uniform distribution on (-1, 1) through atanh; the log uses a
    saturation-safe log cosh.
    """
    g = np.abs(np.atleast_1d(np.asarray(gamma, dtype=float)))
    # log(0.5 sech^2 g) = log 2 - 2 (g + log1p(exp(-2 g)))
    return float(np.sum(np.log(2.0) - 2.0 * (g + np.log1p(np.exp(-2.0 * g)))))


def reduced_joint_covariance(basis_p, basis_m, contraction):
    """Joint covariance of the truncated-basis coordinates.

    With orthonormal mode matrices V_hat, U_hat the reduced coordinates have
    identity marginals and cross block V_hat.T @ C @ U_hat, which inherits
    strict contractivity from C, so the block matrix is SPD.
    """
    if contraction.shape != (basis_p.n, basis_m.n):
        raise ValueError(
            f"contraction shape {contraction.shape} does not match bases "
            f"({basis_p.n}, {basis_m.n})"
        )
    chat = basis_p.modes.T @ contraction.matvec(basis_m.modes)
    kp, km = basis_p.k, basis_m.k
    top = np.hstack([np.eye(kp), chat])
    bottom = np.hstack([chat.T, np.eye(km)])
    return np.vstack([top, bottom])
