"""Parameter-to-observable maps, their exact Jacobians, and the
finite-difference Jacobian that serves as their test oracle.

Models are callables on a stacked coordinate vector with a ``jacobian``
method; linear models also expose their matrix so samplers can switch to
exact conditional updates.  The nonlinear models the sampler runs also
predict a stack of states at once (``predict_rows``), as it scores its
proposals, with the mask of the rows they could evaluate (for the reduced
Darcy model, those whose solve passed its checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import ContractionError, FactorizationError
from .mesh_fem import DarcySolver, FemAssemblyError


class ForwardModelError(ValueError):
    pass


# Failures that make a model evaluation impossible at a point (outside the
# admissible region, a non-contraction, a singular factorisation).  Anything
# else, such as a shape bug or a TypeError inside a model, propagates.
DOMAIN_ERRORS = (ForwardModelError, ContractionError, FactorizationError, FemAssemblyError)


def _finite(jac):
    if not np.all(np.isfinite(jac)):
        raise ForwardModelError("forward model Jacobian has non-finite entries")
    return jac


def monod_forward(p, m, substrate):
    """Saturating growth response mu_i = p * S_i / (m + S_i)."""
    s = np.asarray(substrate, dtype=float)
    denom = m + s
    if np.any(np.abs(denom) < 1e-12):
        raise ForwardModelError(f"half-velocity offset m + S within 1e-12 of zero (m={m})")
    return p * s / denom


@dataclass(frozen=True)
class MonodModel:
    """Two-parameter saturation model observed at fixed substrate levels."""

    substrate: np.ndarray
    is_linear: bool = field(default=False, init=False)

    @property
    def q(self):
        return len(self.substrate)

    def __call__(self, s):
        p, m = np.asarray(s, dtype=float)
        return monod_forward(p, m, self.substrate)

    def predict_rows(self, s):
        """``model(s)`` of each row of a stack (k, 2) in one broadcast, and the
        mask of the rows with every |m + S_i| >= 1e-12 (the others read NaN)."""
        p, m = np.asarray(s, dtype=float).T[..., None]
        sv = np.asarray(self.substrate, dtype=float)
        denom = m + sv
        ok = np.all(np.abs(denom) >= 1e-12, axis=1)  # False for NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = p * sv / denom
        mu[~ok] = np.nan
        return mu, ok

    def jacobian(self, s):
        """Analytic Jacobian columns (d mu / d p, d mu / d m)."""
        p, m = np.asarray(s, dtype=float)
        sv = np.asarray(self.substrate, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            jac = np.column_stack([sv / (m + sv), -p * sv / (m + sv) ** 2])
        return _finite(jac)


def cokrige_forward(p, m, b1, b2):
    """Stacked pointwise observations (B1 @ p, B2 @ m)."""
    p = np.asarray(p, dtype=float)
    m = np.asarray(m, dtype=float)
    if b1.shape[1] != p.shape[0] or b2.shape[1] != m.shape[0]:
        raise ValueError(
            f"operator shapes {b1.shape}, {b2.shape} do not match fields "
            f"({p.shape[0]},), ({m.shape[0]},)"
        )
    return np.concatenate([b1 @ p, b2 @ m])


@dataclass(frozen=True)
class CokrigeModel:
    """Linear model selecting p at one set of locations and m at another."""

    b1: np.ndarray
    b2: np.ndarray
    is_linear: bool = field(default=True, init=False)

    @property
    def n1(self):
        return self.b1.shape[1]

    @property
    def n2(self):
        return self.b2.shape[1]

    @property
    def matrix(self):
        g = np.zeros((self.b1.shape[0] + self.b2.shape[0], self.n1 + self.n2))
        g[: self.b1.shape[0], : self.n1] = self.b1
        g[self.b1.shape[0] :, self.n1 :] = self.b2
        return g

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return cokrige_forward(s[: self.n1], s[self.n1 :], self.b1, self.b2)

    def jacobian(self, s):
        return self.matrix


class DarcyModel:
    """Nonlinear groundwater model: log-permeability p and log-recharge m to
    pointwise head and permeability observations."""

    is_linear = False

    def __init__(self, mesh, b1, b2):
        self.mesh = mesh
        self.b1 = b1
        self.b2 = b2
        self.solver = DarcySolver(mesh)

    @property
    def n_nodes(self):
        return self.mesh.n_nodes

    def __call__(self, s):
        """Head observations B1 @ u(p, m) stacked with direct observations B2 @ p."""
        s = np.asarray(s, dtype=float)
        p, m = s[: self.n_nodes], s[self.n_nodes :]
        return np.concatenate([self.b1 @ self.solver.solve(p, m), self.b2 @ p])

    def predict_fields(self, p, m, p_elem):
        """The observations of each row of stacks of nodal fields p and m
        (k, n), given the element means of p (k, n_tri), with the mask of
        the rows whose solve passed its checks (the others read NaN)."""
        u, ok = self.solver.solve_rows(p_elem, m)
        return np.hstack([u @ self.b1.T, p @ self.b2.T]), ok

    def jacobian(self, s):
        """(q, 2n) tangent-linear Jacobian: the head rows from one
        factorisation and one adjoint solve, the direct rows are B2."""
        s = np.asarray(s, dtype=float)
        n = self.n_nodes
        jac_p, jac_m = self.solver.jacobian(s[:n], s[n:], self.b1)
        return _finite(np.block([[jac_p, jac_m], [self.b2, np.zeros_like(self.b2)]]))


@dataclass(frozen=True)
class ReducedFieldMap:
    """Truncated-basis reconstruction of the two fields from reduced coordinates."""

    basis_p: object
    basis_m: object
    mean_p: np.ndarray
    mean_m: np.ndarray

    @property
    def k(self):
        return self.basis_p.k + self.basis_m.k

    def expand(self, shat):
        """The fields (p, m) of reduced coordinates shat, (k,) or one column
        per state (k, N)."""
        shat = np.asarray(shat, dtype=float)
        kp = self.basis_p.k
        p = (self.basis_p.expand(shat[:kp]).T + self.mean_p).T
        m = (self.basis_m.expand(shat[kp:]).T + self.mean_m).T
        return p, m


class ReducedModel:
    """Forward model composed with a reduced-coordinate field reconstruction."""

    is_linear = False

    def __init__(self, base, field_map):
        self.base = base
        self.field_map = field_map
        bp, bm = field_map.basis_p, field_map.basis_m
        self._modes = (bp.modes * bp.scales, bm.modes * bm.scales)
        # element means of p = mean_p + modes @ diag(scales) @ shat_p, per mode
        means = base.solver.element_means
        self._elem_mean_p, self._elem_modes_p = means(field_map.mean_p), means(self._modes[0].T)

    def __call__(self, shat):
        p, m = self.field_map.expand(shat)
        return self.base(np.concatenate([p, m]))

    def predict_rows(self, shat):
        """The observations of each row of a stack (k, k_p + k_m), with the
        mask of the rows whose solve passed its checks (``base.predict_fields``):
        one GEMM expands each field, and one more gives the element means of p."""
        a, b = np.split(np.asarray(shat, dtype=float), [self.field_map.basis_p.k], axis=1)
        return self.base.predict_fields(self.field_map.mean_p + a @ self._modes[0].T,
                                        self.field_map.mean_m + b @ self._modes[1].T,
                                        self._elem_mean_p + a @ self._elem_modes_p)

    def jacobian(self, shat):
        """Chain rule through the expansion: each field block of the base
        Jacobian times modes @ diag(scales)."""
        p, m = self.field_map.expand(shat)
        jac = self.base.jacobian(np.concatenate([p, m]))
        n = p.size
        bp, bm = self.field_map.basis_p, self.field_map.basis_m
        return np.hstack([(jac[:, :n] @ bp.modes) * bp.scales,
                          (jac[:, n:] @ bm.modes) * bm.scales])


def fd_jacobian(model, s0, h_rel=1e-5):
    """Central-difference Jacobian with per-coordinate step h_rel * (1 + |s0_i|)."""
    s0 = np.asarray(s0, dtype=float)
    cols = []
    for i in range(s0.size):
        h = h_rel * (1.0 + abs(s0[i]))
        sp = s0.copy()
        sm = s0.copy()
        sp[i] += h
        sm[i] -= h
        try:
            fp = np.asarray(model(sp), dtype=float)
            fm = np.asarray(model(sm), dtype=float)
        except DOMAIN_ERRORS as exc:
            raise ForwardModelError(
                f"forward model failed while perturbing coordinate {i}: {exc}"
            ) from exc
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise ForwardModelError(
                f"forward model returned non-finite values while perturbing coordinate {i}"
            )
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols)
