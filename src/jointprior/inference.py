"""Likelihoods, exact linear-Gaussian posteriors, the
Metropolis-within-Gibbs sampler, and the Gauss-Newton warm start.

Both studies move the correlation c by independence Metropolis-Hastings
(Tierney 1994) through the evidence of a linear or linearised model,
log Z(c) = -(r0^T K(c)^{-1} r0 + log det K(c)) / 2, with K(c) the q x q
data-space covariance, affine in c (``_Evidence``); with one coordinate
K(c) is a pencil, diagonalised once, so no c needs a factorisation of its
own.  A chain tabulates log Z
at the centres of a grid of about TABLE_CELLS cells over (-1, 1)^n_free, the
INLA recipe for a low-dimensional hyperparameter (Rue, Martino & Chopin
2009), and proposes c' from the piecewise-constant density g of that table
(``_EvidenceTable``).  For a linear model the field is integrated out: c
takes independence steps on p(c | d), then each retained iteration gets one
exact Gibbs field draw by pathwise conditioning.  For a nonlinear model with
a reference linearisation (c, s) move together: s' is drawn from the exact
conditional of the linearised model at c', and the move is exact for the
nonlinear target whatever the table holds.  A chain that holds c fixed takes
the same moves with c' = c.  No proposal depends on the chain, so chains
draw and score them in blocks (``independence_block``).

Every nonlinear chain takes its moves from one reference linearisation.  The
centred kernel, for a nonlinear model only, takes one generalised pCN field
step about the same conditional q(. | c) per iteration (Cotter, Roberts,
Stuart & White 2013; Rudolf & Sprungk 2018), and c = tanh(gamma) takes
centred random-walk steps at the fixed field; both step sizes are module
constants.  Centred steps use the prior families: the reduced
family computes the terms of a field state once per state and factors the
smaller of its two Gram complements (k_p x k_p when k_p <= k_m).  A
non-finite state raises ValueError; a correlation value outside (-1, 1)
raises ContractionError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import cho_solve, get_lapack_funcs, solve_triangular

from .forward_models import DOMAIN_ERRORS
from .joint_prior import JointPrior, correlation_prior_logdensity
from .linalg import (CONTRACTION_MARGIN, ContractionError, FactorizationError,
                     cholesky_lower, solve_lower, sym_eig)


@dataclass(frozen=True)
class NoiseModel:
    """Blockwise white observation noise: cov = diag(delta1^2 I, delta2^2 I)."""

    delta1: float = 1.0
    q1: int = 0
    delta2: float = 1.0
    q2: int = 0

    def __post_init__(self):
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("block sizes must be nonnegative")
        if (self.q1 > 0 and self.delta1 <= 0) or (self.q2 > 0 and self.delta2 <= 0):
            raise ValueError("noise standard deviations must be positive")

    @property
    def q(self):
        return self.q1 + self.q2

    @property
    def std_vector(self):
        return np.concatenate([
            np.full(self.q1, self.delta1), np.full(self.q2, self.delta2)
        ])

    @property
    def var_vector(self):
        return self.std_vector**2

    def covariance(self):
        return np.diag(self.var_vector)

    def sample(self, rng):
        return self.std_vector * rng.standard_normal(self.q)


def gaussian_loglik(d, prediction, noise):
    """Gaussian log likelihood up to a constant, -|d - prediction|^2_cov / 2,
    of one prediction (q,), or of each row of a stack (k, q)."""
    d = np.asarray(d, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if d.shape != (noise.q,) or prediction.shape[-1:] != (noise.q,) or prediction.ndim > 2:
        raise ValueError(
            f"data/prediction shapes {d.shape}, {prediction.shape} do not match q = {noise.q}"
        )
    r = (d - prediction) / noise.std_vector
    return -0.5 * float(r @ r) if r.ndim == 1 else -0.5 * np.einsum("kq,kq->k", r, r)


def linear_gaussian_posterior(g, d, noise, prior_mean, prior_cov):
    """Conjugate Gaussian update for a linear model d = G s + e.

    Returns (mean, covariance) with
    covariance = (G^T cov_e^{-1} G + prior_cov^{-1})^{-1} and
    mean = covariance @ (G^T cov_e^{-1} d + prior_cov^{-1} prior_mean).
    """
    g = np.asarray(g, dtype=float)
    d = np.asarray(d, dtype=float)
    prior_mean = np.asarray(prior_mean, dtype=float)
    prior_cov = np.asarray(prior_cov, dtype=float)
    prior_prec = cho_solve((cholesky_lower(prior_cov, "prior covariance"), True),
                           np.eye(prior_cov.shape[0]))
    prior_prec = 0.5 * (prior_prec + prior_prec.T)
    w = 1.0 / noise.var_vector
    h = (g.T * w) @ g + prior_prec
    r = cholesky_lower(0.5 * (h + h.T), "posterior precision")
    b = g.T @ (w * d) + prior_prec @ prior_mean
    mean = solve_triangular(r, solve_triangular(r, b, lower=True), lower=True, trans="T")
    cov = cho_solve((r, True), np.eye(r.shape[0]))
    return mean, 0.5 * (cov + cov.T)


# ----------------------------------------------------------------------------
# Prior families: correlation values -> joint prior, in full or reduced space
# ----------------------------------------------------------------------------


class _StateCache:
    """The terms of the last field state a family saw, keyed by the state's
    bytes (an in-place change of the state is a new key).  A correlation
    step holds the state fixed, so its terms are computed once per state,
    and a non-finite state raises ValueError there, once."""

    def __init__(self, terms):
        self._terms = terms
        self._key = None
        self._state = None

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        key = s.tobytes()
        if key != self._key:
            if not np.all(np.isfinite(s)):
                raise ValueError("field state has non-finite entries")
            self._key, self._state = key, self._terms(s)
        return self._state


def _stack_weights(values):
    """Rows w = (1, c) of a stack of values (k, n_free), and the mask of the
    rows with |c| < 1 - margin (``Contraction``'s rule); others read c = 0."""
    values = np.asarray(values, dtype=float)
    ok = np.abs(values).max(axis=1, initial=0.0) < 1.0 - CONTRACTION_MARGIN  # False for NaN
    w = np.zeros((len(values), values.shape[1] + 1))
    w[:, 0], w[ok, 1:] = 1.0, values[ok]
    return w, ok


def _weights(values):
    """w = (1, c) at one c; outside the box it raises ContractionError."""
    w, ok = _stack_weights(np.atleast_2d(values))
    if not ok[0]:
        raise ContractionError(f"correlation values reached +-1: {values}")
    return w[0]


def _cholesky_stack(a, name):
    """Lower Cholesky factors of a stack (k, m, m) by the LAPACK potrf of
    ``cholesky_lower``, so each is that factor bitwise, and the mask of the
    positive definite ones (I stands for any other factor)."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    r, ok = np.empty_like(a), np.ones(len(a), dtype=bool)
    for i, ai in enumerate(a):
        r[i], info = potrf(ai, lower=True, clean=True)
        if info:
            r[i], ok[i] = np.eye(len(ai)), False
    return r, ok


class FullJointFamily:
    """Joint prior over the stacked field vector as a function of the free
    correlation coordinates of its contraction."""

    def __init__(self, filter_p, filter_m, contraction, mean_p=None, mean_m=None):
        self._template = build = JointPrior(filter_p, filter_m, contraction, mean_p, mean_m)
        self.filter_p = filter_p
        self.filter_m = filter_m
        self.contraction = contraction
        self.mean = build.mean
        self.n_free = contraction.n_free
        self.dim = build.n

    def prior(self, values=None):
        """Joint prior at the given free correlation coordinates."""
        c = self.contraction if values is None else self.contraction.with_values(values)
        if c is self.contraction:
            return self._template
        return JointPrior(self.filter_p, self.filter_m, c,
                          self._template.mean_p, self._template.mean_m)

    def log_density(self, s, values):
        """``prior(values).log_density(s)``: the joint log prior up to a
        constant independent of s and C."""
        if not np.all(np.isfinite(s)):
            raise ValueError("field state has non-finite entries")
        return self.prior(values).log_density(s)

    def draw(self, rng, values):
        """``prior(c).sample(eta)`` at one c, or a row per c of a stack
        (k, n_free), bitwise: the contraction and its defect act on the whole
        stack in one pass, a pairing's entry e as eta_m <- e eta_p + sqrt(1 -
        e^2) eta_m, then one filter solve per marginal.  A c outside the box
        raises ContractionError."""
        stack, t = np.atleast_2d(np.asarray(values, dtype=float)), self._template
        if not _stack_weights(stack)[1].all():
            raise ContractionError(f"correlation values reached +-1: {values}")
        eta = rng.standard_normal(len(stack) * self.dim).reshape(len(stack), self.dim).T
        top, rest = eta[: t.n1], eta[t.n1 :].copy()
        if self.n_free:
            rows, cols, labels = self.contraction.pairing
            e, d = stack[:, labels].T, np.sqrt(1.0 - stack**2)[:, labels].T
            rest[cols] = e * top[rows] + d * rest[cols]
        else:  # a dense contraction has no coordinates: every row is the template
            rest[:] = self.contraction.rmatvec(top) + t.defect.solve(rest)
        s = np.concatenate([t.mean_p[:, None] + self.filter_p.solve(top),
                            t.mean_m[:, None] + self.filter_m.solve(rest)]).T
        return s[0] if np.ndim(values) == 1 else s

    def data_terms(self, g):
        """The c-free terms T_j of Gamma(c) G^T = sum_j w_j T_j, w = (1, c),
        shape (1 + n_free, n, q), at q filter solves per term."""
        fp, fm, con, n_free = self.filter_p, self.filter_m, self.contraction, self.n_free
        # T_0 = S_0 S_0^T G^T with S_0 the mean-free colouring map at c = 0
        base = JointPrior(fp, fm, con.with_values(np.zeros(n_free)))
        a = base.sample_t(g.T)
        terms = [base.sample(a)]
        for l in range(n_free):  # T_l = 2 T(e_l / 2): e_l itself is no strict contraction
            half = con.with_values(0.5 * np.eye(n_free)[l])
            terms.append(2.0 * np.concatenate([fp.solve(half.matvec(a[fp.dim :])),
                                               fm.solve(half.rmatvec(a[: fp.dim]))]))
        return np.stack(terms)


class ReducedJointFamily:
    """Joint prior over truncated-basis coordinates (identity marginals,
    cross block V_hat^T C U_hat) as a function of the correlation values.

    The density conditions the smaller block a on the larger block b.  With
    X(c) the a-by-b cross block and R R^T = I - X X^T,

        log p = -(|b|^2 + |R^{-1} (a - X b)|^2 + log det R R^T) / 2,

    exactly the joint density (the other Schur complement, and Sylvester's
    identity for the determinant).  X(c) = sum_j w_j X_j with w = (1, c), so
    the Gram terms X_i X_j^T are formed once, and a field state's terms (a,
    |b|^2, each X_j b) once per state: a correlation step costs one small
    assembly, one Cholesky of the smaller side and one triangular solve."""

    def __init__(self, basis_p, basis_m, contraction):
        if contraction.shape != (basis_p.n, basis_m.n):
            raise ValueError(
                f"contraction shape {contraction.shape} does not match bases "
                f"({basis_p.n}, {basis_m.n})"
            )
        self.basis_p = basis_p
        self.basis_m = basis_m
        self.contraction = contraction
        self.n_free = contraction.n_free
        self.dim = basis_p.k + basis_m.k
        self.mean = np.zeros(self.dim)
        # the cross block is affine in the correlation values,
        # V^T C(c) U = V^T C(0) U + sum_l c_l V[rows_l]^T U[cols_l]
        v, u = basis_p.modes, basis_m.modes
        self._blocks = np.stack(
            [v.T @ contraction.with_values(np.zeros(self.n_free)).matvec(u)]
            + [v[rows].T @ u[cols] for rows, cols in map(contraction.pairs, range(self.n_free))]
        )
        p, m = slice(None, basis_p.k), slice(basis_p.k, None)
        if basis_p.k <= basis_m.k:
            self._a, self._b, self._x = p, m, self._blocks
        else:
            self._a, self._b, self._x = m, p, self._blocks.transpose(0, 2, 1)
        nw, ks, _ = self._x.shape
        # flattened so that w @ (w @ gram) is sum_ij w_i w_j X_i X_j^T
        self._gram = np.einsum("iak,jbk->ijab", self._x, self._x).reshape(nw, nw, ks * ks)
        self._eye = np.eye(ks)
        self._terms = _StateCache(self._conditional_terms)

    def _conditional_terms(self, shat):
        a, b = shat[self._a], shat[self._b]
        return a.copy(), float(b @ b), self._x @ b

    def cross_block(self, values):
        return np.tensordot(_weights(values), self._blocks, axes=1)

    def log_density(self, shat, values):
        """Reduced joint log prior up to a constant independent of shat and C."""
        a, bb, xb = self._terms(shat)
        w = _weights(values)
        gram = self._eye - (w @ (w @ self._gram)).reshape(self._eye.shape)
        (r,), (pd,) = _cholesky_stack(gram[None], "reduced Gram complement")
        if not pd:
            raise FactorizationError(f"reduced Gram complement is not positive definite at "
                                     f"{values}")
        resid = solve_lower(r, a - w @ xb)
        return -0.5 * (bb + float(resid @ resid) + 2.0 * float(np.sum(np.log(np.diagonal(r)))))

    def draw(self, rng, values):
        """Draws b = z_b, a = X(c) b + R z_a at one c, or a row per c of a stack
        (k, n_free), with one Gram factor per run of rows at one c; NaN at a
        c outside the box or with no Gram factor."""
        w, ok = _stack_weights(np.atleast_2d(values))
        nw, ks, kb = self._x.shape
        gram = self._eye - ((w[:, :, None] * w[:, None, :]).reshape(-1, nw * nw)
                            @ self._gram.reshape(nw * nw, -1)).reshape(-1, ks, ks)
        starts = np.concatenate([[True], np.any(w[1:] != w[:-1], axis=1)])
        r, pd = _cholesky_stack(gram[starts], "reduced Gram complement")
        run = np.cumsum(starts) - 1  # the run that holds each row
        r, pd = r[run], pd[run]
        s = rng.standard_normal(len(w) * self.dim).reshape(len(w), self.dim)
        xb = (s[:, self._b] @ self._x.reshape(nw * ks, kb).T).reshape(-1, nw, ks)
        s[:, self._a] = np.einsum("kj,kja->ka", w, xb) + (r @ s[:, self._a, None])[..., 0]
        s[~(ok & pd)] = np.nan
        return s[0] if np.ndim(values) == 1 else s

    def data_terms(self, g):
        """The c-free terms T_j of Sigma(c) G^T = sum_j w_j T_j, w = (1, c),
        shape (1 + n_free, k_p + k_m, q): [X_j G_m^T; X_j^T G_p^T], plus G^T
        in T_0 for the identity marginals."""
        gp, gm = np.split(g.T, [self.basis_p.k])
        terms = np.stack([np.concatenate([xj @ gm, xj.T @ gp]) for xj in self._blocks])
        terms[0] += g.T
        return terms


# ----------------------------------------------------------------------------
# Sampler configuration and chain storage
# ----------------------------------------------------------------------------


# The centred kernel's steps.  The gamma walk takes Gaussian steps of
# standard deviation GAMMA_STEP_STD.  The pCN field step moves s to
# m + sqrt(1 - PCN_BETA^2) (s - m) + PCN_BETA (xi - m), xi ~ q(. | c) of mean
# m; at the paper-scale Darcy geometry 0.7 collapsed its acceptance to 0.03.
GAMMA_STEP_STD = 1.0
PCN_BETA = 0.5

# The independence proposal for c tabulates log Z(c) on about TABLE_CELLS
# cells of (-1, 1)^n_free, G = round(TABLE_CELLS^(1/n_free)) per coordinate,
# and floors each cell's weight at TABLE_FLOOR times the largest.
TABLE_CELLS = 144
TABLE_FLOOR = 1e-3
BLOCK_LENGTH = 32  # this many independence moves are drawn and scored together


@dataclass
class MwgConfig:
    """Lengths, kernel and seed of a Metropolis-within-Gibbs run.

    ``c_steps_per_s_step`` picks the kernel of every chain, whether it
    samples c or holds it fixed.  With 0 each iteration takes one
    independence move: of c on a linear model, where a retained iteration
    then gets one exact Gibbs field draw, or of (c, s) on a nonlinear model;
    a held c is its own proposal.  With ``c_steps_per_s_step`` >= 1, for a
    nonlinear model only, an iteration takes one pCN field step and, when c
    is sampled, that many centred gamma steps.  A nonlinear model takes
    either kernel's moves from a reference linearisation (see ``mwg_run``).
    """

    total_samples: int
    burn_in: int
    c_steps_per_s_step: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.total_samples < 1:
            raise ValueError("total_samples must be >= 1")
        if not 0 <= self.burn_in < self.total_samples:
            raise ValueError(
                f"burn-in {self.burn_in} leaves an empty chain out of "
                f"{self.total_samples} total samples"
            )
        if self.c_steps_per_s_step < 0:
            raise ValueError(f"c_steps_per_s_step must be >= 0, got {self.c_steps_per_s_step}")


@dataclass
class Chain:
    """Retained MCMC samples with acceptance bookkeeping."""

    states: np.ndarray     # (retained, dim) field or reduced coordinates
    corr: np.ndarray       # (retained, n_free) correlation values tanh(gamma)
    total_samples: int
    burn_in: int
    seed: int
    s_steps: int = 0         # pCN field steps, or the Gibbs draws made
    s_accepted: int = 0
    gamma_steps: int = 0     # centred random-walk correlation steps
    gamma_accepted: int = 0
    block_steps: int = 0     # independence moves of c, or of (c, s)
    block_accepted: int = 0
    block_failed: int = 0    # independence moves rejected through a domain error

    @property
    def retained(self):
        return self.states.shape[0]

    @property
    def s_acceptance(self):
        return self.s_accepted / self.s_steps if self.s_steps else float("nan")

    @property
    def gamma_acceptance(self):
        return self.gamma_accepted / self.gamma_steps if self.gamma_steps else float("nan")

    def acceptance_rates(self):
        """Field and gamma-step acceptance and, for a chain that took
        independence moves, their acceptance and the number of them rejected
        through a domain error rather than by the Metropolis test."""
        rates = {"s": self.s_acceptance, "gamma": self.gamma_acceptance}
        if self.block_steps:
            rates["block"] = self.block_accepted / self.block_steps
            rates["block_failed"] = self.block_failed
        return rates


def metropolis_update_correlation(rng, gamma, cur_logdens, corr_prior, log_target, step_std):
    """One Gaussian random-walk Metropolis step on the correlation coordinates.

    ``log_target(values)`` is the c-dependent part of the target at
    c = tanh(gamma), for a centred step the joint prior density at a fixed
    field state.  The tanh-induced coordinate prior is added here and the
    symmetric proposal cancels.  Returns
    (gamma, log target, corr_prior, accepted).
    """
    prop = gamma + step_std * rng.standard_normal(gamma.shape)
    try:
        prop_pd = log_target(np.tanh(prop))
    except DOMAIN_ERRORS:
        return gamma, cur_logdens, corr_prior, False
    prop_cp = correlation_prior_logdensity(prop)
    log_ratio = (prop_pd + prop_cp) - (cur_logdens + corr_prior)
    if np.log(rng.random()) < log_ratio:
        return prop, prop_pd, prop_cp, True
    return gamma, cur_logdens, corr_prior, False


def independence_block(rng, count, current, table, evidence, excess=None):
    """``count`` independence Metropolis-Hastings moves (Tierney 1994): c' ~ g
    from ``table`` and, given ``excess``, s' ~ q(. | c') by ``evidence.draw``.
    As l_lin(s) + log p(s | c) = log Z(c) + log q(s | c) and c is uniform a
    priori, (s, c) weighs w = l(s) - l_lin(s) + log Z(c) - log g(c), with
    l - l_lin from ``excess`` (0 for a linear model, where only c moves).
    With no table c is held: every proposal is the current c with its factor
    F, and log Z(c) - log g(c) cancels from w' - w, so w = l(s) - l_lin(s).
    All proposals are drawn, then scored by one call ``excess(states)`` on
    the stack of the drawn fields not yet rejected, which returns l - l_lin
    of each row and the mask of the rows the model could evaluate (for a
    Darcy model, those whose solve passed its checks); then a scalar pass
    accepts each in order with probability min(1, exp(w' - w)).
    ``current`` is the state as a stack of one row (values, x, w, F), F the
    factor of K(c) from ``evidence.factors``.  Returns it with the proposals
    as rows 1..count, the row held after each move, and the count rejected
    outside the model's mask, through DOMAIN_ERRORS in the draw or through a
    K(c) that is not positive definite.  Other errors propagate; a NaN
    weight on a row that passed raises ValueError."""
    if table is None:
        values = np.repeat(current[0], count, axis=0)
        f, weight = np.repeat(current[3], count, axis=0), np.zeros(count)
    else:
        values = table.draw(rng, count)
        f, weight = evidence.factors(values)
        weight -= table.log_density(values)  # -inf stays -inf
    failed = weight == -np.inf
    x = current[1]
    if excess is not None:
        try:
            drawn = evidence.draw(rng, values, f)
        except DOMAIN_ERRORS:
            drawn = np.full((count, x.shape[1]), np.nan)
        failed |= ~np.isfinite(drawn).all(axis=1)
        rows = np.flatnonzero(~failed)
        extra, ok = excess(drawn[rows])
        weight[rows] += extra
        failed[rows[~ok]] = True
        x = np.concatenate([x, drawn])
    weight[failed] = -np.inf
    if np.isnan(weight).any():
        raise ValueError(f"independence weight is NaN at c = {values[np.isnan(weight)][0]}")
    weights = np.concatenate([current[2], weight])
    w, chosen, row = weights.tolist(), [], 0
    for t, log_u in enumerate(np.log(rng.random(count)).tolist(), start=1):
        if log_u < w[t] - w[row]:
            row = t
        chosen.append(row)
    return ((np.concatenate([current[0], values]), x, weights, np.concatenate([current[3], f])),
            np.array(chosen, dtype=int), int(np.count_nonzero(failed)))


class _Evidence:
    """Evidence of a linear(ised) model d = G s + e, e ~ N(0, Sigma), under
    the family's prior N(mu, Gamma(c)), through the q x q covariance

        K(c) = G Gamma(c) G^T + Sigma = sum_j w_j G T_j + Sigma,  w = (1, c),

    where T_j are the c-free n x q terms of B(c) = Gamma(c) G^T (affine in c,
    as both marginal blocks are fixed), from ``family.data_terms(G)``.  With
    r0 = d - G mu,

        log Z(c) = -(r0^T K(c)^{-1} r0 + log det K(c)) / 2

    up to a constant (0 with no data, q = 0); Gamma(c) is never formed.  A
    draw is Matheron's rule, s = s0 + B K^{-1} (d - G s0 - e) with s0 ~
    prior(c), e ~ noise; ``_key`` holds the values of the last draw.  For a
    model linearised at a reference, G is its Jacobian and d the data of
    ``linearised_data``.

    ``factors`` gives each c a factor F of K(c), in one of two forms.  With
    one coordinate (n_free = 1, q > 0), K(c) = K_0 + c K_1 is a
    symmetric-definite pencil, diagonalised once (Golub & Van Loan, Matrix
    Computations, 8.7): with L_0 L_0^T = K_0 and L_0^{-1} K_1 L_0^{-T} =
    V diag(lam) V^T, M = L_0^{-T} V gives K(c)^{-1} = M diag(F) M^T with
    F = 1 / (1 + c lam), and log Z(c) = -(|F^{1/2} M^T r0|^2 - sum log F) / 2
    - sum log L_0,ii at O(q) per c, no factorisation per c.  Otherwise F is
    the Cholesky factor R R^T = K(c), from the LAPACK of ``cholesky_lower``,
    and log Z(c) = -|R^{-1} r0|^2 / 2 - sum log R_ii."""

    def __init__(self, g, data, noise, family):
        g = np.asarray(g, dtype=float)
        self.g, self.data, self.noise, self.family = g, np.asarray(data, dtype=float), noise, family
        self._terms = terms = family.data_terms(g)
        self._gterms = (g @ terms).reshape(len(terms), -1)
        self._gterms[0] += noise.covariance().ravel()
        self._r0 = self.data - g @ family.mean
        self._key = None
        self._m = None  # the pencil's M, when there is one
        q = self._r0.size
        if family.n_free == 1 and q:
            k0, k1 = (0.5 * (k + k.T) for k in self._gterms.reshape(2, q, q))
            l0 = cholesky_lower(k0, "data-space covariance")  # K_0 >= Sigma
            a = solve_lower(l0, solve_lower(l0, k1).T)
            self._lam, v = sym_eig(0.5 * (a + a.T), "data-space covariance pencil")
            self._m = solve_triangular(l0, v, lower=True, trans="T")
            self._u = self._m.T @ self._r0
            self._logdet0 = float(np.sum(np.log(np.diagonal(l0))))

    def columns(self, values):
        """B(c) = Gamma(c) G^T, assembled from its c-free terms."""
        return np.tensordot(_weights(values), self._terms, axes=1)

    def factors(self, values):
        """(F, log Z(c)) for a stack of values (k, n_free), F as in the class
        docstring; log Z is -inf at a c outside the box or whose K(c) is not
        positive definite, and F there is the neutral factor (ones, or I)."""
        w, ok = _stack_weights(values)
        if self._m is not None:
            shift = 1.0 + w[:, 1:] * self._lam
            ok &= shift.min(axis=1) > 0.0
            shift[~ok] = 1.0
            f = 1.0 / shift
            logz = -0.5 * (f @ self._u**2 + np.log(shift).sum(axis=1)) - self._logdet0
            logz[~ok] = -np.inf
            return f, logz
        q = self._r0.size
        k = (w @ self._gterms).reshape(len(w), q, q)
        r, pd = _cholesky_stack(0.5 * (k + k.transpose(0, 2, 1)), "data-space covariance")
        ys = (solve_lower(ri, self._r0) if q else self._r0 for ri in r)
        logz = np.array([-0.5 * float(y @ y) - float(np.sum(np.log(np.diagonal(ri))))
                         for ri, y in zip(r, ys)])
        logz[~(ok & pd)] = -np.inf
        return r, logz

    def _factor(self, values):
        """``factors`` of a stack that must all have one, or else it raises."""
        f, logz = self.factors(values)
        for c in values[logz == -np.inf][:1]:
            _weights(c)  # raises ContractionError outside the box
            raise FactorizationError(f"data-space covariance is not positive definite at {c}")
        return f, logz

    def log_evidence(self, values):
        return float(self._factor(np.atleast_2d(values))[1][0])

    def mean(self, values, factor):
        """Mean mu + B K^{-1} (d - G mu) of s | c, d at one c, given its
        factor F from ``factors``."""
        b = self.columns(values)
        if self._m is not None:
            return self.family.mean + (b @ self._m) @ (factor * self._u)
        return self.family.mean + b @ cho_solve((factor, True), self._r0)

    def linear_loglik(self, s):
        """l_lin of one state, or of each row of a stack."""
        return gaussian_loglik(self.data, s @ self.g.T, self.noise)

    def draw(self, rng, values, factors=None):
        """Draws from s | c, d at one c, or a row per c of a stack (k, n_free),
        given the stack's factors F if the caller has them."""
        stack = np.atleast_2d(np.asarray(values, dtype=float))
        factors = self._factor(stack)[0] if factors is None else factors
        self._key = stack.tobytes()
        s0, q = self.family.draw(rng, stack), self.noise.q
        e = self.noise.std_vector * rng.standard_normal(len(stack) * q).reshape(len(stack), q)
        resid = self.data - s0 @ self.g.T - e
        if self._m is not None:  # K^{-1} resid = M diag(F) M^T resid, two GEMMs
            y = ((resid @ self._m) * factors) @ self._m.T
        elif q:
            (potrs,) = get_lapack_funcs(("potrs",), (factors,))  # row by row
            y = np.array([potrs(r, b, lower=True)[0] for r, b in zip(factors, resid)])
        else:
            y = resid
        weights = _stack_weights(stack)[0].T
        s = s0 + sum((w[:, None] * y) @ t.T for w, t in zip(weights, self._terms))
        return s[0] if np.ndim(values) == 1 else s


class _EvidenceTable:
    """The independence proposal for c: a piecewise-constant density g on
    (-1, 1)^n_free from log Z at the centres of G = round(TABLE_CELLS^(1 /
    n_free)) cells per coordinate, uniform within a cell.  Each cell's weight
    exp(log Z - max log Z) is floored at TABLE_FLOOR, so g > 0 wherever the
    target is, and the weights are kept as logarithms, so a table that spans
    thousands of nats does not underflow.  It costs G^n_free evaluations of
    ``_Evidence.factors``, in stacks of BLOCK_LENGTH: O(q) each through the
    pencil at n_free = 1, a Cholesky factor of K(c) each otherwise."""

    def __init__(self, evidence, n_free):
        self._n = n_free
        self._cells = max(1, round(TABLE_CELLS ** (1.0 / n_free)))
        self._width = 2.0 / self._cells
        centres = -1.0 + self._width * (np.arange(self._cells) + 0.5)
        grid = np.array(list(itertools.product(centres, repeat=n_free)))  # row-major
        logz = np.concatenate([evidence.factors(grid[i : i + BLOCK_LENGTH])[1]
                               for i in range(0, len(grid), BLOCK_LENGTH)])
        if not np.all(np.isfinite(logz)):
            raise ValueError("log evidence is not finite on the correlation table")
        logw = np.maximum(logz - logz.max(), np.log(TABLE_FLOOR))
        mass = np.exp(logw)
        self._cdf = np.cumsum(mass) / mass.sum()
        self._log_g = logw - np.log(mass.sum()) - n_free * np.log(self._width)
        self._lower = grid - 0.5 * self._width

    def draw(self, rng, count):
        """``count`` draws c ~ g: a cell by its weight, then a point in it."""
        u = rng.random((count, self._n + 1))
        cells = np.minimum(np.searchsorted(self._cdf, u[:, 0], side="right"), self._cdf.size - 1)
        return self._lower[cells] + self._width * u[:, 1:]

    def log_density(self, values):
        """log g(c), the density of the cell that holds c (or each row's c)."""
        index = np.clip(np.floor((np.asarray(values) + 1.0) / self._width).astype(int),
                        0, self._cells - 1)
        return self._log_g[np.ravel_multi_index(index.T, (self._cells,) * self._n)]


def linearised_data(reference, d):
    """Data of the model linearised at a reference point x0, f(s) ~ f0 +
    J (s - x0): d_lin = d - f0 + J x0, so that d_lin = J s + e.  The
    reference carries ``point``, ``jacobian`` and ``forward``, as a
    ``GaussNewtonResult`` does."""
    return d - reference.forward + np.asarray(reference.jacobian, dtype=float) @ reference.point


class _LinearGibbs(_Evidence):
    """``_Evidence`` of a linear model, which also gives its exact fixed-c
    posterior moments from the same factors.  The sampler's Gibbs draws of a
    linear chain go through this class."""

    def moments(self, values):
        """Posterior mean mu + B K^{-1} (d - G mu) and whitened columns W,
        shape (q, n), with W^T W = B K^{-1} B^T: W = diag(F^{1/2}) M^T B^T
        through the pencil, R^{-1} B^T otherwise.  The posterior covariance is
        Gamma(c) - W^T W, so the variances are
        diag Gamma_p (+) diag Gamma_m - colsum(W * W) for every c."""
        f = self._factor(np.atleast_2d(values))[0][0]
        b = self.columns(values)
        if self._m is not None:
            return self.mean(values, f), ((b @ self._m) * np.sqrt(f)).T
        return self.mean(values, f), solve_triangular(f, b.T, lower=True)


def mwg_run(model, family, noise, d, cfg: MwgConfig, *, sample_correlation=True,
            init_state=None, init_gamma=None, reference=None):
    """Metropolis-within-Gibbs over (s, c); fully reproducible from cfg.seed.

    A linear model (model.is_linear with a ``matrix``) is collapsed: c moves
    on the marginal p(c | d) by one independence move per iteration
    (``independence_block``), and each retained iteration gets one exact
    Gibbs field draw at its c (``Chain.s_steps`` counts them).  A nonlinear
    model starts from ``init_state`` and takes every move from the model
    linearised about ``reference`` (a ``GaussNewtonResult``; both required).
    With q(. | c) that model's conditional, the target is pi(s | c) =
    exp(e(s)) q(s | c) up to a constant, with e = l - l_lin, scored by one
    stacked call ``model.predict_rows(states)``, which returns the
    predictions and the mask of the rows it could evaluate (a row outside it
    is a rejection); the initial e is one call ``model(x)``.

    ``cfg.c_steps_per_s_step`` picks the kernel.  With 0 each iteration of a
    nonlinear chain moves (c, s) together, s' ~ q(. | c'), and a block's
    proposals are scored together (outside the mask they count in
    ``Chain.block_failed``).  A chain tabulates its proposal for c
    (``_EvidenceTable``), then runs in blocks of BLOCK_LENGTH iterations; a
    linear chain draws a block's retained fields together.  Blocks reorder
    the random stream, not the law of the chain.  With
    ``cfg.c_steps_per_s_step`` >= 1, for a nonlinear model only, each
    iteration takes one pCN field step about q(. | c), accepted with
    min(1, exp(e(s') - e(s))), then that many centred gamma steps at the
    fixed field; K(c) is factored again only when c has moved.  When
    ``sample_correlation`` is false c stays at its initial value, under the
    same kernel: an independence move then proposes only s' (or, on a linear
    model, draws the field exactly).
    """
    rng = np.random.default_rng(cfg.seed)
    retained = cfg.total_samples - cfg.burn_in
    n_free = family.n_free
    gamma = np.zeros(n_free) if init_gamma is None else np.atleast_1d(
        np.asarray(init_gamma, dtype=float)
    ).copy()
    values = np.tanh(gamma)
    track_gamma = sample_correlation and n_free > 0

    linear = bool(getattr(model, "is_linear", False))
    if linear and cfg.c_steps_per_s_step:
        raise ValueError("centred steps (c_steps_per_s_step >= 1) need a nonlinear model")
    if not (linear or reference is not None):
        raise ValueError("a nonlinear model needs a reference linearisation")
    if not linear and init_state is None:
        raise ValueError("nonlinear models need an initial state")
    states = np.empty((retained, family.dim))
    corr = np.empty((retained, n_free))

    excess = None
    if linear:
        x, e = None, 0.0
        evidence = _LinearGibbs(model.matrix, d, noise, family)
    else:
        x = np.asarray(init_state, dtype=float).copy()
        evidence = _Evidence(reference.jacobian, linearised_data(reference, d), noise, family)
        e = gaussian_loglik(d, model(x), noise) - evidence.linear_loglik(x)
        if not np.isfinite(e):
            raise ValueError("target log density is not finite at the initial state")

        def excess(states):  # one stacked forward evaluation
            predicted, ok = model.predict_rows(states)
            return gaussian_loglik(d, predicted, noise) - evidence.linear_loglik(states), ok

    if not cfg.c_steps_per_s_step:  # independence moves
        f, logz = evidence._factor(values[None])
        table = _EvidenceTable(evidence, n_free) if track_gamma else None
        weight = e if table is None else e + logz[0] - table.log_density(values)
        current = (values[None], None if linear else x[None], np.array([weight]), f)
        accepted = failed = 0
        for start in range(0, cfg.total_samples, BLOCK_LENGTH):
            count = min(BLOCK_LENGTH, cfg.total_samples - start)
            stack, chosen, block_failed = independence_block(
                rng, count, current, table, evidence, excess)
            accepted += np.count_nonzero(np.diff(chosen, prepend=0))
            failed += block_failed
            current = tuple(None if a is None else a[chosen[-1:]] for a in stack)
            first = max(start, cfg.burn_in)  # the block's first retained iteration
            rows = chosen[first - start :]  # the row held at each retained iteration
            if rows.size:
                kept = slice(first - cfg.burn_in, first - cfg.burn_in + rows.size)
                corr[kept] = stack[0][rows]
                states[kept] = (evidence.draw(rng, stack[0][rows], stack[3][rows]) if linear
                                else stack[1][rows])
        draws = retained if linear else 0
        return Chain(states=states, corr=corr, total_samples=cfg.total_samples,
                     burn_in=cfg.burn_in, seed=cfg.seed, s_steps=draws, s_accepted=draws,
                     block_steps=cfg.total_samples, block_accepted=accepted,
                     block_failed=failed)

    # centred kernel: a pCN field step about q(. | c), then centred gamma steps
    cur_pd = family.log_density(x, values) if track_gamma else 0.0
    cur_cp = correlation_prior_logdensity(gamma) if track_gamma else 0.0
    shrink = np.sqrt(1.0 - PCN_BETA**2)
    factored = None  # the c of f and centre
    s_accepted = gamma_steps = gamma_accepted = 0
    for k in range(cfg.total_samples):
        if factored is None or np.any(values != factored):
            factored = values
            f = evidence._factor(values[None])[0]
            centre = evidence.mean(values, f[0])
        xi = evidence.draw(rng, values[None], f)[0]
        prop = centre + shrink * (x - centre) + PCN_BETA * (xi - centre)
        e_prop = -np.inf
        if np.isfinite(prop).all():  # a reduced draw with no Gram factor reads NaN
            extra, ok = excess(prop[None])
            if ok[0]:
                e_prop = extra[0]
        if np.isnan(e_prop):
            raise ValueError(f"pCN weight is NaN at c = {values}")
        if np.log(rng.random()) < e_prop - e:
            x, e = prop, e_prop
            s_accepted += 1
            if track_gamma:
                cur_pd = family.log_density(x, values)
        if track_gamma:
            target = partial(family.log_density, x)
            for _ in range(cfg.c_steps_per_s_step):
                gamma, cur_pd, cur_cp, acc = metropolis_update_correlation(
                    rng, gamma, cur_pd, cur_cp, target, GAMMA_STEP_STD
                )
                gamma_steps += 1
                gamma_accepted += int(acc)
            values = np.tanh(gamma)
        if k >= cfg.burn_in:
            states[k - cfg.burn_in] = x
            corr[k - cfg.burn_in] = values

    return Chain(
        states=states, corr=corr, total_samples=cfg.total_samples,
        burn_in=cfg.burn_in, seed=cfg.seed,
        s_steps=cfg.total_samples, s_accepted=s_accepted,
        gamma_steps=gamma_steps, gamma_accepted=gamma_accepted,
    )


# ----------------------------------------------------------------------------
# Gauss-Newton MAP warm start
# ----------------------------------------------------------------------------


class GaussNewtonError(RuntimeError):
    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass
class GaussNewtonResult:
    point: np.ndarray
    jacobian: np.ndarray    # model Jacobian at point
    forward: np.ndarray     # model(point)
    iterations: int
    objective: float
    converged: bool
    halvings: int           # line-search step halvings over all iterations
    objective_trace: list | None = None


def gauss_newton_map(model, d, noise, prior_mean, prior_precision, init=None, *,
                     grad_tol=1e-8, max_iter=100, max_halvings=30):
    """Gauss-Newton minimisation of the negative log posterior with Armijo
    backtracking, returning the MAP point with the Jacobian and the forward
    value there: the reference linearisation of ``mwg_run`` at no extra solve.

    The model supplies its Jacobian as ``model.jacobian(x)``.  Terminates
    when the gradient norm falls below grad_tol * (1 + initial norm) or after
    max_iter accepted steps; a failed line search raises GaussNewtonError
    carrying the last iterate.
    """
    prior_mean = np.asarray(prior_mean, dtype=float)
    prior_precision = np.asarray(prior_precision, dtype=float)
    x = prior_mean.copy() if init is None else np.asarray(init, dtype=float).copy()
    w = 1.0 / noise.var_vector

    def objective(xx):
        f = model(xx)
        r = d - f
        dx = xx - prior_mean
        return 0.5 * float((r * w) @ r) + 0.5 * float(dx @ (prior_precision @ dx)), f

    fx, f = objective(x)
    trace = [fx]
    grad0 = None
    iterations = halvings = 0
    converged = False
    for _ in range(max_iter):
        jac = model.jacobian(x)
        grad = -jac.T @ (w * (d - f)) + prior_precision @ (x - prior_mean)
        gnorm = float(np.linalg.norm(grad))
        if grad0 is None:
            grad0 = gnorm
        if gnorm <= grad_tol * (1.0 + grad0):
            converged = True
            break
        h = (jac.T * w) @ jac + prior_precision
        rchol = cholesky_lower(0.5 * (h + h.T), "Gauss-Newton Hessian")
        step = solve_triangular(
            rchol, solve_triangular(rchol, -grad, lower=True), lower=True, trans="T"
        )
        slope = float(grad @ step)
        alpha = 1.0
        for _ in range(max_halvings + 1):
            try:
                fn, f_new = objective(x + alpha * step)
            except DOMAIN_ERRORS:
                fn = np.inf
            if fn <= fx + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
            halvings += 1
        else:
            raise GaussNewtonError(
                f"line search failed after {max_halvings} halvings", last_iterate=x
            )
        x = x + alpha * step
        fx, f = fn, f_new
        trace.append(fx)
        iterations += 1

    if not converged:  # the last Jacobian was taken before the last step
        jac = model.jacobian(x)
    return GaussNewtonResult(
        point=x, jacobian=jac, forward=f,
        iterations=iterations, objective=fx, converged=converged,
        objective_trace=trace, halvings=halvings,
    )
