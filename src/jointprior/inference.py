"""Likelihoods, exact linear-Gaussian posteriors, the adaptive
Metropolis-within-Gibbs sampler, and the Gauss-Newton warm start.

Both studies move the correlation c by independence Metropolis-Hastings
(Tierney 1994) through the evidence of a linear or linearised model,
log Z(c) = -(r0^T K(c)^{-1} r0 + log det K(c)) / 2, with K(c) the q x q
data-space covariance, affine in c and factorised once per c (``_Evidence``).
Before its first iteration a chain tabulates log Z at the centres of a grid
of about TABLE_CELLS cells over (-1, 1)^n_free, the INLA recipe for a
low-dimensional hyperparameter (Rue, Martino & Chopin 2009), and proposes c'
from the piecewise-constant density g of that table (``_EvidenceTable``).
For a linear model the field is integrated out: c takes independence steps
on p(c | d), then the field gets one exact Gibbs draw by pathwise
conditioning.  For a nonlinear model with a reference linearisation (c, s)
move together: s' is drawn from the exact conditional of the linearised
model at c', and the move is exact for the nonlinear target whatever the
table holds.

The field of a nonlinear model without such moves takes adaptive random-walk
Metropolis steps, and c = tanh(gamma) takes centred random-walk steps at the
fixed field; the random-walk rules are module constants, and proposal
adaptation runs during burn-in only, so the retained chain is Markovian.
Centred steps use the prior families, which compute the terms that depend
on the state once per state: the full family reuses the whitened marginals,
and the reduced family factors the smaller of its two Gram complements
(k_p x k_p when k_p <= k_m).  A non-finite state raises ValueError; a
correlation value outside (-1, 1) raises ContractionError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .forward_models import DOMAIN_ERRORS
from .joint_prior import JointPrior, correlation_prior_logdensity
from .linalg import CONTRACTION_MARGIN, ContractionError, cholesky_lower, solve_lower


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
    """Gaussian log likelihood up to a constant: -|d - prediction|^2_cov / 2."""
    d = np.asarray(d, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if d.shape != (noise.q,) or prediction.shape != (noise.q,):
        raise ValueError(
            f"data/prediction shapes {d.shape}, {prediction.shape} do not match q = {noise.q}"
        )
    r = (d - prediction) / noise.std_vector
    return -0.5 * float(r @ r)


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


def _weights(values):
    """w = (1, c), after the rule of ``Contraction``: |c| < 1 - margin."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    sigma = float(np.abs(values).max()) if values.size else 0.0
    if not sigma < 1.0 - CONTRACTION_MARGIN:  # also rejects a NaN or inf value
        raise ContractionError(f"correlation values reached +-1: {values}",
                               sigma_max=sigma)
    return np.concatenate([[1.0], values])


def _cached(cache, values, build):
    """``build(values)``, kept in ``cache`` under the values' bytes for the
    two most recently used values of c: after a move proposes c', a draw at
    c' or at the current c finds its factor built."""
    key = np.asarray(values, dtype=float).tobytes()
    state = cache.pop(key, None)
    if state is None:
        state = build(values)
    cache[key] = state
    if len(cache) > 2:
        del cache[next(iter(cache))]  # the least recently used
    return state


class FullJointFamily:
    """Joint prior over the stacked field vector as a function of the free
    correlation coordinates of its contraction.

    ``log_density`` equals ``prior(values).log_density(s)`` without building
    the prior: the whitened marginals L_p (s_p - mu_p) and L_m (s_m - mu_m)
    are computed once per field state, so a new value costs ``with_values``,
    a defect apply and ``logdet_complement``."""

    def __init__(self, filter_p, filter_m, contraction, mean_p=None, mean_m=None):
        self._template = build = JointPrior(filter_p, filter_m, contraction, mean_p, mean_m)
        self.filter_p = filter_p
        self.filter_m = filter_m
        self.contraction = contraction
        self.mean = build.mean
        self.n_free = contraction.n_free
        self.dim = build.n
        self._whitened = _StateCache(self._whiten_marginals)

    def prior(self, values=None):
        """Joint prior at the given free correlation coordinates."""
        c = self.contraction if values is None else self.contraction.with_values(values)
        if c is self.contraction:
            return self._template
        return JointPrior(self.filter_p, self.filter_m, c,
                          self._template.mean_p, self._template.mean_m)

    def _whiten_marginals(self, s):
        xp, xm = self._template.split(s)
        w1 = self.filter_p.apply(xp - self._template.mean_p)
        return w1, float(w1 @ w1), self.filter_m.apply(xm - self._template.mean_m)

    def log_density(self, s, values):
        """Joint log prior up to a constant independent of s and C; see
        ``JointPrior.log_density``."""
        w1, quad_p, wm = self._whitened(s)
        c = self.contraction.with_values(values)  # a dense contraction returns itself
        defect = self._template.defect if c is self.contraction else c.defect()
        w2 = defect.apply(wm - c.rmatvec(w1))
        return -0.5 * (quad_p + float(w2 @ w2) + c.logdet_complement())


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
        self._grams = {}
        self._terms = _StateCache(self._conditional_terms)

    def _conditional_terms(self, shat):
        a, b = shat[self._a], shat[self._b]
        return a.copy(), float(b @ b), self._x @ b

    def cross_block(self, values):
        return np.tensordot(_weights(values), self._blocks, axes=1)

    def _gram_factor(self, values):
        """(w, R, log det R R^T) with R R^T = I - X X^T, the smaller Gram
        complement at c; kept for the two most recent values of c."""
        def build(values):
            w = _weights(values)
            gram = self._eye - (w @ (w @ self._gram)).reshape(self._eye.shape)
            r = cholesky_lower(gram, "reduced Gram complement")
            return w, r, 2.0 * float(np.sum(np.log(np.diagonal(r))))
        return _cached(self._grams, values, build)

    def log_density(self, shat, values):
        """Reduced joint log prior up to a constant independent of shat and C."""
        a, bb, xb = self._terms(shat)
        w, r, logdet = self._gram_factor(values)
        resid = solve_lower(r, a - w @ xb)
        return -0.5 * (bb + float(resid @ resid) + logdet)

    def draw(self, rng, values):
        """A draw from the reduced joint prior at c: b = z_b, a = X b + R z_a."""
        w, r, _ = self._gram_factor(values)
        z = rng.standard_normal(self.dim)
        s = np.empty(self.dim)
        s[self._b] = b = z[self._b]
        s[self._a] = w @ (self._x @ b) + r @ z[self._a]
        return s


# ----------------------------------------------------------------------------
# Sampler configuration and chain storage
# ----------------------------------------------------------------------------


# Fixed random-walk rules.  The gamma walk takes Gaussian steps of standard
# deviation GAMMA_STEP_STD.  The field proposal scale tau starts at the
# optimal-scaling value START_SCALE / sqrt(dim) and, every ADAPT_BATCH
# iterations, follows ln tau += batch^(-ADAPT_DECAY) * (batch acceptance -
# ACCEPT_TARGET) (Roberts, Gelman & Gilks 1997); the proposal factor is
# refreshed from the accepted history every COV_REFRESH iterations, with a
# ridge of COV_RIDGE.
GAMMA_STEP_STD = 1.0
START_SCALE = 2.38
ACCEPT_TARGET = 0.23
ADAPT_DECAY = 0.6
ADAPT_BATCH = 50
COV_REFRESH = 1000
COV_RIDGE = 1e-8

# The independence proposal for c tabulates log Z(c) on about TABLE_CELLS
# cells of (-1, 1)^n_free, G = round(TABLE_CELLS^(1/n_free)) per coordinate,
# and floors each cell's weight at TABLE_FLOOR times the largest.
TABLE_CELLS = 144
TABLE_FLOOR = 1e-3


@dataclass
class MwgConfig:
    """Lengths, move counts and seed of a Metropolis-within-Gibbs run.

    An iteration on a linear model takes ``c_steps_per_s_step`` independence
    steps of c, then one exact Gibbs field draw.  An iteration on a
    nonlinear model takes ``block_steps`` independence moves of (c, s) and
    nothing else when ``block_steps`` >= 1 (this needs a reference
    linearisation; see ``mwg_run``); otherwise one adaptive random-walk
    field step and ``c_steps_per_s_step`` centred gamma steps.  So
    ``c_steps_per_s_step`` may be 0 only when ``block_steps`` >= 1.
    Proposal adaptation happens during burn-in only.
    """

    total_samples: int
    burn_in: int
    c_steps_per_s_step: int = 1
    block_steps: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.total_samples < 1:
            raise ValueError("total_samples must be >= 1")
        if not 0 <= self.burn_in < self.total_samples:
            raise ValueError(
                f"burn-in {self.burn_in} leaves an empty chain out of "
                f"{self.total_samples} total samples"
            )
        if self.block_steps < 0:
            raise ValueError(f"block_steps must be >= 0, got {self.block_steps}")
        if self.c_steps_per_s_step < (0 if self.block_steps else 1):
            raise ValueError("c_steps_per_s_step must be >= 1, or >= 0 when "
                             f"block_steps >= 1, got {self.c_steps_per_s_step}")


@dataclass
class Chain:
    """Retained MCMC samples with acceptance and adaptation bookkeeping."""

    states: np.ndarray     # (retained, dim) field or reduced coordinates
    corr: np.ndarray       # (retained, n_free) correlation values tanh(gamma)
    total_samples: int
    burn_in: int
    seed: int
    kind: str              # "gibbs" or "adaptive"
    s_steps: int = 0
    s_accepted: int = 0
    gamma_steps: int = 0     # centred random-walk correlation steps
    gamma_accepted: int = 0
    block_steps: int = 0     # independence moves of c, or of (c, s)
    block_accepted: int = 0
    block_failed: int = 0    # independence moves rejected through a domain error
    tau_trace: np.ndarray | None = None  # (records, 2): iteration, tau

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


class AdaptiveProposal:
    """Random-walk proposal tau * A @ z with diminishing adaptation of tau and
    periodic refresh of A from the accepted history, after the fixed rules
    above; A starts at ``factor0`` (the identity by default)."""

    def __init__(self, dim, factor0=None):
        self.dim = dim
        self.tau = START_SCALE / np.sqrt(dim)
        self.factor = np.eye(dim) if factor0 is None else np.asarray(factor0, dtype=float)
        self.accepted_states = []
        self._batch_accepts = 0
        self._batch_count = 0
        self._batch_index = 0
        self.trace = [(0, self.tau)]

    def step(self, rng):
        return self.tau * (self.factor @ rng.standard_normal(self.dim))

    def register(self, accepted, state, iteration, adapting):
        if accepted and adapting:
            self.accepted_states.append(np.array(state, dtype=float))
        if not adapting:
            return
        self._batch_accepts += int(accepted)
        self._batch_count += 1
        if self._batch_count >= ADAPT_BATCH:
            self._batch_index += 1
            rate = self._batch_accepts / self._batch_count
            self.tau = float(np.exp(
                np.log(self.tau)
                + self._batch_index ** (-ADAPT_DECAY) * (rate - ACCEPT_TARGET)
            ))
            self._batch_accepts = 0
            self._batch_count = 0
            self.trace.append((iteration + 1, self.tau))
        if (iteration + 1) % COV_REFRESH == 0 and len(self.accepted_states) >= self.dim:
            cov = np.cov(np.asarray(self.accepted_states), rowvar=False)
            cov = np.atleast_2d(cov) + COV_RIDGE * np.eye(self.dim)
            self.factor = cholesky_lower(cov, "proposal covariance")

    def trace_array(self):
        return np.asarray(self.trace, dtype=float)


def adaptive_metropolis_update_s(rng, x, cur_logdens, log_target, proposal,
                                 iteration=0, adapting=False):
    """One adaptive random-walk Metropolis step on the field block.

    A proposal where the target raises or returns a non-finite value is
    rejected and counted.  Returns (state, log density, accepted).
    """
    prop = x + proposal.step(rng)
    try:
        cand = float(log_target(prop))
    except DOMAIN_ERRORS:
        cand = -np.inf
    accepted = np.isfinite(cand) and np.log(rng.random()) < cand - cur_logdens
    if accepted:
        x, cur_logdens = prop, cand
    proposal.register(accepted, x, iteration, adapting)
    return x, cur_logdens, accepted


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


def metropolis_block_update(rng, values, x, weight, table, evidence, excess=None):
    """One independence Metropolis-Hastings move (Tierney 1994): c' ~ g from
    ``table`` and, when ``excess`` is given, s' ~ q(. | c') =
    ``evidence.draw(rng, c')``, the exact conditional of the linearised
    model.  As l_lin(s) + log p(s | c) = log Z(c) + log q(s | c) for every s
    and c is uniform a priori, the importance weight of (s, c) is

        w(s, c) = l(s) - l_lin(s) + log Z(c) - log g(c),

    with ``excess(s)`` = l(s) - l_lin(s); without it (a linear model, where
    the excess is 0) only c moves and the field is left to a Gibbs draw.
    The move is accepted with probability min(1, exp(w' - w)); ``weight`` is
    w at the current (x, values).  A DOMAIN_ERRORS failure is a rejection,
    any other error propagates, and a NaN weight raises ValueError.  Returns
    (values, x, weight, outcome): outcome is True when accepted, False when
    rejected by the Metropolis test and None when rejected by a failure.
    """
    proposed = table.draw(rng)
    try:
        x_new = x if excess is None else evidence.draw(rng, proposed)
        w_new = ((0.0 if excess is None else excess(x_new))
                 + evidence.log_evidence(proposed) - table.log_density(proposed))
    except DOMAIN_ERRORS:
        return values, x, weight, None
    if np.isnan(w_new):
        raise ValueError(f"independence weight is NaN at c = {proposed}")
    if np.log(rng.random()) < w_new - weight:
        return proposed, x_new, w_new, True
    return values, x, weight, False


class _Evidence:
    """Evidence of a linear(ised) model d = G s + e, e ~ N(0, Sigma), under
    the prior N(mu, Gamma(c)), through the q x q data-space covariance

        K(c) = G Gamma(c) G^T + Sigma = sum_j w_j G T_j + Sigma,  w = (1, c),

    where T_j are the c-free n x q terms of B(c) = Gamma(c) G^T (affine in c,
    as both marginal blocks are fixed).  With K(c) = R R^T and r0 = d - G mu,

        log Z(c) = -|R^{-1} r0|^2 / 2 - sum_i log R_ii

    up to a constant; it is 0 with no data (q = 0).  K(c) is factorised once
    per c, and the two most recently used values stay cached, so a new c
    costs O(q^3) and Gamma(c) is never formed."""

    def __init__(self, g, r0, noise, terms):
        self._terms = terms
        self._gterms = g @ terms
        self._gterms[0] += noise.covariance()
        self._r0 = r0
        self._factors = {}

    def columns(self, values):
        """B(c) = Gamma(c) G^T, assembled from its c-free terms."""
        return np.tensordot(_weights(values), self._terms, axes=1)

    def _data_factor(self, values):
        """(R, log Z(c)) with K(c) = R R^T."""
        def build(values):
            k = np.tensordot(_weights(values), self._gterms, axes=1)
            r = cholesky_lower(0.5 * (k + k.T), "data-space covariance")
            y = solve_lower(r, self._r0) if r.size else self._r0
            return r, -0.5 * float(y @ y) - float(np.sum(np.log(np.diagonal(r))))
        return _cached(self._factors, values, build)

    def log_evidence(self, values):
        return self._data_factor(values)[1]


class _EvidenceTable:
    """The independence proposal for c: a piecewise-constant density g on
    (-1, 1)^n_free from log Z at the centres of G = round(TABLE_CELLS^(1 /
    n_free)) cells per coordinate, uniform within a cell.  Each cell's weight
    exp(log Z - max log Z) is floored at TABLE_FLOOR, so g > 0 wherever the
    target is, and the weights are kept as logarithms, so a table that spans
    thousands of nats does not underflow.  It costs G^n_free factors of
    K(c), one per cell."""

    def __init__(self, evidence, n_free):
        self._n = n_free
        self._cells = max(1, round(TABLE_CELLS ** (1.0 / n_free)))
        self._width = 2.0 / self._cells
        centres = -1.0 + self._width * (np.arange(self._cells) + 0.5)
        grid = np.array(list(itertools.product(centres, repeat=n_free)))  # row-major
        logz = np.array([evidence.log_evidence(c) for c in grid])
        if not np.all(np.isfinite(logz)):
            raise ValueError("log evidence is not finite on the correlation table")
        logw = np.maximum(logz - logz.max(), np.log(TABLE_FLOOR))
        mass = np.exp(logw)
        self._cdf = np.cumsum(mass) / mass.sum()
        self._log_g = logw - np.log(mass.sum()) - n_free * np.log(self._width)
        self._lower = grid - 0.5 * self._width

    def draw(self, rng):
        """c ~ g: a cell by its weight, then a uniform point in it."""
        u = rng.random(self._n + 1)
        cell = min(int(np.searchsorted(self._cdf, u[0], side="right")), self._cdf.size - 1)
        return self._lower[cell] + self._width * u[1:]

    def log_density(self, values):
        """log g(c), the density of the cell that holds c."""
        index = np.clip(np.floor((np.asarray(values) + 1.0) / self._width).astype(int),
                        0, self._cells - 1)
        return float(self._log_g[np.ravel_multi_index(index, (self._cells,) * self._n)])


class _LaplaceConditional(_Evidence):
    """Field proposal given the correlation: the exact conditional s | c of
    the model linearised at a reference point x0, f(s) ~ f0 + J (s - x0),
    that is of d_lin = J s + e with d_lin = d - f0 + J x0, under the reduced
    family's prior N(0, Sigma(c)).  Sigma(c) = [[I, X(c)], [X(c)^T, I]] is
    affine in c, so the evidence terms Sigma_j J^T are formed once.  A draw
    is Matheron's rule: s0 = ``family.draw``, e ~ noise,
    s = s0 + Sigma(c) J^T K(c)^{-1} (d_lin - J s0 - e); no n x n precision
    is formed.  For a linear model with J its matrix, q is the exact
    conditional.  ``reference`` carries ``point``, ``jacobian`` and
    ``forward``, as a ``GaussNewtonResult`` does."""

    def __init__(self, reference, d, noise, family):
        self.j = np.asarray(reference.jacobian, dtype=float)
        self.d_lin = d - reference.forward + self.j @ reference.point
        self.noise = noise
        self.family = family
        jp, jm = np.split(self.j.T, [family.basis_p.k])
        terms = np.stack([np.concatenate([xj @ jm, xj.T @ jp]) for xj in family._blocks])
        terms[0] += self.j.T
        super().__init__(self.j, self.d_lin, noise, terms)

    def linear_loglik(self, s):
        return gaussian_loglik(self.d_lin, self.j @ s, self.noise)

    def draw(self, rng, values):
        s0 = self.family.draw(rng, values)
        resid = self.d_lin - self.j @ s0 - self.noise.sample(rng)
        r, _ = self._data_factor(values)
        return s0 + self.columns(values) @ cho_solve((r, True), resid)


class _LinearGibbs(_Evidence):
    """Exact posterior of a linear model d = G s + e at fixed correlation,
    through the data-space covariance K(c) of ``_Evidence``.  It serves the
    independence correlation steps (``log_evidence``), the sampler's Gibbs
    draws and the fixed-c moments from the same cached factor.  A draw at a new c
    also builds prior(c) and B(c), once per c, and ``_key`` changes exactly
    then.  The c-free terms take q filter solves each at construction.

    A draw is pathwise conditioning (Matheron's rule): with s0 ~ prior(c) and
    e ~ noise, s = s0 + B K^{-1} (d - G s0 - e) has exactly the conditional
    law; it uses 2n + q standard normals."""

    def __init__(self, g, d, noise, family):
        self.g = np.asarray(g, dtype=float)
        self.d = np.asarray(d, dtype=float)
        self.noise = noise
        self.family = family
        fp, fm, con, n_free = family.filter_p, family.filter_m, family.contraction, family.n_free
        # B_0 = S_0 S_0^T G^T with S_0 the mean-free colouring map at c = 0
        base = JointPrior(fp, fm, con.with_values(np.zeros(n_free)))
        a = base.sample_t(self.g.T)
        terms = [base.sample(a)]
        for l in range(n_free):  # B_l = 2 B(e_l / 2): e_l itself is no strict contraction
            half = con.with_values(0.5 * np.eye(n_free)[l])
            terms.append(2.0 * np.concatenate([fp.solve(half.matvec(a[fp.dim :])),
                                               fm.solve(half.rmatvec(a[: fp.dim]))]))
        super().__init__(self.g, self.d - self.g @ family.mean, noise, np.stack(terms))
        self._key = None
        self._state = None

    def _factor(self, values):
        """(prior(c), B(c), R) with K(c) = R R^T."""
        key = np.asarray(values, dtype=float).tobytes()
        if key != self._key:
            self._key, self._state = key, (self.family.prior(values), self.columns(values))
        return (*self._state, self._data_factor(values)[0])

    def draw(self, rng, values):
        prior, b, r = self._factor(values)
        s0 = prior.sample(rng.standard_normal(prior.n))
        resid = self.d - self.g @ s0 - self.noise.sample(rng)
        return s0 + b @ cho_solve((r, True), resid)

    def moments(self, values):
        """Posterior mean mu + B K^{-1} (d - G mu) and whitened columns
        W = R^{-1} B^T, shape (q, n): the posterior covariance is
        Gamma(c) - W^T W, so the variances are
        diag Gamma_p (+) diag Gamma_m - colsum(W * W) for every c."""
        prior, b, r = self._factor(values)
        mean = prior.mean
        return (mean + b @ cho_solve((r, True), self.d - self.g @ mean),
                solve_triangular(r, b.T, lower=True))


def mwg_run(model, family, noise, d, cfg: MwgConfig, *, sample_correlation=True,
            init_state=None, init_gamma=None, proposal_factor=None, reference=None):
    """Metropolis-within-Gibbs over (s, c); fully reproducible from cfg.seed.

    Linear models (model.is_linear with a ``matrix``) are collapsed: each
    iteration takes ``cfg.c_steps_per_s_step`` independence steps of c on the
    marginal p(c | d), through the log evidence with the field integrated
    out, then one exact Gibbs field draw at the resulting c.  A nonlinear
    model starts from ``init_state`` (required).  With ``cfg.block_steps``
    >= 1 each iteration takes that many independence moves of (c, s), whose
    field proposal is the conditional of the model linearised about
    ``reference`` (a ``GaussNewtonResult``; the reduced family only), and
    nothing else.  Otherwise the field takes an adaptive random-walk
    Metropolis step, optionally with an initial proposal factor (e.g. a
    Laplace factor from the warm start), and gamma takes
    ``cfg.c_steps_per_s_step`` centred steps at the fixed field.  An
    independence chain tabulates its proposal for c (``_EvidenceTable``)
    before the first iteration.  When ``sample_correlation`` is false the
    correlation stays at its initial value and only the field is sampled.
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
    blocks = cfg.block_steps if track_gamma else 0
    if blocks and (linear or reference is None):
        raise ValueError("block moves need a nonlinear model and a reference linearisation")
    excess = x = None
    if linear:
        evidence = _LinearGibbs(model.matrix, d, noise, family)
        moves = cfg.c_steps_per_s_step if track_gamma else 0
    else:
        if init_state is None:
            raise ValueError("nonlinear models need an initial state")
        # the correlation steps need the prior term on its own: the target
        # keeps the (log likelihood, log prior) of its last evaluation
        last = [None, None]

        def loglik(s):
            return gaussian_loglik(d, model(s), noise)

        def log_target(s):
            last[:] = loglik(s), family.log_density(s, values)
            return last[0] + last[1]

        x = np.asarray(init_state, dtype=float).copy()
        if not np.isfinite(log_target(x)):
            raise ValueError("target log density is not finite at the initial state")
        cur_ll, cur_pd = last
        proposal = AdaptiveProposal(family.dim, proposal_factor)
        moves = blocks
        if blocks:
            evidence = _LaplaceConditional(reference, d, noise, family)

            def excess(s):
                return loglik(s) - evidence.linear_loglik(s)
    if moves:
        table = _EvidenceTable(evidence, n_free)
        weight = ((0.0 if excess is None else cur_ll - evidence.linear_loglik(x))
                  + evidence.log_evidence(values) - table.log_density(values))

    states = np.empty((retained, family.dim))
    corr = np.empty((retained, n_free))
    s_steps = s_accepted = gamma_steps = gamma_accepted = block_accepted = block_failed = 0
    cur_cp = correlation_prior_logdensity(gamma) if track_gamma else 0.0

    for k in range(cfg.total_samples):
        adapting = k < cfg.burn_in
        for _ in range(moves):
            values, x, weight, outcome = metropolis_block_update(
                rng, values, x, weight, table, evidence, excess)
            block_accepted += outcome is True
            block_failed += outcome is None
        if not (linear or moves):
            x, _, accepted = adaptive_metropolis_update_s(
                rng, x, cur_ll + cur_pd, log_target, proposal, k, adapting
            )
            if accepted:
                cur_ll, cur_pd = last
            s_steps += 1
            s_accepted += int(accepted)
            if track_gamma:
                target = partial(family.log_density, x)
                for _ in range(cfg.c_steps_per_s_step):
                    gamma, cur_pd, cur_cp, acc = metropolis_update_correlation(
                        rng, gamma, cur_pd, cur_cp, target, GAMMA_STEP_STD
                    )
                    values = np.tanh(gamma)
                    gamma_steps += 1
                    gamma_accepted += int(acc)

        if linear:
            x = evidence.draw(rng, values)
            s_steps += 1
            s_accepted += 1
        if k >= cfg.burn_in:
            states[k - cfg.burn_in] = x
            corr[k - cfg.burn_in] = values

    return Chain(
        states=states, corr=corr, total_samples=cfg.total_samples,
        burn_in=cfg.burn_in, seed=cfg.seed, kind="gibbs" if linear else "adaptive",
        s_steps=s_steps, s_accepted=s_accepted,
        gamma_steps=gamma_steps, gamma_accepted=gamma_accepted,
        block_steps=moves * cfg.total_samples, block_accepted=block_accepted,
        block_failed=block_failed,
        tau_trace=None if linear else proposal.trace_array(),
    )


# ----------------------------------------------------------------------------
# Gauss-Newton MAP and Laplace warm start
# ----------------------------------------------------------------------------


class GaussNewtonError(RuntimeError):
    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass
class GaussNewtonResult:
    point: np.ndarray
    covariance: np.ndarray  # Laplace (Gauss-Newton) posterior covariance
    factor: np.ndarray      # lower factor L with L L^T = covariance
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
    backtracking, returning the MAP point and the Laplace covariance factor,
    with the Jacobian and the forward value at the point (a reference for
    ``mwg_run``'s independence moves at no extra solve).

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
    h = (jac.T * w) @ jac + prior_precision
    rchol = cholesky_lower(0.5 * (h + h.T), "Laplace precision")
    cov = cho_solve((rchol, True), np.eye(x.size))
    cov = 0.5 * (cov + cov.T)
    factor = cholesky_lower(cov, "Laplace covariance")
    return GaussNewtonResult(
        point=x, covariance=cov, factor=factor, jacobian=jac, forward=f,
        iterations=iterations, objective=fx, converged=converged,
        objective_trace=trace, halvings=halvings,
    )
