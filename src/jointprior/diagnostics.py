"""Chain statistics: autocorrelation, effective sample size, and the
accuracy / uncertainty metrics used to compare joint and independent runs."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np


class ZeroVarianceError(ValueError):
    pass


def _next_fast_len(n):
    """Smallest 11-smooth integer >= n, the FFT length scipy.fft.next_fast_len
    picks; numpy.fft is used so that scipy.fft stays off the import path."""
    while True:
        rest = n
        for prime in (2, 3, 5, 7, 11):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 1


def autocorrelation(x, max_lag):
    """Biased (1/M-normalised) sample autocorrelation r(0..max_lag), r(0) = 1."""
    x = np.asarray(x, dtype=float)
    m = x.size
    if not 0 <= max_lag < m:
        raise ValueError(f"max_lag {max_lag} out of range for a length-{m} sequence")
    xc = x - x.mean()
    var = float(xc @ xc) / m
    if var == 0.0:
        raise ZeroVarianceError("constant sequence has no autocorrelation")
    nfft = _next_fast_len(2 * m)
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[: max_lag + 1] / m
    return acov / acov[0]


def ess(x):
    """Effective sample size M / (1 + 2 sum r(w)).

    The lag sum is truncated at the first negative autocorrelation, which
    keeps the partial sum nonnegative and therefore ESS in (0, M].
    """
    x = np.asarray(x, dtype=float)
    m = x.size
    r = autocorrelation(x, m - 1)
    tail = r[1:]
    negative = np.nonzero(tail < 0.0)[0]
    stop = negative[0] if negative.size else tail.size
    return float(m / (1.0 + 2.0 * float(np.sum(tail[:stop]))))


@dataclass
class PosteriorSummary:
    """First and second marginal moments of a posterior over the two fields."""

    mean_p: np.ndarray
    mean_m: np.ndarray
    var_p: np.ndarray  # per-node marginal variances
    var_m: np.ndarray

    @property
    def trace_p(self):
        return float(np.sum(self.var_p))

    @property
    def trace_m(self):
        return float(np.sum(self.var_m))

    @property
    def std_p(self):
        return np.sqrt(self.var_p)

    @property
    def std_m(self):
        return np.sqrt(self.var_m)


def summary_from_gaussian(mean, var, n1):
    """Moment summary of a Gaussian from its mean and marginal variances."""
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    return PosteriorSummary(mean[:n1], mean[n1:], var[:n1], var[n1:])


def summary_from_chain(states, n1):
    """Moment summary of stored field samples (rows are retained samples)."""
    states = np.asarray(states, dtype=float)
    mean = states.mean(axis=0)
    var = states.var(axis=0)
    return PosteriorSummary(mean[:n1], mean[n1:], var[:n1], var[n1:])


@dataclass
class MetricsReport:
    """Relative errors E, uncertainty ratios U, pointwise std differences D
    (independent minus joint), plus ESS and acceptance bookkeeping."""

    e_p: float
    e_m: float
    u_p: float
    u_m: float
    d_p: np.ndarray | None = None
    d_m: np.ndarray | None = None
    ess: dict = field(default_factory=dict)
    acceptance: dict = field(default_factory=dict)

    def to_dict(self):
        out = asdict(self)
        out["d_p"] = None if self.d_p is None else list(map(float, self.d_p))
        out["d_m"] = None if self.d_m is None else list(map(float, self.d_m))
        return out


def relative_error(truth, estimate):
    truth = np.asarray(truth, dtype=float)
    norm = float(np.linalg.norm(truth))
    if norm == 0.0:
        raise ValueError("relative error is undefined for a zero-norm truth")
    return float(np.linalg.norm(truth - np.asarray(estimate, dtype=float)) / norm)


def error_metrics(truth_p, truth_m, posterior: PosteriorSummary, prior_trace_p,
                  prior_trace_m, independent: PosteriorSummary | None = None,
                  ess_values=None, acceptance=None):
    """Assemble the comparison metrics for one posterior.

    E is the relative error of the posterior-mean estimate, U the posterior
    to prior trace ratio, and D (when an independent-run summary is given)
    the pointwise posterior standard deviation of the independent run minus
    that of this run.
    """
    d_p = d_m = None
    if independent is not None:
        d_p = independent.std_p - posterior.std_p
        d_m = independent.std_m - posterior.std_m
    return MetricsReport(
        e_p=relative_error(truth_p, posterior.mean_p),
        e_m=relative_error(truth_m, posterior.mean_m),
        u_p=posterior.trace_p / float(prior_trace_p),
        u_m=posterior.trace_m / float(prior_trace_m),
        d_p=d_p,
        d_m=d_m,
        ess=dict(ess_values or {}),
        acceptance=dict(acceptance or {}),
    )


def correlation_histogram(samples, bins=50):
    """Histogram of correlation samples over 50 uniform bins on (-1, 1)."""
    counts, edges = np.histogram(np.asarray(samples, dtype=float), bins=bins,
                                 range=(-1.0, 1.0))
    return counts, edges
