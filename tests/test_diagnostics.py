import json

import numpy as np
import pytest
from scipy.signal import lfilter

from jointprior.diagnostics import (PosteriorSummary,
                                    ZeroVarianceError, autocorrelation,
                                    correlation_histogram, error_metrics, ess,
                                    relative_error, summary_from_chain,
                                    summary_from_gaussian)
from jointprior.io_utils import write_json

from conftest import random_spd


def ar1(rng, phi, m):
    noise = rng.standard_normal(m) * np.sqrt(1.0 - phi * phi)
    return lfilter([1.0], [1.0, -phi], noise)


class TestAutocorrelation:
    def test_lag_zero_is_one(self, rng):
        r = autocorrelation(rng.standard_normal(1000), 10)
        assert r[0] == pytest.approx(1.0, rel=1e-12)

    def test_iid_first_lag_small(self, rng):
        r = autocorrelation(rng.standard_normal(100000), 1)
        assert abs(r[1]) < 0.01

    def test_ar1_matches_theory(self, rng):
        r = autocorrelation(ar1(rng, 0.8, 100000), 3)
        assert r[1] == pytest.approx(0.8, abs=0.02)
        assert r[2] == pytest.approx(0.64, abs=0.03)

    def test_constant_sequence_rejected(self):
        with pytest.raises(ZeroVarianceError):
            autocorrelation(np.ones(100), 5)

    def test_lag_bounds_validated(self):
        with pytest.raises(ValueError):
            autocorrelation(np.arange(10.0), 10)

    def test_matches_direct_quadratic_definition(self, rng):
        x = rng.standard_normal(500)
        xc = x - x.mean()
        direct = np.array([
            np.sum(xc[: 500 - w] * xc[w:]) / 500 for w in range(6)
        ])
        np.testing.assert_allclose(autocorrelation(x, 5), direct / direct[0],
                                   rtol=1e-10)


class TestEss:
    def test_iid_near_full_size(self, rng):
        m = 100000
        assert 0.9 < ess(rng.standard_normal(m)) / m < 1.1

    @pytest.mark.parametrize("phi", [0.5, 0.8, 0.95])
    def test_ar1_analytic_oracle(self, rng, phi):
        m = 100000
        expected = m * (1.0 - phi) / (1.0 + phi)
        assert ess(ar1(rng, phi, m)) == pytest.approx(expected, rel=0.15)

    def test_bounded_by_chain_length(self, rng):
        for phi in (-0.5, 0.0, 0.9):
            x = ar1(rng, phi, 20000)
            value = ess(x)
            assert 0.0 < value <= 20000 * 1.1


class TestMetrics:
    def test_exact_mean_gives_zero_error(self, rng):
        truth = rng.standard_normal(20)
        summary = PosteriorSummary(truth[:10], truth[10:], np.ones(10), np.ones(10))
        report = error_metrics(truth[:10], truth[10:], summary, 10.0, 10.0)
        assert report.e_p == 0.0 and report.e_m == 0.0

    def test_prior_posterior_identity_gives_unit_uncertainty(self, rng):
        cov = random_spd(rng, 8)
        summary = summary_from_gaussian(np.zeros(8), np.diagonal(cov), 4)
        report = error_metrics(np.ones(4), np.ones(4), summary,
                               np.trace(cov[:4, :4]), np.trace(cov[4:, 4:]))
        assert report.u_p == pytest.approx(1.0, rel=1e-12)
        assert report.u_m == pytest.approx(1.0, rel=1e-12)

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            relative_error(np.zeros(3), np.ones(3))

    def test_std_differences_vanish_for_identical_runs(self, rng):
        # two chains drawn from the same posterior: D is Monte Carlo noise
        cov = random_spd(rng, 6)
        cov /= np.abs(cov).max()
        chol = np.linalg.cholesky(cov)
        a = (chol @ rng.standard_normal((6, 100000))).T
        b = (chol @ rng.standard_normal((6, 100000))).T
        sa = summary_from_chain(a, 3)
        sb = summary_from_chain(b, 3)
        report = error_metrics(np.ones(3), np.ones(3), sa, 1.0, 1.0, independent=sb)
        assert np.abs(report.d_p).max() < 0.02
        assert np.abs(report.d_m).max() < 0.02

    def test_chain_uncertainty_converges_to_analytic(self, rng):
        cov = random_spd(rng, 6)
        chol = np.linalg.cholesky(cov)
        draws = (chol @ rng.standard_normal((6, 100000))).T
        summary = summary_from_chain(draws, 3)
        analytic = summary_from_gaussian(np.zeros(6), np.diagonal(cov), 3)
        assert summary.trace_p / analytic.trace_p == pytest.approx(1.0, abs=0.03)
        assert summary.trace_m / analytic.trace_m == pytest.approx(1.0, abs=0.03)

    def test_report_serialises(self, tmp_path):
        summary = PosteriorSummary(np.ones(2), np.ones(2), np.ones(2), np.ones(2))
        report = error_metrics(np.ones(2), np.ones(2), summary, 4.0, 4.0,
                               independent=summary,
                               ess_values={"c": 100.0, "flat": float("nan")},
                               acceptance={"s": 1.0})
        text = write_json(tmp_path / "metrics.json", report.to_dict()).read_text()

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(text, parse_constant=reject)
        assert payload["ess"] == {"c": 100.0, "flat": None}
        assert payload["d_p"] == [0.0, 0.0]
        assert "e_p" in payload


class TestCorrelationHistogram:
    def test_fifty_uniform_bins(self, rng):
        counts, edges = correlation_histogram(rng.uniform(-1, 1, 1000))
        assert counts.sum() == 1000
        assert edges.size == 51
        np.testing.assert_allclose(np.diff(edges), 0.04, rtol=1e-12)
