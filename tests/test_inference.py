from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from jointprior.covariance import fem_precision_filter, PdePriorConfig, whitening_filter
from jointprior.forward_models import (DOMAIN_ERRORS, CokrigeModel, ForwardModelError,
                                       MonodModel)
from jointprior import inference
from jointprior.inference import (TABLE_CELLS, FullJointFamily,
                                  GaussNewtonError, MwgConfig, NoiseModel,
                                  ReducedJointFamily, _Evidence, _EvidenceTable, _LinearGibbs,
                                  gauss_newton_map, gaussian_loglik, independence_block,
                                  linear_gaussian_posterior, linearised_data,
                                  metropolis_update_correlation, mwg_run)
from jointprior.joint_prior import (Contraction, correlation_prior_logdensity,
                                    reduced_joint_covariance)
from jointprior.covariance import kl_truncate
from jointprior.linalg import ContractionError, FactorizationError, cholesky_lower
from jointprior.mesh_fem import build_lattice_mesh

from conftest import random_dense_contraction, random_spd


def scalar_family(c0=0.0):
    fp = whitening_filter(np.array([[1.0]]), "principal_sqrt")
    return FullJointFamily(fp, fp, Contraction.scalar(c0, 1))


def small_linear_problem(rng, n=4, c_true=0.7, delta=0.3):
    gp, gm = random_spd(rng, n), random_spd(rng, n)
    fam = FullJointFamily(
        whitening_filter(gp, "principal_sqrt"),
        whitening_filter(gm, "principal_sqrt"),
        Contraction.scalar(0.0, n),
    )
    if n == 1:
        b1 = b2 = np.eye(1)
        noise = NoiseModel(delta, 1, delta, 1)
    else:
        b1 = np.zeros((2, n))
        b1[0, 0] = b1[1, n - 1] = 1.0
        b2 = np.zeros((2, n))
        b2[0, 1] = b2[1, n - 2] = 1.0
        noise = NoiseModel(delta, 2, delta, 2)
    model = CokrigeModel(b1, b2)
    truth = fam.prior([c_true]).sample(rng.standard_normal(2 * n))
    d = model(truth) + noise.sample(rng)
    return fam, model, noise, d


MC_DRAWS = 200000  # exact posterior draws behind each Monte Carlo check


def monte_carlo_errors(cov, n):
    """Standard errors of the sample mean, sqrt(S_ii / n), and of each sample
    covariance entry, sqrt((S_ii S_jj + S_ij^2) / n), of n independent
    Gaussian draws of covariance S."""
    var = np.diagonal(cov)
    return np.sqrt(var / n), np.sqrt((np.outer(var, var) + cov**2) / n)


class TestNoiseAndLoglik:
    def test_zero_residual(self):
        noise = NoiseModel(0.5, 3, 2.0, 2)
        d = np.arange(5.0)
        assert gaussian_loglik(d, d, noise) == 0.0

    def test_single_unit_residual(self):
        noise = NoiseModel(0.4, 1)
        assert gaussian_loglik(np.array([0.4]), np.array([0.0]), noise) == pytest.approx(-0.5)

    def test_block_model_matches_dense_oracle(self, rng):
        noise = NoiseModel(0.3, 4, 1.7, 3)
        d = rng.standard_normal(7)
        pred = rng.standard_normal(7)
        r = d - pred
        oracle = -0.5 * r @ np.linalg.solve(noise.covariance(), r)
        assert gaussian_loglik(d, pred, noise) == pytest.approx(oracle, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_loglik(np.zeros(3), np.zeros(3), NoiseModel(1.0, 2))

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            NoiseModel(-1.0, 2)


class TestLinearGaussianPosterior:
    def test_scalar_conjugate_arithmetic(self):
        # prior N(0,1), unit observation of 2 with unit noise -> N(1, 1/2)
        mean, cov = linear_gaussian_posterior(
            np.array([[1.0]]), np.array([2.0]), NoiseModel(1.0, 1),
            np.zeros(1), np.eye(1),
        )
        assert mean[0] == pytest.approx(1.0, rel=1e-12)
        assert cov[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_no_data_returns_prior(self, rng):
        prior_cov = random_spd(rng, 4)
        prior_mean = rng.standard_normal(4)
        mean, cov = linear_gaussian_posterior(
            np.zeros((0, 4)), np.zeros(0), NoiseModel(1.0, 0), prior_mean, prior_cov,
        )
        np.testing.assert_allclose(mean, prior_mean, rtol=1e-10)
        np.testing.assert_allclose(cov, prior_cov, rtol=1e-10)

    def test_monte_carlo_cross_check(self, rng):
        gp, gm = random_spd(rng, 4), random_spd(rng, 4)
        fam = FullJointFamily(whitening_filter(gp, "principal_sqrt"),
                              whitening_filter(gm, "cholesky"), Contraction.scalar(0.0, 4),
                              mean_p=rng.standard_normal(4), mean_m=rng.standard_normal(4))
        g = rng.standard_normal((5, 8))
        noise = NoiseModel(0.7, 5)
        d = rng.standard_normal(5)
        mean, cov = linear_gaussian_posterior(g, d, noise, fam.mean,
                                              fam.prior([0.6]).dense_covariance())
        gibbs = _LinearGibbs(g, d, noise, fam)
        draws = gibbs.draw(rng, np.full((MC_DRAWS, 1), 0.6))
        mean_se, cov_se = monte_carlo_errors(cov, MC_DRAWS)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * mean_se)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) < 4 * cov_se)


class TestGibbsUpdate:
    def test_zero_noise_concentrates_on_exact_solution(self, rng):
        n = 4
        flt = whitening_filter(np.eye(n // 2), "principal_sqrt")
        fam = FullJointFamily(flt, flt, Contraction.scalar(0.0, n // 2))
        g = random_spd(rng, n) + np.eye(n)  # invertible square model
        truth = rng.standard_normal(n)
        gibbs = _LinearGibbs(g, g @ truth, NoiseModel(1e-6, n), fam)
        draws = np.array([gibbs.draw(rng, [0.0]) for _ in range(50)])
        assert np.linalg.norm(draws - truth, axis=1).max() < 1e-3

    def test_uncorrelated_prior_decouples_blocks(self, rng):
        fam, model, noise, d = small_linear_problem(rng, n=3, c_true=0.0)
        _, cov = linear_gaussian_posterior(model.matrix, d, noise, fam.mean,
                                           fam.prior([0.0]).dense_covariance())
        np.testing.assert_allclose(cov[:3, 3:], 0.0, atol=1e-12)
        gibbs = _LinearGibbs(model.matrix, d, noise, fam)
        draws = gibbs.draw(rng, np.zeros((MC_DRAWS, 1)))
        _, cov_se = monte_carlo_errors(cov, MC_DRAWS)
        assert np.all(np.abs(np.cov(draws, rowvar=False)[:3, 3:]) < 4 * cov_se[:3, 3:])

    def test_mean_matches_analytic(self, rng):
        fam, model, noise, d = small_linear_problem(rng)
        cov = fam.prior([0.4]).dense_covariance()
        g = model.matrix
        mean, _ = linear_gaussian_posterior(g, d, noise, fam.mean, cov)
        gibbs = _LinearGibbs(g, d, noise, fam)
        draws = gibbs.draw(rng, np.full((100000, 1), 0.4))
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.01)


class Scripted:
    """Stands in for a Generator: each standard_normal(size) call serves the
    next ``size`` entries of a fixed vector."""

    def __init__(self, z):
        self.z = z
        self.pos = 0

    def standard_normal(self, size):
        out = self.z[self.pos : self.pos + size]
        self.pos += size
        return out


def implied_moments(gibbs, values):
    """Mean and covariance of a pathwise draw (Gibbs or block-move proposal),
    read off its affine dependence on the dim + q standard normals it consumes."""
    m = gibbs.family.dim + gibbs.noise.q
    mean = gibbs.draw(Scripted(np.zeros(m)), values)
    cols = np.column_stack([gibbs.draw(Scripted(e), values) - mean for e in np.eye(m)])
    return mean, cols @ cols.T


def variant_family(variant, rng, kind="principal_sqrt", mean=True):
    n1, n2 = 6, (6 if variant in ("scalar", "piecewise") else 4)
    contraction = {
        "scalar": lambda: Contraction.scalar(0.0, n1),
        "piecewise": lambda: Contraction.piecewise([0, 1, 2, 0, 1, 2], [0.0, 0.0, 0.0]),
        "paired_sparse": lambda: Contraction.paired_sparse([0, 3, 5], [2, 0, 3],
                                                           [0.0, 0.0, 0.0], (n1, n2)),
        "dense": lambda: Contraction.dense(random_dense_contraction(rng, n1, n2)),
    }[variant]()
    return FullJointFamily(
        whitening_filter(random_spd(rng, n1), kind),
        whitening_filter(random_spd(rng, n2), kind), contraction,
        rng.standard_normal(n1) if mean else None,
        rng.standard_normal(n2) if mean else None,
    )


class TestPathwiseGibbs:
    @pytest.mark.parametrize("variant", ["scalar", "piecewise", "paired_sparse"])
    def test_columns_match_dense_covariance(self, rng, variant):
        fam = variant_family(variant, rng, kind="cholesky")
        g = rng.standard_normal((5, fam.dim))
        gibbs = _LinearGibbs(g, np.zeros(5), NoiseModel(0.5, 5), fam)
        for _ in range(3):
            values = rng.uniform(-0.95, 0.95, fam.n_free)
            ref = fam.prior(values).dense_covariance() @ g.T
            gap = np.abs(gibbs.columns(values) - ref).max()
            assert gap <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("variant", ["scalar", "piecewise", "paired_sparse", "dense"])
    def test_implied_moments_match_analytic_posterior(self, rng, variant):
        fam = variant_family(variant, rng)
        g = rng.standard_normal((5, fam.dim))
        noise = NoiseModel(0.3, 2, 0.6, 3)
        d = rng.standard_normal(5)
        gibbs = _LinearGibbs(g, d, noise, fam)
        values = rng.uniform(-0.9, 0.9, fam.n_free)
        mean, cov = implied_moments(gibbs, values)
        ref_mean, ref_cov = linear_gaussian_posterior(
            g, d, noise, fam.mean, fam.prior(values).dense_covariance())
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(cov, ref_cov, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("kind", ["cholesky", "principal_sqrt"])
    @pytest.mark.parametrize("variant", ["scalar", "piecewise", "paired_sparse", "dense"])
    def test_moments_match_analytic_posterior(self, rng, variant, kind):
        fam = variant_family(variant, rng, kind=kind)
        g = rng.standard_normal((5, fam.dim))
        noise = NoiseModel(0.3, 2, 0.6, 3)
        d = rng.standard_normal(5)
        values = rng.uniform(-0.9, 0.9, fam.n_free)
        mean, w = _LinearGibbs(g, d, noise, fam).moments(values)
        prior_cov = fam.prior(values).dense_covariance()
        ref_mean, ref_cov = linear_gaussian_posterior(g, d, noise, fam.mean, prior_cov)
        var = np.concatenate([np.diagonal(fam.filter_p.covariance()),
                              np.diagonal(fam.filter_m.covariance())]) - np.sum(w * w, axis=0)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(prior_cov - w.T @ w, ref_cov, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(var, np.diagonal(ref_cov), rtol=1e-9, atol=1e-10)

    def test_desk_moments_match_covariance_form(self):
        # Gamma - Gamma G^T K^{-1} G Gamma, formed densely, inverts only the
        # q x q matrix K; the precision form below inverts Gamma itself
        from jointprior.experiments.cokrige import build_problem
        from jointprior.experiments.configs import CokrigeConfig, load_config

        problem = build_problem(load_config(CokrigeConfig, None, {}))
        fam, g = problem["family"], problem["model"].matrix
        d, noise = problem["d"], problem["noise"]
        gibbs = _LinearGibbs(g, d, noise, fam)
        prior_var = np.concatenate([np.diagonal(fam.filter_p.covariance()),
                                    np.diagonal(fam.filter_m.covariance())])
        for c in (-0.9, 0.0, 0.9):
            gamma = fam.prior([c]).dense_covariance()
            b = gamma @ g.T
            k = g @ b + noise.covariance()
            ref_mean = fam.mean + b @ np.linalg.solve(k, d - g @ fam.mean)
            ref_cov = gamma - b @ np.linalg.solve(k, b.T)
            mean, w = gibbs.moments([c])
            scale = np.abs(ref_cov).max()
            assert np.abs(mean - ref_mean).max() < 1e-10 * np.abs(ref_mean).max()
            assert np.abs(gamma - w.T @ w - ref_cov).max() < 1e-10 * scale
            var = prior_var - np.sum(w * w, axis=0)
            assert np.abs(var - np.diagonal(ref_cov)).max() < 1e-10 * scale

    def test_desk_problem_matches_oracle(self):
        # the dense oracle inverts the nugget-1e-8 squared-exponential
        # covariance and is itself only good to about 1e-7 here
        from jointprior.experiments.cokrige import build_problem
        from jointprior.experiments.configs import CokrigeConfig, load_config

        problem = build_problem(load_config(CokrigeConfig, None, {}))
        fam, g = problem["family"], problem["model"].matrix
        gibbs = _LinearGibbs(g, problem["d"], problem["noise"], fam)
        mean, cov = implied_moments(gibbs, [-0.9])
        ref_mean, ref_cov = linear_gaussian_posterior(
            g, problem["d"], problem["noise"], fam.mean,
            fam.prior([-0.9]).dense_covariance())
        assert np.abs(mean - ref_mean).max() < 1e-6 * np.abs(ref_mean).max()
        assert np.abs(cov - ref_cov).max() < 1e-6 * np.abs(ref_cov).max()

    def test_no_data_draw_is_prior_draw(self):
        mesh = build_lattice_mesh(4, 3, 1.0, 1.0)
        flt = fem_precision_filter(mesh, PdePriorConfig(1.0, 20.0, 5.0))
        fam = FullJointFamily(flt, flt, Contraction.scalar(0.0, mesh.n_nodes))
        gibbs = _LinearGibbs(np.zeros((0, fam.dim)), np.zeros(0),
                             NoiseModel(1.0, 0, 1.0, 0), fam)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        for c in (0.3, 0.3, -0.8):
            draw = gibbs.draw(rng_a, [c])
            prior_draw = fam.prior([c]).sample(rng_b.standard_normal(fam.dim))
            np.testing.assert_array_equal(draw, prior_draw)
            assert gibbs.log_evidence([c]) == 0.0

    @pytest.mark.parametrize("variant", ["scalar", "piecewise", "paired_sparse", "dense"])
    def test_stacked_prior_draw_is_each_rows_prior_draw(self, rng, variant):
        # bitwise, at repeated and distinct c, against each row's prior
        # colouring the same noise (a filter solve of one column can round
        # otherwise than one of many); the paired_sparse contraction leaves
        # column 1 of the m field unpaired
        fam = variant_family(variant, rng)
        n = fam.n_free
        stack = np.array([np.resize(v, n) for v in ([0.3, -0.5, 0.1], [0.3, -0.5, 0.1],
                                                    [-0.8, 0.2, 0.6], [0.0], [0.3, -0.5, 0.1])])
        draws = fam.draw(np.random.default_rng(3), stack)
        eta = np.random.default_rng(3).standard_normal((len(stack), fam.dim)).T
        for j, values in enumerate(stack):
            np.testing.assert_array_equal(draws[j], fam.prior(values).sample(eta)[:, j])
        np.testing.assert_array_equal(fam.draw(np.random.default_rng(3), stack[0]),
                                      fam.prior(stack[0]).sample(eta[:, :1])[:, 0])
        if n:  # a row outside the box
            stack[2, -1] = 1.0
            with pytest.raises(ContractionError):
                fam.draw(rng, stack)

    def test_key_changes_only_on_new_correlation(self, rng):
        fam, model, noise, d = small_linear_problem(rng)
        gibbs = _LinearGibbs(model.matrix, d, noise, fam)
        keys = []
        for c in (0.2, 0.2, -0.5, -0.5, -0.5, 0.2):
            gibbs.draw(rng, [c])
            keys.append(gibbs._key)
        changed = [a != b for a, b in zip(keys, keys[1:])]
        assert changed == [False, True, False, False, True]

    def test_dense_contraction_chain_matches_analytic(self, rng):
        fam = variant_family("dense", rng, mean=True)
        g = rng.standard_normal((4, fam.dim))
        noise = NoiseModel(0.5, 4)
        d = rng.standard_normal(4)

        class Linear:
            is_linear = True
            matrix = g

        chain = mwg_run(Linear(), fam, noise, d,
                        MwgConfig(total_samples=40000, burn_in=100, seed=2))
        mean, cov = linear_gaussian_posterior(
            g, d, noise, fam.mean, fam.prior().dense_covariance())
        np.testing.assert_allclose(chain.states.mean(axis=0), mean, atol=0.02)
        assert np.abs(np.cov(chain.states, rowvar=False) - cov).max() < 0.03
        assert chain.corr.shape == (chain.retained, 0)


class TestCorrelationUpdate:
    def test_zero_step_always_accepted(self, rng):
        fam = scalar_family()
        x = np.array([0.3, -0.2])
        gamma = np.array([0.5])
        pd = fam.log_density(x, np.tanh(gamma))
        cp = correlation_prior_logdensity(gamma)
        for _ in range(10):
            gamma2, _, _, accepted = metropolis_update_correlation(
                rng, gamma, pd, cp, partial(fam.log_density, x), step_std=0.0)
            assert accepted
            np.testing.assert_array_equal(gamma2, gamma)

    def test_prior_only_marginal_is_uniform(self, rng):
        # no data: the chain targets the joint prior, whose correlation
        # marginal is uniform on (-1, 1) by construction
        fam = scalar_family()
        model = CokrigeModel(np.zeros((0, 1)), np.zeros((0, 1)))
        noise = NoiseModel(1.0, 0, 1.0, 0)
        cfg = MwgConfig(total_samples=20000, burn_in=500, seed=5)
        chain = mwg_run(model, fam, noise, np.zeros(0), cfg)
        ks = stats.kstest(chain.corr[:, 0], stats.uniform(loc=-1, scale=2).cdf)
        assert ks.statistic < 0.03


class TestLoudFailures:
    """A programming error inside a target propagates; a failure that makes
    a proposal impossible (here a forward model's flagged row) is a counted
    rejection.  The model is s -> s_0 on a scalar family, linearised
    exactly at 0."""

    @staticmethod
    def shape_bug(x):
        raise ValueError("operands could not be broadcast together")

    @staticmethod
    def run(model, c_steps):
        reference = SimpleNamespace(point=np.zeros(2), jacobian=model.g, forward=np.zeros(1))
        cfg = MwgConfig(total_samples=30, burn_in=5, c_steps_per_s_step=c_steps, seed=1)
        return mwg_run(model, scalar_family(), NoiseModel(1.0, 1), np.zeros(1), cfg,
                       init_state=np.zeros(2), reference=reference)

    def shape_bug_after_start(self):
        """The map, whose stacked evaluation (every one after the start)
        has a programming error."""
        class ShapeBugAfterStart(FlaggedLinear):
            predict_rows = staticmethod(self.shape_bug)

        return ShapeBugAfterStart(np.array([[1.0, 0.0]]))

    def test_value_error_propagates_from_field_step(self):
        with pytest.raises(ValueError, match="broadcast"):
            self.run(self.shape_bug_after_start(), 1)

    def test_value_error_propagates_from_correlation_step(self, rng):
        with pytest.raises(ValueError, match="broadcast"):
            metropolis_update_correlation(rng, np.zeros(1), 0.0, 0.0, self.shape_bug, 1.0)

    def test_value_error_propagates_from_chain(self):
        # from a block of independence moves
        with pytest.raises(ValueError, match="broadcast"):
            self.run(self.shape_bug_after_start(), 0)

    def test_forward_model_error_is_counted_rejection(self):
        class FlagsAll(FlaggedLinear):
            def predict_rows(self, s):
                return np.full((len(s), 1), np.nan), np.zeros(len(s), dtype=bool)

        chain = self.run(FlagsAll(np.array([[1.0, 0.0]])), 1)
        assert chain.s_steps == 30 and chain.s_accepted == 0
        assert chain.gamma_steps == 30 and chain.gamma_accepted > 0
        assert np.all(chain.states == 0.0)


def desk_cokrige_run():
    """The exact Gibbs kernel of the desk cokrige problem, and a 5000/500
    chain at the study's own settings (chain seed 3)."""
    from jointprior.experiments.cokrige import build_problem
    from jointprior.experiments.configs import CokrigeConfig, load_config, mwg_config

    cfg = load_config(CokrigeConfig, None, {"samples": 5000, "burn_in": 500})
    problem = build_problem(cfg)
    model, fam, noise, d = (problem[k] for k in ("model", "family", "noise", "d"))
    return (_LinearGibbs(model.matrix, d, noise, fam),
            mwg_run(model, fam, noise, d, mwg_config(cfg, seed=3)))


@pytest.fixture(scope="module")
def desk_cokrige():
    return desk_cokrige_run()


def assert_desk_chain_matches_quadrature(gibbs, chain):
    """Independence steps at the study's own settings against a 4001-point
    quadrature of the evidence under the uniform prior on c (KS < 0.05)."""
    cs = np.linspace(-1.0, 1.0, 4003)[1:-1]
    logev = np.array([gibbs.log_evidence([c]) for c in cs])
    post = np.exp(logev - logev.max())
    cdf = np.concatenate([[0.0], np.cumsum((post[1:] + post[:-1]) / 2 * np.diff(cs))])
    cdf /= cdf[-1]
    samples = np.sort(chain.corr[:, 0])
    quantiles = np.interp(samples, cs, cdf)
    ks = np.abs(quantiles - np.arange(1, samples.size + 1) / samples.size).max()
    assert ks < 0.05


def assert_desk_fields_match_mixture(gibbs, chain):
    """The exact field posterior is a mixture over c of the fixed-c
    Gaussians, weighted by exp(log Z(c)) under the uniform prior: on 2001
    values of c, mean = sum w mu(c) and variance = sum w (v(c) + mu(c)^2) -
    mean^2, from _LinearGibbs.moments."""
    fam = gibbs.family
    cs = np.linspace(-1.0, 1.0, 2003)[1:-1]
    logev = np.array([gibbs.log_evidence([c]) for c in cs])
    weights = np.exp(logev - logev.max())
    weights /= weights.sum()
    prior_var = np.concatenate([np.diagonal(fam.filter_p.covariance()),
                                np.diagonal(fam.filter_m.covariance())])
    mean, second = np.zeros(fam.dim), np.zeros(fam.dim)
    for c, w in zip(cs, weights):
        if w < 1e-12 * weights.max():  # below rounding in the sums
            continue
        mean_c, whitened = gibbs.moments([c])
        mean += w * mean_c
        second += w * (prior_var - np.einsum("ij,ij->j", whitened, whitened) + mean_c**2)
    var = second - mean**2
    # field draws are near independent (ESS 1.0 per draw at chain seeds
    # 1-3), so the 676 standardised mean gaps are near N(0, 1) (largest
    # 3.0-3.8 over those seeds) and the relative variance gaps near
    # N(0, 2 / n) (largest 0.07-0.08); leaving log g out of the
    # independence weight reads about 10 and 0.23
    n = chain.retained
    z = (chain.states.mean(axis=0) - mean) / np.sqrt(var / n)
    assert np.abs(z).max() < 4.5
    assert np.abs(chain.states.var(axis=0, ddof=1) / var - 1.0).max() < 0.15


class TestMwgRun:
    def test_fixed_correlation_matches_analytic(self, rng):
        fam, model, noise, d = small_linear_problem(rng, n=3)
        cfg = MwgConfig(total_samples=60000, burn_in=500, seed=9)
        chain = mwg_run(model, fam, noise, d, cfg,
                        sample_correlation=False, init_gamma=[np.arctanh(0.6)])
        mean, cov = linear_gaussian_posterior(
            model.matrix, d, noise, fam.mean, fam.prior([0.6]).dense_covariance())
        np.testing.assert_allclose(chain.states.mean(axis=0), mean, atol=0.02)
        emp = np.cov(chain.states, rowvar=False)
        assert np.abs(emp - cov).max() < 0.02
        assert chain.s_acceptance == 1.0 and chain.s_steps == chain.retained  # Gibbs draws
        # held c is its own proposal, so every independence move is accepted
        assert chain.block_steps == chain.block_accepted == 60000

    @pytest.mark.slow
    def test_correlation_marginal_matches_quadrature_oracle(self, rng):
        # linear model with unknown scalar correlation: the exact marginal
        # posterior of c follows from the per-c Gaussian evidence
        fam, model, noise, d = small_linear_problem(rng, n=3, c_true=0.7)
        g = model.matrix
        cs = np.linspace(-0.995, 0.995, 399)
        logev = np.empty(cs.size)
        r0 = d - g @ fam.mean
        for i, c in enumerate(cs):
            cov = fam.prior([c]).dense_covariance()
            s_mat = g @ cov @ g.T + noise.covariance()
            cf = cho_factor(s_mat, lower=True)
            logev[i] = -0.5 * (r0 @ cho_solve(cf, r0)
                               + 2 * np.sum(np.log(np.diagonal(cf[0]))))
        post = np.exp(logev - logev.max())
        post /= np.trapezoid(post, cs)
        cdf = np.concatenate([[0.0], np.cumsum((post[1:] + post[:-1]) / 2 * np.diff(cs))])

        cfg = MwgConfig(total_samples=80000, burn_in=2000, seed=11)
        chain = mwg_run(model, fam, noise, d, cfg)
        samples = np.sort(chain.corr[:, 0])
        quantiles = np.interp(samples, cs, cdf)
        ks = np.abs(quantiles - np.arange(1, samples.size + 1) / samples.size).max()
        assert ks < 0.02

    def test_desk_cokrige_chain_matches_quadrature(self, desk_cokrige):
        assert_desk_chain_matches_quadrature(*desk_cokrige)

    def test_desk_cokrige_fields_match_mixture_oracle(self, desk_cokrige):
        assert_desk_fields_match_mixture(*desk_cokrige)

    @pytest.mark.slow
    def test_desk_cokrige_at_block_length_one_matches_oracles(self, monkeypatch):
        # one move per block reads the random stream in another order; the
        # law of the chain, and so both oracles, must not change
        monkeypatch.setattr(inference, "BLOCK_LENGTH", 1)
        gibbs, chain = desk_cokrige_run()
        assert chain.s_steps == chain.retained
        assert_desk_chain_matches_quadrature(gibbs, chain)
        assert_desk_fields_match_mixture(gibbs, chain)

    def test_block_length_changes_the_stream_not_the_bookkeeping(self, rng, monkeypatch):
        fam, model, noise, d = small_linear_problem(rng)
        cfg = MwgConfig(total_samples=500, burn_in=50, seed=3)
        default = mwg_run(model, fam, noise, d, cfg)
        monkeypatch.setattr(inference, "BLOCK_LENGTH", 1)
        single = mwg_run(model, fam, noise, d, cfg)
        for chain in (default, single):
            assert chain.block_steps == 500 and chain.s_steps == chain.s_accepted == 450
            assert chain.states.shape == (450, fam.dim) and np.all(np.isfinite(chain.states))
            assert 0.5 < chain.acceptance_rates()["block"] <= 1.0
        assert not np.array_equal(default.corr, single.corr)

    def test_reproducible_bit_identical(self, rng):
        fam, model, noise, d = small_linear_problem(rng)
        cfg = MwgConfig(total_samples=500, burn_in=50, seed=3)
        a = mwg_run(model, fam, noise, d, cfg)
        b = mwg_run(model, fam, noise, d, cfg)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.corr, b.corr)
        assert a.gamma_accepted == b.gamma_accepted

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            MwgConfig(total_samples=100, burn_in=100)

    def test_non_finite_initial_state_rejected(self, rng):
        fam = scalar_family()
        model = MonodModel(np.array([28.0, 55.0]))
        noise = NoiseModel(0.1, 2)
        point = np.array([0.5, 40.0])
        reference = SimpleNamespace(point=point, jacobian=model.jacobian(point),
                                    forward=model(point))
        for c_steps in (0, 1):
            cfg = MwgConfig(total_samples=10, burn_in=1, c_steps_per_s_step=c_steps)
            with pytest.raises(ForwardModelError, match="half-velocity"):
                mwg_run(model, fam, noise, np.zeros(2), cfg,
                        init_state=np.array([0.5, -28.0]), reference=reference)

    def test_adaptive_path_detailed_balance(self, rng):
        # chi-squared goodness of fit of the Mahalanobis radius against its
        # exact distribution, for a 2-dim linear-Gaussian target at fixed c
        fam, model, noise, d = small_linear_problem(rng, n=1, delta=0.5)
        cfg = MwgConfig(total_samples=60000, burn_in=2000, seed=21)
        chain = mwg_run(model, fam, noise, d, cfg,
                        sample_correlation=False, init_gamma=[np.arctanh(0.3)])
        mean, cov = linear_gaussian_posterior(
            model.matrix, d, noise, fam.mean, fam.prior([0.3]).dense_covariance())
        resid = chain.states - mean
        radius = np.einsum("ij,jk,ik->i", resid, np.linalg.inv(cov), resid)
        u = stats.chi2(df=2).cdf(radius)
        counts, _ = np.histogram(u, bins=100, range=(0.0, 1.0))
        assert stats.chisquare(counts).pvalue > 0.001

    def test_posterior_factorisation_identity(self, rng):
        # the sampled target equals likelihood + joint prior density +
        # correlation-coordinate prior, up to a state-independent constant
        fam, model, noise, d = small_linear_problem(rng, n=3)
        g = model.matrix

        def target_parts(s, gamma):
            values = np.tanh(gamma)
            return (gaussian_loglik(d, g @ s, noise)
                    + fam.log_density(s, values)
                    + correlation_prior_logdensity(gamma))

        def oracle(s, gamma):
            values = np.tanh(gamma)
            prior = fam.prior(values)
            cov = prior.dense_covariance()
            r = s - fam.mean
            rd = d - g @ s
            return (-0.5 * rd @ np.linalg.solve(noise.covariance(), rd)
                    - 0.5 * (r @ np.linalg.solve(cov, r) + np.linalg.slogdet(cov)[1])
                    + correlation_prior_logdensity(gamma))

        states = [(rng.standard_normal(6), rng.normal(size=1)) for _ in range(4)]
        ours = [target_parts(s, gmm) for s, gmm in states]
        ref = [oracle(s, gmm) for s, gmm in states]
        gaps = np.diff(np.array(ours) - np.array(ref))
        assert np.abs(gaps).max() < 1e-8


def zero_contraction(variant, rng, labels, n2):
    """A contraction of each constructor on len(labels) p-indices and n2
    m-indices (scalar and piecewise ones are square), with its free
    coordinates at zero."""
    n1 = len(labels)
    if variant == "scalar":
        return Contraction.scalar(0.0, n1)
    if variant == "piecewise":
        return Contraction.piecewise(labels, np.zeros(max(labels) + 1))
    if variant == "paired_sparse":
        return Contraction.paired_sparse([0, 3, n1 - 1], [n2 - 1, 0, 2], np.zeros(3),
                                         (n1, n2))
    return Contraction.dense(random_dense_contraction(rng, n1, n2))


CONSTRUCTORS = ["scalar", "piecewise", "paired_sparse", "dense"]


class TestReducedFamily:
    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    def test_log_density_matches_dense_covariance(self, rng, variant):
        labels = [0, 0, 1, 1, 0, 1, 0]
        n2 = 7 if variant in ("scalar", "piecewise") else 5
        gp, gm = random_spd(rng, 7), random_spd(rng, n2)
        bp, bm = kl_truncate(gp, 4), kl_truncate(gm, 3)
        fam = ReducedJointFamily(bp, bm, zero_contraction(variant, rng, labels, n2))
        sh = rng.standard_normal(7)
        n = fam.n_free
        for values in (np.resize([0.4, -0.7], n), np.zeros(n), np.full(n, 0.95)):
            cov = reduced_joint_covariance(bp, bm, fam.contraction.with_values(values))
            oracle = -0.5 * (sh @ np.linalg.solve(cov, sh) + np.linalg.slogdet(cov)[1])
            ours = fam.log_density(sh, np.asarray(values))
            assert ours == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    def test_cross_block_matches_direct_projection(self, rng, variant):
        labels = [0, 1, 0, 1, 0, 1]
        n2 = 6 if variant in ("scalar", "piecewise") else 5
        gp, gm = random_spd(rng, 6), random_spd(rng, n2)
        bp, bm = kl_truncate(gp, 3), kl_truncate(gm, 4)
        fam = ReducedJointFamily(bp, bm, zero_contraction(variant, rng, labels, n2))
        values = np.resize([0.5, -0.3], fam.n_free)
        direct = bp.modes.T @ fam.contraction.with_values(values).as_matrix() @ bm.modes
        np.testing.assert_allclose(fam.cross_block(values), direct, atol=1e-12)

    def test_dense_contraction_chain_with_nonlinear_model(self, rng):
        bp, bm = kl_truncate(random_spd(rng, 6), 3), kl_truncate(random_spd(rng, 5), 2)
        fam = ReducedJointFamily(bp, bm, Contraction.dense(random_dense_contraction(rng, 6, 5)))
        noise = NoiseModel(0.5, 2)
        model = TanhMap(rng.standard_normal((2, 5)))
        chain = mwg_run(model, fam, noise, np.array([0.3, -0.2]),
                        MwgConfig(total_samples=60, burn_in=20, c_steps_per_s_step=1, seed=3),
                        init_state=np.zeros(fam.dim), reference=model.reference)
        assert chain.s_steps == 60 and chain.block_steps == 0  # pCN field steps
        assert chain.states.shape == (40, 5) and chain.corr.shape == (40, 0)
        assert chain.s_accepted > 0 and chain.gamma_steps == 0

    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    def test_log_density_with_smaller_p_block_matches_dense_covariance(self, rng, variant):
        # k_p < k_m, the shape of the darcy study: the density conditions p on m
        labels = [0, 0, 1, 1, 0, 1, 0]
        n2 = 7 if variant in ("scalar", "piecewise") else 6
        bp, bm = kl_truncate(random_spd(rng, 7), 2), kl_truncate(random_spd(rng, n2), 5)
        fam = ReducedJointFamily(bp, bm, zero_contraction(variant, rng, labels, n2))
        sh = rng.standard_normal(fam.dim)
        n = fam.n_free
        for values in (np.resize([0.4, -0.7], n), np.zeros(n), np.full(n, 0.95)):
            ours = fam.log_density(sh, values)
            assert ours == pytest.approx(reduced_oracle(fam, sh, values), rel=1e-9, abs=1e-9)

    def test_chain_matches_m_side_formula(self, rng):
        # the m-side formula (p ~ N(0, I), m | p ~ N(C^T p, I - C^T C))
        # factors the larger Gram complement; the chain must not notice
        bp, bm = kl_truncate(random_spd(rng, 7), 3), kl_truncate(random_spd(rng, 7), 5)
        contraction = Contraction.piecewise([0, 0, 1, 1, 0, 1, 0], [0.0, 0.0])
        model = TanhMap(rng.standard_normal((4, 8)) / np.sqrt(8))
        noise = NoiseModel(0.2, 4)
        d = model(rng.standard_normal(8)) + noise.sample(rng)
        cfg = MwgConfig(total_samples=300, burn_in=100, c_steps_per_s_step=5, seed=4)
        chains = [mwg_run(model, cls(bp, bm, contraction), noise, d, cfg,
                          init_state=np.zeros(8), reference=model.reference)
                  for cls in (ReducedJointFamily, MSideReducedFamily)]
        ours, oracle = chains
        assert ours.s_accepted == oracle.s_accepted > 0
        assert ours.gamma_accepted == oracle.gamma_accepted > 0
        np.testing.assert_allclose(ours.states, oracle.states, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(ours.corr, oracle.corr, rtol=1e-10, atol=1e-10)


class TanhMap:
    """s -> tanh(A s) on a state or on rows of states, with its exact
    linearisation at 0 as ``reference``."""

    is_linear = False

    def __init__(self, a):
        self.a = a
        self.reference = SimpleNamespace(point=np.zeros(a.shape[1]), jacobian=a,
                                         forward=np.zeros(len(a)))

    def __call__(self, s):
        return np.tanh(s @ self.a.T)

    def predict_rows(self, s):
        return self(s), np.ones(len(s), dtype=bool)


def reduced_oracle(fam, sh, values):
    cov = reduced_joint_covariance(fam.basis_p, fam.basis_m,
                                   fam.contraction.with_values(values))
    return -0.5 * (sh @ np.linalg.solve(cov, sh) + np.linalg.slogdet(cov)[1])


class MSideReducedFamily(ReducedJointFamily):
    def log_density(self, shat, values):
        chat = self.cross_block(values)
        phat, mhat = shat[: self.basis_p.k], shat[self.basis_p.k :]
        r = cholesky_lower(np.eye(self.basis_m.k) - chat.T @ chat)
        resid = solve_triangular(r, mhat - chat.T @ phat, lower=True)
        logdet = 2.0 * np.sum(np.log(np.diagonal(r)))
        return -0.5 * (phat @ phat + resid @ resid + logdet)


def density_case(kind, rng):
    """A family with free correlation coordinates and its density oracle."""
    contraction = Contraction.piecewise([0, 1, 0, 1, 0, 1], [0.0, 0.0])
    if kind == "full":
        fam = FullJointFamily(whitening_filter(random_spd(rng, 6), "cholesky"),
                              whitening_filter(random_spd(rng, 6), "cholesky"),
                              contraction, rng.standard_normal(6), rng.standard_normal(6))
        return fam, lambda s, values: fam.prior(values).log_density(s)
    bp, bm = kl_truncate(random_spd(rng, 6), 2), kl_truncate(random_spd(rng, 6), 4)
    fam = ReducedJointFamily(bp, bm, contraction)
    return fam, lambda s, values: reduced_oracle(fam, s, values)


class TestFamilyStateCache:
    """Both families keep the terms of the last field state they saw."""

    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    def test_full_density_equals_prior_density(self, rng, variant):
        fam = variant_family(variant, rng)
        s = rng.standard_normal(fam.dim)
        n = fam.n_free
        for values in (np.resize([0.4, -0.7, 0.2], n), np.zeros(n), np.full(n, -0.95)):
            assert fam.log_density(s, values) == pytest.approx(
                fam.prior(values).log_density(s), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", ["full", "reduced"])
    def test_alternating_states_are_never_stale(self, rng, kind):
        fam, oracle = density_case(kind, rng)
        s1, s2 = rng.standard_normal((2, fam.dim))
        v1, v2 = np.array([0.3, -0.6]), np.array([-0.8, 0.1])
        for _ in range(3):
            for s in (s1, s2):
                for v in (v1, v2):
                    assert fam.log_density(s, v) == pytest.approx(oracle(s, v), rel=1e-9)

    @pytest.mark.parametrize("kind", ["full", "reduced"])
    def test_state_changed_in_place_is_a_new_state(self, rng, kind):
        fam, oracle = density_case(kind, rng)
        s1, s2 = rng.standard_normal((2, fam.dim))
        v = np.array([0.5, -0.4])
        s = s1.copy()
        fam.log_density(s, v)
        s[:] = s2
        assert fam.log_density(s, v) == pytest.approx(oracle(s2, v), rel=1e-9)
        s[0] += 1.0
        assert fam.log_density(s, v) == pytest.approx(oracle(s.copy(), v), rel=1e-9)
        # an equal copy of an earlier state, after that state changed in place
        kept = s.copy()
        s[:] = s1
        assert fam.log_density(kept, v) == pytest.approx(oracle(kept, v), rel=1e-9)

    @pytest.mark.parametrize("kind", ["full", "reduced"])
    def test_non_finite_state_raises_from_correlation_step(self, rng, kind):
        fam, _ = density_case(kind, rng)
        gamma = np.zeros(fam.n_free)
        for bad in (np.nan, np.inf):
            x = np.zeros(fam.dim)
            x[1] = bad
            with pytest.raises(ValueError, match="non-finite") as info:
                metropolis_update_correlation(rng, gamma, 0.0, 0.0,
                                              partial(fam.log_density, x), 1.0)
            assert not isinstance(info.value, DOMAIN_ERRORS)

    @pytest.mark.parametrize("kind", ["full", "reduced"])
    def test_invalid_correlation_values_raise_contraction_error(self, rng, kind):
        fam, _ = density_case(kind, rng)
        s = rng.standard_normal(fam.dim)
        for bad in (np.nan, np.inf, -1.0, 1.0):
            with pytest.raises(ContractionError):
                fam.log_density(s, np.array([0.2, bad]))


class TestGaussNewton:
    def test_linear_model_single_step(self, rng):
        fam, model, noise, d = small_linear_problem(rng)
        prior_cov = fam.prior([0.0]).dense_covariance()
        mean, cov = linear_gaussian_posterior(model.matrix, d, noise, fam.mean, prior_cov)
        prior_prec = np.linalg.inv(prior_cov)
        result = gauss_newton_map(model, d, noise, fam.mean, prior_prec)
        assert result.iterations == 1
        np.testing.assert_allclose(result.point, mean, atol=1e-8)
        jac = result.jacobian
        hessian = (jac.T / noise.var_vector) @ jac + prior_prec
        np.testing.assert_allclose(np.linalg.inv(hessian), cov, atol=1e-6)
        assert result.converged

    def test_monod_map_inside_laplace_ellipse(self):
        rng = np.random.default_rng(0)
        model = MonodModel(np.array([28.0, 55.0, 83.0, 110.0, 138.0, 225.0, 375.0]))
        truth = np.array([0.7, 65.0])
        noise = NoiseModel(0.03, 7)
        d = model(truth) + noise.sample(rng)
        prior_mean = np.array([0.4, 40.0])
        prior_prec = np.diag([1.0 / 0.01, 1.0 / 100.0])
        result = gauss_newton_map(model, d, noise, prior_mean, prior_prec)
        assert result.converged
        # the Laplace covariance is the inverse of the Gauss-Newton Hessian
        jac = result.jacobian
        hessian = (jac.T / noise.var_vector) @ jac + prior_prec
        delta = truth - result.point
        r2 = delta @ hessian @ delta
        assert r2 < stats.chi2(df=2).ppf(0.99)

    def test_objective_monotone_decrease(self):
        rng = np.random.default_rng(1)
        model = MonodModel(np.array([28.0, 55.0, 83.0]))
        d = model(np.array([0.9, 80.0])) + 0.05 * rng.standard_normal(3)
        result = gauss_newton_map(model, d, NoiseModel(0.05, 3),
                                  np.array([0.4, 40.0]), np.diag([100.0, 0.01]))
        assert np.all(np.diff(result.objective_trace) <= 0)

    def test_line_search_failure_carries_last_iterate(self):
        def flat_saturation(x):
            return np.array([np.arctan(10.0 * x[0])])

        flat_saturation.jacobian = lambda x: np.array([[10.0 / (1.0 + 100.0 * x[0] ** 2)]])
        with pytest.raises(GaussNewtonError) as err:
            gauss_newton_map(
                flat_saturation, np.array([0.0]), NoiseModel(1.0, 1),
                prior_mean=np.array([10.0]), prior_precision=np.array([[1e-12]]),
                init=np.array([10.0]), max_halvings=4,
            )
        assert err.value.last_iterate is not None

    def test_each_point_is_evaluated_once(self):
        """A converged run takes one Jacobian per iteration plus one at the
        MAP, kept as the reference linearisation, and one forward solve at
        the start and at each line-search trial point."""
        calls = {"forward": 0, "jacobian": 0}

        class Saturation:
            def __call__(self, x):
                calls["forward"] += 1
                return np.array([np.arctan(10.0 * x[0])])

            def jacobian(self, x):
                calls["jacobian"] += 1
                return np.array([[10.0 / (1.0 + 100.0 * x[0] ** 2)]])

        result = gauss_newton_map(
            Saturation(), np.array([0.0]), NoiseModel(1.0, 1),
            prior_mean=np.array([0.0]), prior_precision=np.array([[1e-2]]),
            init=np.array([0.3]),
        )
        assert result.converged and abs(result.point[0]) < 1e-6
        assert result.iterations >= 2 and result.halvings > 0
        assert calls["jacobian"] == result.iterations + 1
        assert calls["forward"] == 1 + result.iterations + result.halvings

    def test_result_keeps_jacobian_and_forward_at_point(self):
        model = MonodModel(np.array([28.0, 55.0, 83.0]))
        d = model(np.array([0.9, 80.0]))
        result = gauss_newton_map(model, d, NoiseModel(0.05, 3),
                                  np.array([0.4, 40.0]), np.diag([100.0, 0.01]))
        assert result.converged
        np.testing.assert_array_equal(result.forward, model(result.point))
        np.testing.assert_array_equal(result.jacobian, model.jacobian(result.point))


class FlaggedLinear:
    """A linear map that the sampler treats as nonlinear."""

    is_linear = False

    def __init__(self, g):
        self.g = g

    def __call__(self, s):
        return self.g @ s

    def predict_rows(self, s):
        return s @ self.g.T, np.ones(len(s), dtype=bool)


class Cubic:
    """f(s) = (s_0 + 0.6 s_0^3, s_1 + 0.6 s_1^3, s_0 - s_1), on a state or on
    rows of states.  It grows faster than any linearisation, so l - l_lin
    is bounded above and an independence chain is uniformly ergodic."""

    is_linear = False

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([s[..., 0] + 0.6 * s[..., 0] ** 3, s[..., 1] + 0.6 * s[..., 1] ** 3,
                         s[..., 0] - s[..., 1]], axis=-1)

    def jacobian(self, s):
        return np.array([[1.0 + 1.8 * s[0] ** 2, 0.0], [0.0, 1.0 + 1.8 * s[1] ** 2],
                         [1.0, -1.0]])

    def predict_rows(self, s):
        return self(s), np.ones(len(s), dtype=bool)


class FlagsPositive(FlaggedLinear):
    """A flagged linear map whose stacked evaluation fails a check (NaN,
    outside the mask) on each row with s_0 > 0, as a Darcy solve does."""

    def predict_rows(self, s):
        ok = s[:, 0] <= 0.0
        return np.where(ok[:, None], s @ self.g.T, np.nan), ok


def stacked_excess(model, d, noise, evidence):
    """l - l_lin of each row of a stack, and the model's mask, as a chain of
    independence moves scores its proposals."""
    def excess(states):
        predicted, ok = model.predict_rows(states)
        return gaussian_loglik(d, predicted, noise) - evidence.linear_loglik(states), ok
    return excess


def block_problem(rng):
    """Reduced family (k_p = 2, k_m = 3) with a scalar contraction, a flagged
    linear map, data from c = 0.8, and the exact linearisation of the map at
    a random point."""
    bp, bm = kl_truncate(random_spd(rng, 6), 2), kl_truncate(random_spd(rng, 6), 3)
    fam = ReducedJointFamily(bp, bm, Contraction.scalar(0.0, 6))
    g = rng.standard_normal((4, 5))
    noise = NoiseModel(0.3, 4)
    truth = cholesky_lower(reduced_cov(fam, 0.8)) @ rng.standard_normal(5)
    d = g @ truth + noise.sample(rng)
    point = rng.standard_normal(5)
    reference = SimpleNamespace(point=point, jacobian=g, forward=g @ point)
    return fam, FlaggedLinear(g), noise, d, reference


def steep_block_problem(rng):
    """As ``block_problem``, but both bases come from one covariance, so
    Sigma(c) nears singular as |c| -> 1, and 20 precise observations of a
    field 1.5 times a draw at c = 0.8 pin the field: log Z(c) falls by over
    800 nats toward c = -1."""
    a = random_spd(rng, 6)
    fam = ReducedJointFamily(kl_truncate(a, 2), kl_truncate(a, 3), Contraction.scalar(0.0, 6))
    g = rng.standard_normal((20, 5))
    noise = NoiseModel(0.003, 20)
    truth = 1.5 * cholesky_lower(reduced_cov(fam, 0.8)) @ rng.standard_normal(5)
    d = g @ truth + noise.sample(rng)
    point = rng.standard_normal(5)
    reference = SimpleNamespace(point=point, jacobian=g, forward=g @ point)
    return fam, FlaggedLinear(g), noise, d, reference


def linearised(reference, d, noise, fam):
    """The evidence of the model linearised at ``reference``, as a chain
    of independence moves builds it."""
    return _Evidence(reference.jacobian, linearised_data(reference, d), noise, fam)


def reduced_cov(fam, c):
    return reduced_joint_covariance(fam.basis_p, fam.basis_m,
                                    fam.contraction.with_values([c]))


def assert_block_chain_matches_oracle(fam, model, noise, d, reference, c_steps=0):
    """A 60,000-iteration chain, of 1 independence move per iteration or
    (``c_steps`` >= 1) of 1 pCN field step and that many centred c steps,
    against a 1999-point quadrature of the c marginal (KS < 0.02) and the
    field's mixture moments over c (mean and covariance gaps < 0.03)."""
    g = model.g
    cs = np.linspace(-0.999, 0.999, 1999)
    logev, means, covs = np.empty(cs.size), [], []
    for i, c in enumerate(cs):
        cov = reduced_cov(fam, c)
        cf = cho_factor(g @ cov @ g.T + noise.covariance(), lower=True)
        logev[i] = -0.5 * (d @ cho_solve(cf, d) + 2 * np.sum(np.log(np.diagonal(cf[0]))))
        mean_c, cov_c = linear_gaussian_posterior(g, d, noise, fam.mean, cov)
        means.append(mean_c)
        covs.append(cov_c)
    post = np.exp(logev - logev.max())  # the tanh coordinate prior is uniform in c
    weights = post / post.sum()
    cdf = np.concatenate([[0.0], np.cumsum((post[1:] + post[:-1]) / 2 * np.diff(cs))])
    cdf /= cdf[-1]
    means = np.array(means)
    mean = weights @ means
    cov = np.einsum("i,ijk->jk", weights, np.array(covs)) \
        + np.einsum("i,ij,ik->jk", weights, means - mean, means - mean)

    cfg = MwgConfig(total_samples=60000, burn_in=2000, c_steps_per_s_step=c_steps, seed=5)
    chain = mwg_run(model, fam, noise, d, cfg, init_state=reference.point,
                    reference=reference)
    if c_steps:
        assert chain.s_steps == 60000 and chain.gamma_steps == 60000 * c_steps
        assert 0.3 < chain.gamma_acceptance < 1.0
    else:
        assert chain.block_steps == 60000 and chain.block_failed == 0
        assert 0.3 < chain.acceptance_rates()["block"] < 1.0
    samples = np.sort(chain.corr[:, 0])
    quantiles = np.interp(samples, cs, cdf)
    ks = np.abs(quantiles - np.arange(1, samples.size + 1) / samples.size).max()
    assert ks < 0.02
    np.testing.assert_allclose(chain.states.mean(axis=0), mean, atol=0.03)
    assert np.abs(np.cov(chain.states, rowvar=False) - cov).max() < 0.03


class TestBlockMoves:
    """Independence (c, s) moves: c' from the evidence table, s' from the
    conditional of the linearised model.  For a linear map with its exact
    Jacobian as the reference, q is the exact conditional s | c, d, so the
    chain must reproduce the exact posterior."""

    @pytest.mark.parametrize("kp,km", [(2, 5), (4, 3)])
    @pytest.mark.parametrize("variant", CONSTRUCTORS)
    def test_draw_moments_match_analytic_posterior(self, rng, variant, kp, km):
        # the draw is affine in the standard normals it consumes; with the
        # map's own Jacobian at a random point, q(. | c) is exactly s | c, d
        labels = [0, 0, 1, 1, 0, 1, 0]
        n2 = 7 if variant in ("scalar", "piecewise") else 6
        bp, bm = kl_truncate(random_spd(rng, 7), kp), kl_truncate(random_spd(rng, n2), km)
        fam = ReducedJointFamily(bp, bm, zero_contraction(variant, rng, labels, n2))
        g = rng.standard_normal((5, kp + km))
        noise, d = NoiseModel(0.3, 2, 0.6, 3), rng.standard_normal(5)
        point = rng.standard_normal(kp + km)
        q = linearised(SimpleNamespace(point=point, jacobian=g, forward=g @ point), d, noise, fam)
        gibbs = _LinearGibbs(g, d, noise, fam)
        n = fam.n_free
        for values in (np.resize([0.4, -0.7], n), np.zeros(n), np.full(n, 0.95)):
            prior_cov = reduced_joint_covariance(bp, bm, fam.contraction.with_values(values))
            ref_mean, ref_cov = linear_gaussian_posterior(g, d, noise, fam.mean, prior_cov)
            mean, cov = implied_moments(q, values)
            np.testing.assert_allclose(mean, ref_mean, rtol=1e-9, atol=1e-10)
            np.testing.assert_allclose(cov, ref_cov, rtol=1e-9, atol=1e-10)
            # the fixed-c moments of the same algebra on the reduced family
            mean, w = gibbs.moments(values)
            np.testing.assert_allclose(mean, ref_mean, rtol=1e-9, atol=1e-10)
            np.testing.assert_allclose(prior_cov - w.T @ w, ref_cov, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("variant", ["reduced"] + CONSTRUCTORS)
    def test_log_evidence_matches_dense_gaussian(self, rng, variant):
        # log N(r0; 0, G Gamma(c) G^T + Sigma), less the constant q log(2 pi) / 2,
        # at one c at a time and at all five as one stack, with its factors:
        # with one coordinate those of the pencil, K(c)^{-1} = M diag(F) M^T
        noise, d = NoiseModel(0.3, 2, 0.6, 3), rng.standard_normal(5)
        if variant == "reduced":
            fam = block_problem(rng)[0]
            g = rng.standard_normal((5, fam.dim))
            evidence = _Evidence(g, d, noise, fam)
            prior_cov = lambda values: reduced_cov(fam, values[0])
        else:
            fam = variant_family(variant, rng)
            g = rng.standard_normal((5, fam.dim))
            evidence = _LinearGibbs(g, d, noise, fam)
            prior_cov = lambda values: fam.prior(values).dense_covariance()
        r0 = d - g @ fam.mean
        n = fam.n_free
        stack = np.array([np.zeros(n), np.resize([0.4, -0.7, 0.2], n), np.full(n, -0.95),
                          np.full(n, 0.999), np.full(n, -0.999)])
        ours, dense, ks = [], [], []
        for values in stack:
            ks.append(g @ prior_cov(values) @ g.T + noise.covariance())
            dense.append(-0.5 * (r0 @ np.linalg.solve(ks[-1], r0) + np.linalg.slogdet(ks[-1])[1]))
            ours.append(evidence.log_evidence(values))
        np.testing.assert_allclose(ours, dense, rtol=1e-9)
        np.testing.assert_allclose(np.diff(ours), np.diff(dense), rtol=1e-9, atol=1e-12)
        f, stacked = evidence.factors(stack)
        np.testing.assert_allclose(stacked, dense, rtol=1e-9)
        if n == 1:
            inverse = np.linalg.inv(ks)
            np.testing.assert_allclose((evidence._m * f[:, None, :]) @ evidence._m.T, inverse,
                                       rtol=1e-9, atol=1e-9 * np.abs(inverse).max())
        else:
            np.testing.assert_allclose(f @ f.transpose(0, 2, 1), ks, rtol=1e-12,
                                       atol=1e-12 * np.abs(ks).max())

    @pytest.mark.slow
    def test_chain_matches_quadrature_and_analytic_posterior(self, rng):
        # both kernels: independence moves, and pCN with centred c steps
        problem = block_problem(rng)
        for c_steps in (0, 5):
            assert_block_chain_matches_oracle(*problem, c_steps=c_steps)

    @pytest.mark.slow
    @pytest.mark.parametrize("case", ["default", "two-cells", "steep"])
    def test_chain_at_block_length_one_is_exact(self, rng, monkeypatch, case):
        # a block of one iteration (1 move) reads the random stream in
        # another order than the default blocks; the law must not change
        monkeypatch.setattr(inference, "BLOCK_LENGTH", 1)
        if case == "two-cells":
            monkeypatch.setattr(inference, "TABLE_CELLS", 2)
        assert_block_chain_matches_oracle(
            *(steep_block_problem(rng) if case == "steep" else block_problem(rng)))

    @pytest.mark.slow
    @pytest.mark.parametrize("case", ["two-cells", "steep"])
    def test_chain_is_exact_whatever_the_table(self, rng, monkeypatch, case):
        # a table of 2 cells, and one whose log Z spans over 800 nats, must
        # do as well as the default: the table sets only the acceptance
        if case == "two-cells":
            monkeypatch.setattr(inference, "TABLE_CELLS", 2)
            problem = block_problem(rng)
        else:
            problem = steep_block_problem(rng)
            fam, _, noise, d, reference = problem
            evidence = linearised(reference, d, noise, fam)
            centres = np.linspace(-1.0, 1.0, 2 * TABLE_CELLS + 1)[1::2]
            assert np.ptp([evidence.log_evidence([c]) for c in centres]) > 800
        assert_block_chain_matches_oracle(*problem)

    def test_block_moves_are_reproducible_and_counted_apart(self, rng):
        fam, model, noise, d, reference = block_problem(rng)
        cfg = MwgConfig(total_samples=300, burn_in=100, seed=2)
        a, b = (mwg_run(model, fam, noise, d, cfg, init_state=reference.point,
                        reference=reference) for _ in range(2))
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.corr, b.corr)
        assert a.block_steps == 300 and 0 < a.block_accepted == b.block_accepted
        # a chain with independence moves takes no pCN or centred steps
        assert a.s_steps == a.gamma_steps == 0
        assert set(a.acceptance_rates()) == {"s", "gamma", "block", "block_failed"}
        # a chain that holds c fixed takes the same moves, with c' = c
        fixed = mwg_run(model, fam, noise, d, cfg, init_state=reference.point,
                        reference=reference, sample_correlation=False)
        assert fixed.block_steps == 300 and 0 < fixed.block_accepted
        assert fixed.s_steps == fixed.gamma_steps == 0 and np.all(fixed.corr == 0.0)

    def test_held_correlation_chain_matches_quadrature(self, rng):
        # c held at 0.6 on a 2-d reduced field (k_p = k_m = 1) seen through a
        # model whose linearisation at the warm start is off by 0.11 in the
        # posterior mean and 0.028 in its covariance: the chain must follow
        # the nonlinear posterior, which only the l - l_lin term of the
        # weight, or the pCN acceptance, gives it (chain seeds 5-7 read gaps
        # of 0.002-0.007 with independence moves, 0.001-0.007 with pCN)
        fam = ReducedJointFamily(kl_truncate(random_spd(rng, 4), 1),
                                 kl_truncate(random_spd(rng, 4), 1), Contraction.scalar(0.0, 4))
        model, noise = Cubic(), NoiseModel(0.5, 3)
        prior_cov = reduced_cov(fam, 0.6)
        d = model(cholesky_lower(prior_cov) @ rng.standard_normal(2)) + noise.sample(rng)
        reference = gauss_newton_map(model, d, noise, np.zeros(2), np.eye(2))
        grid = np.stack(np.meshgrid(*[np.linspace(-4.0, 4.0, 401)] * 2), axis=-1).reshape(-1, 2)

        def moments(predicted):
            r = (d - predicted) / noise.std_vector
            log_post = -0.5 * (np.sum(r * r, axis=1)
                               + np.sum(grid * np.linalg.solve(prior_cov, grid.T).T, axis=1))
            w = np.exp(log_post - log_post.max())
            w /= w.sum()
            mean = w @ grid
            return mean, (grid - mean).T @ ((grid - mean) * w[:, None])

        mean, cov = moments(model(grid))
        lin_mean, lin_cov = moments(reference.forward
                                    + (grid - reference.point) @ reference.jacobian.T)
        assert np.abs(lin_mean - mean).max() > 0.1 and np.abs(lin_cov - cov).max() > 0.025
        for c_steps in (0, 5):  # independence moves, and pCN steps (no c step: c is held)
            cfg = MwgConfig(total_samples=40000, burn_in=1000, c_steps_per_s_step=c_steps,
                            seed=5)
            chain = mwg_run(model, fam, noise, d, cfg, sample_correlation=False,
                            init_gamma=[np.arctanh(0.6)], init_state=reference.point,
                            reference=reference)
            steps, rate = ((chain.s_steps, chain.s_acceptance) if c_steps else
                           (chain.block_steps, chain.acceptance_rates()["block"]))
            assert steps == 40000 and 0.3 < rate < 1.0 and chain.gamma_steps == 0
            assert np.all(chain.corr == np.tanh(np.arctanh(0.6)))
            np.testing.assert_allclose(chain.states.mean(axis=0), mean, atol=0.03)
            assert np.abs(np.cov(chain.states, rowvar=False) - cov).max() < 0.015

    def test_held_correlation_chain_factors_its_covariance_once(self, rng, monkeypatch):
        # with one coordinate K(c) is never factored: K(0) is, once per chain,
        # for the pencil; the Gram complement is factored once per block
        fam, model, noise, d, reference = block_problem(rng)
        factored = []

        def counting(factor):
            def count(a, name):
                factored.append((name, len(a)))
                return factor(a, name)
            return count

        for name in ("_cholesky_stack", "cholesky_lower"):
            monkeypatch.setattr(inference, name, counting(getattr(inference, name)))
        cfg = MwgConfig(total_samples=100, burn_in=10, seed=2)
        chain = mwg_run(model, fam, noise, d, cfg, init_state=reference.point,
                        reference=reference, sample_correlation=False)
        assert chain.block_steps == chain.block_accepted == 100  # an exact linearisation
        assert factored.count(("data-space covariance", 4)) == 1  # K(0), q = 4
        assert factored.count(("reduced Gram complement", 1)) == 4  # blocks of 32
        assert len(factored) == 5

    def test_centred_chain_factors_k_only_when_c_moves(self, rng, monkeypatch):
        # the pCN step needs the factor of K(c) and the mean of q(. | c) at
        # the current c: a held c is factored once, a sampled c once per move
        fam, model, noise, d, reference = block_problem(rng)
        factored = []

        def counting(evidence, values):
            factored.append(values.copy())
            return factors(evidence, values)

        factors = _Evidence.factors
        monkeypatch.setattr(_Evidence, "factors", counting)
        cfg = MwgConfig(total_samples=200, burn_in=0, c_steps_per_s_step=5, seed=2)
        held = mwg_run(model, fam, noise, d, cfg, init_state=reference.point,
                       reference=reference, sample_correlation=False)
        assert len(factored) == 1 and held.s_steps == 200 and held.gamma_steps == 0
        factored.clear()
        chains = [mwg_run(model, fam, noise, d, cfg, init_state=reference.point,
                          reference=reference) for _ in range(2)]
        np.testing.assert_array_equal(chains[0].states, chains[1].states)
        np.testing.assert_array_equal(chains[0].corr, chains[1].corr)
        path = np.concatenate([np.zeros((1, 1)), chains[0].corr[:-1]])  # c at each iteration
        moves = np.count_nonzero(np.diff(path[:, 0]))
        assert 0 < moves < 199 and len(factored) == 2 * (1 + moves)
        assert chains[0].s_accepted == 200  # an exact linearisation: e = 0

    def test_type_error_in_conditional_propagates(self, rng):
        fam, model, noise, d, reference = block_problem(rng)

        class Broken(ReducedJointFamily):
            def draw(self, rng, values):
                raise TypeError("unsupported operand type(s)")

        broken = Broken(fam.basis_p, fam.basis_m, fam.contraction)
        cfg = MwgConfig(total_samples=20, burn_in=5, seed=1)
        with pytest.raises(TypeError, match="unsupported"):
            mwg_run(model, broken, noise, d, cfg, init_state=reference.point,
                    reference=reference)

    def test_forward_model_error_is_counted_rejection(self, rng):
        fam, model, noise, d, reference = block_problem(rng)

        class Failing(ReducedJointFamily):
            def draw(self, rng, values):
                raise ForwardModelError("no conditional here")

        failing = Failing(fam.basis_p, fam.basis_m, fam.contraction)
        cfg = MwgConfig(total_samples=30, burn_in=5, seed=1)
        chain = mwg_run(model, failing, noise, d, cfg, init_state=reference.point,
                        reference=reference)
        assert chain.block_steps == chain.block_failed == 30
        assert chain.block_accepted == 0
        assert chain.acceptance_rates()["block"] == 0.0
        assert chain.acceptance_rates()["block_failed"] == 30
        assert np.all(chain.states == reference.point)

    def test_contraction_error_is_counted_apart_from_metropolis_rejections(self, rng):
        fam, model, noise, d, reference = block_problem(rng)
        # c' lands on the edge of the box half the time: a ContractionError
        table = SimpleNamespace(
            draw=lambda rng, count: np.where(rng.random((count, 1)) < 0.5, 1.0, 0.3),
            log_density=lambda values: np.zeros(len(values)))
        conditional = linearised(reference, d, noise, fam)
        current = (np.zeros((1, 1)), reference.point[None], np.zeros(1),
                   conditional.factors(np.zeros((1, 1)))[0])
        stack, chosen, failed = independence_block(
            rng, 40, current, table, conditional, stacked_excess(model, d, noise, conditional))
        edge = np.flatnonzero(stack[0][:, 0] == 1.0)
        assert failed == edge.size > 0
        assert np.all(stack[2][edge] == -np.inf) and not np.isin(edge, chosen).any()
        assert np.any(chosen > 0)  # some moves to c' = 0.3 are accepted
        assert np.all(stack[0][chosen] < 1.0)

    def test_nan_weight_raises(self, rng):
        fam, model, noise, d, reference = block_problem(rng)
        conditional = linearised(reference, d, noise, fam)
        table = _EvidenceTable(conditional, 1)
        current = (np.zeros((1, 1)), reference.point[None], np.zeros(1),
                   conditional.factors(np.zeros((1, 1)))[0])
        with pytest.raises(ValueError, match="NaN"):
            independence_block(rng, 4, current, table, conditional,
                               lambda s: (np.full(len(s), np.nan), np.ones(len(s), dtype=bool)))

    def test_failed_check_rejects_its_row_alone(self, rng):
        # the same block scored by a model that passes every row and by one
        # that fails each row with s_0 > 0: those rows are counted and never
        # held, and every other row keeps its weight bitwise
        fam, model, noise, d, reference = block_problem(rng)
        conditional = linearised(reference, d, noise, fam)
        table = _EvidenceTable(conditional, 1)
        current = (np.zeros((1, 1)), reference.point[None], np.zeros(1),
                   conditional.factors(np.zeros((1, 1)))[0])
        flagging = FlagsPositive(model.g)
        (_, x, passed, _), _, none_failed = independence_block(
            np.random.default_rng(4), 64, current, table, conditional,
            stacked_excess(model, d, noise, conditional))
        (_, same_x, weights, _), chosen, failed = independence_block(
            np.random.default_rng(4), 64, current, table, conditional,
            stacked_excess(flagging, d, noise, conditional))
        np.testing.assert_array_equal(same_x, x)
        positive = x[:, 0] > 0.0
        positive[0] = False  # the current state is not scored again
        assert none_failed == 0 and failed == np.count_nonzero(positive) > 0
        assert np.all(weights[positive] == -np.inf)
        np.testing.assert_array_equal(weights[~positive], passed[~positive])
        assert not np.isin(np.flatnonzero(positive), chosen).any()
        # in a chain, they count in block_failed and no retained state has s_0 > 0
        cfg = MwgConfig(total_samples=300, burn_in=100, seed=2)
        start = reference.point * np.where(np.arange(5) == 0, -np.sign(reference.point[0]), 1.0)
        chain = mwg_run(flagging, fam, noise, d, cfg, init_state=start, reference=reference)
        assert chain.block_failed > 0 and chain.block_accepted > 0
        assert chain.block_failed + chain.block_accepted <= chain.block_steps
        assert np.all(chain.states[:, 0] <= 0.0)

    def test_nan_on_a_row_that_passed_raises(self, rng):
        fam, model, noise, d, reference = block_problem(rng)
        conditional = linearised(reference, d, noise, fam)
        table = _EvidenceTable(conditional, 1)
        current = (np.zeros((1, 1)), reference.point[None], np.zeros(1),
                   conditional.factors(np.zeros((1, 1)))[0])

        def nan_where(passes):
            def excess(states):
                return np.full(len(states), np.nan), passes(len(states))
            return excess

        # NaN on rows outside the mask is a counted rejection
        _, chosen, failed = independence_block(
            rng, 8, current, table, conditional, nan_where(lambda k: np.zeros(k, dtype=bool)))
        assert failed == 8 and np.all(chosen == 0)
        # on one row inside it, a ValueError
        with pytest.raises(ValueError, match="NaN"):
            independence_block(rng, 8, current, table, conditional,
                               nan_where(lambda k: np.arange(k) == 3))

    def test_type_error_in_model_propagates(self, rng):
        fam, model, noise, d, reference = block_problem(rng)

        class Broken(FlaggedLinear):
            def predict_rows(self, s):
                raise TypeError("unsupported operand type(s)")

        cfg = MwgConfig(total_samples=20, burn_in=5, seed=1)
        with pytest.raises(TypeError, match="unsupported"):
            mwg_run(Broken(model.g), fam, noise, d, cfg, init_state=reference.point,
                    reference=reference)

    def test_nan_evidence_terms_raise(self, rng):
        # before any table or move uses them: with one coordinate, when the
        # pencil is built
        fam, model, noise, d, reference = block_problem(rng)
        jacobian = reference.jacobian.copy()
        jacobian[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            linearised(SimpleNamespace(point=reference.point, jacobian=jacobian,
                                       forward=reference.forward), d, noise, fam)

    def test_non_positive_definite_proposal_is_a_counted_rejection(self, rng):
        fam, model, noise, d, reference = block_problem(rng)

        class Collapsing(ReducedJointFamily):
            def data_terms(self, g):
                # G T_1 = -3 K(0), so K(c) = (1 - 3 c) K(0): not positive
                # definite for c > 1/3
                terms = super().data_terms(g)
                terms[1] = -3.0 * (terms[0] + np.linalg.pinv(g) @ noise.covariance())
                return terms

        collapsing = Collapsing(fam.basis_p, fam.basis_m, fam.contraction)
        conditional = linearised(reference, d, noise, collapsing)
        stack = np.array([[0.1], [0.8], [-0.4], [0.5]])
        f, logz = conditional.factors(stack)
        np.testing.assert_array_equal(np.isinf(logz), [False, True, False, True])
        np.testing.assert_array_equal(f[1], np.ones(4))
        table = SimpleNamespace(draw=lambda rng, count: np.resize(stack, (count, 1)),
                                log_density=lambda values: np.zeros(len(values)))
        current = (np.zeros((1, 1)), reference.point[None], np.zeros(1),
                   conditional.factors(np.zeros((1, 1)))[0])
        out, chosen, failed = independence_block(
            rng, 40, current, table, conditional, stacked_excess(model, d, noise, conditional))
        assert failed == 20
        assert np.all(np.isin(out[0][chosen][:, 0], [0.0, 0.1, -0.4]))
        with pytest.raises(FactorizationError):
            conditional.log_evidence([0.8])

    def test_table_is_floored_and_normalised(self, rng, monkeypatch):
        # g integrates to 1 over the box and stays positive in a cell whose
        # log Z is thousands of nats below the largest
        fam, model, noise, d, reference = steep_block_problem(rng)
        monkeypatch.setattr(inference, "TABLE_CELLS", 16)
        evidence = linearised(reference, 1e3 * d, noise, fam)
        table = _EvidenceTable(evidence, 1)
        centres = np.linspace(-1.0, 1.0, 33)[1::2]
        logz = np.array([evidence.log_evidence([c]) for c in centres])
        assert np.ptp(logz) > 5000
        log_g = np.array([table.log_density([c]) for c in centres])
        assert np.all(np.isfinite(log_g))
        assert np.exp(log_g).sum() * (2.0 / 16) == pytest.approx(1.0, rel=1e-12)
        floor = log_g.max() + np.log(inference.TABLE_FLOOR)
        np.testing.assert_allclose(log_g, np.maximum(logz - logz.max() + log_g.max(), floor),
                                   rtol=1e-12)
        draws = table.draw(rng, 2000)[:, 0]
        assert np.all(np.abs(draws) < 1.0)
        cells = np.floor((draws + 1.0) * 8).astype(int)
        assert cells.min() >= 0 and cells.max() <= 15

    def test_block_moves_need_a_reference_and_a_nonlinear_model(self, rng):
        fam, model, noise, d, reference = block_problem(rng)
        # a nonlinear model takes either kernel's moves from a reference
        # linearisation; a linear model never takes centred steps
        independence = MwgConfig(total_samples=20, burn_in=5)
        centred = MwgConfig(total_samples=20, burn_in=5, c_steps_per_s_step=1)
        for cfg in (independence, centred):
            with pytest.raises(ValueError, match="reference"):
                mwg_run(model, fam, noise, d, cfg, init_state=reference.point)
        linear = CokrigeModel(model.g[:, :2], model.g[:, 2:])
        with pytest.raises(ValueError, match="nonlinear"):
            mwg_run(linear, fam, noise, d, centred)
        with pytest.raises(ValueError, match="c_steps_per_s_step"):
            MwgConfig(total_samples=20, burn_in=5, c_steps_per_s_step=-1)
        # both rules bind a chain that holds c fixed
        with pytest.raises(ValueError, match="reference"):
            mwg_run(model, fam, noise, d, independence, init_state=reference.point,
                    sample_correlation=False)
        with pytest.raises(ValueError, match="nonlinear"):
            mwg_run(linear, fam, NoiseModel(0.3, 8), np.tile(d, 2), centred,
                    sample_correlation=False)
