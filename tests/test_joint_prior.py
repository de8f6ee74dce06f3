import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

import jointprior
from jointprior.covariance import (PdePriorConfig, fem_precision_filter,
                                   kl_truncate, whitening_filter)
from jointprior.joint_prior import (Contraction, JointPrior,
                                    canonical_cross,
                                    correlation_prior_logdensity,
                                    reduced_joint_covariance,
                                    scalar_prior_stationary)
from jointprior.linalg import ContractionError, cholesky_lower
from jointprior.mesh_fem import build_lattice_mesh

from conftest import random_dense_contraction, random_spd


def test_public_names_resolve():
    assert [name for name in jointprior.__all__ if not hasattr(jointprior, name)] == []


def dense_whitening(prior):
    """The joint whitening operator L as a dense matrix, column by column."""
    return prior.whiten(prior.mean[:, None] + np.eye(prior.n))


def make_prior(rng, n1=6, n2=4, kind_p="principal_sqrt", kind_m="cholesky",
               contraction=None, mean=False):
    gp, gm = random_spd(rng, n1), random_spd(rng, n2)
    c = contraction if contraction is not None else Contraction.dense(
        random_dense_contraction(rng, n1, n2))
    mean_p = rng.standard_normal(n1) if mean else None
    mean_m = rng.standard_normal(n2) if mean else None
    return JointPrior(
        whitening_filter(gp, kind_p), whitening_filter(gm, kind_m), c,
        mean_p, mean_m,
    ), gp, gm


class TestContraction:
    def test_scalar_values_and_matrix(self):
        c = Contraction.scalar(0.7, 3)
        np.testing.assert_allclose(c.as_matrix(), 0.7 * np.eye(3))
        np.testing.assert_allclose(c.values, [0.7])
        assert c.sigma_max() == pytest.approx(0.7)

    def test_piecewise(self):
        c = Contraction.piecewise([0, 1, 1, 0], [0.5, -0.25])
        np.testing.assert_allclose(np.diagonal(c.as_matrix()), [0.5, -0.25, -0.25, 0.5])
        assert c.n_free == 2

    def test_paired_sparse_rectangular(self):
        c = Contraction.paired_sparse([0, 3], [1, 0], [0.9, -0.5], (5, 2))
        m = c.as_matrix()
        assert m[0, 1] == 0.9 and m[3, 0] == -0.5
        assert np.count_nonzero(m) == 2
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(c.matvec(x), m @ x)
        y = np.arange(5.0)
        np.testing.assert_allclose(c.rmatvec(y), m.T @ y)

    def test_paired_requires_one_to_one(self):
        with pytest.raises(ValueError, match="at most once"):
            Contraction.paired_sparse([0, 0], [0, 1], [0.5, 0.5], (3, 3))

    def test_margin_rule(self):
        # the strict-contraction margin is 1e-12: 1 - 1e-13 is rejected,
        # user-scale values like 0.999999 pass
        with pytest.raises(ContractionError) as err:
            Contraction.scalar(1.0 - 1e-13, 4)
        assert err.value.sigma_max == pytest.approx(1.0 - 1e-13)
        Contraction.scalar(0.999999, 4)

    def test_dense_sigma_via_svd(self, rng):
        m = random_dense_contraction(rng, 5, 3, sigma=0.8)
        c = Contraction.dense(m)
        assert c.sigma_max() == pytest.approx(0.8, rel=1e-12)
        with pytest.raises(ContractionError):
            Contraction.dense(m / 0.8)

    def test_with_values(self):
        c = Contraction.piecewise([0, 1, 0], [0.1, 0.2]).with_values([0.3, -0.4])
        np.testing.assert_allclose(np.diagonal(c.as_matrix()), [0.3, -0.4, 0.3])

    def test_dense_has_no_free_coordinates(self, rng):
        c = Contraction.dense(random_dense_contraction(rng, 4, 3))
        assert c.n_free == 0 and c.values.size == 0
        assert c.with_values([]) is c
        x = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(c.with_values(np.zeros(0)).matvec(x), c.matvec(x))
        with pytest.raises(ValueError, match="expected 0"):
            c.with_values([0.1])

    def test_pairs_tie_entries_to_coordinates(self):
        for c in (
            Contraction.scalar(0.6, 4),
            Contraction.piecewise([0, 1, 1, 0], [0.5, -0.25]),
            Contraction.paired_sparse([1, 4], [0, 2], [0.7, 0.2], (6, 3)),
        ):
            rebuilt = np.zeros(c.shape)
            for l, value in enumerate(c.values):
                rows, cols = c.pairs(l)
                rebuilt[rows, cols] = value
            np.testing.assert_array_equal(rebuilt, c.as_matrix())
            with pytest.raises(IndexError):
                c.pairs(c.n_free)
        rows, cols = Contraction.piecewise([0, 1, 1, 0], [0.5, -0.25]).pairs(1)
        np.testing.assert_array_equal(rows, [1, 2])
        np.testing.assert_array_equal(cols, [1, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ContractionError):
            Contraction.scalar(bad, 3)
        with pytest.raises(ContractionError):
            Contraction.piecewise([0, 1, 0], [0.2, bad])
        with pytest.raises(ContractionError):
            Contraction.paired_sparse([0, 2], [1, 0], [bad, 0.1], (3, 2))
        with pytest.raises(ContractionError):
            Contraction.piecewise([0, 1, 0], [0.2, 0.3]).with_values([0.1, bad])
        m = np.full((2, 3), 0.1)
        m[1, 2] = bad
        with pytest.raises(ContractionError, match="finite"):
            Contraction.dense(m)

    def test_defect_matches_direct_factor(self, rng):
        for c in (
            Contraction.scalar(0.6, 4),
            Contraction.piecewise([0, 1, 0, 1], [0.3, -0.8]),
            Contraction.paired_sparse([1, 4], [0, 2], [0.7, 0.2], (6, 3)),
            Contraction.dense(random_dense_contraction(rng, 4, 6)),
        ):
            d = c.defect()
            m = c.as_matrix()
            dense = d.solve(np.eye(m.shape[1]))
            np.testing.assert_allclose(dense @ dense.T, np.eye(m.shape[1]) - m.T @ m,
                                       atol=1e-12)
            x = rng.standard_normal(m.shape[1])
            np.testing.assert_allclose(d.solve(d.apply(x)), x, atol=1e-9)

    def test_logdet_complement_matches_oracle(self, rng):
        for c in (
            Contraction.scalar(0.6, 4),
            Contraction.piecewise([0, 1, 0, 1], [0.3, -0.8]),
            Contraction.paired_sparse([1, 4], [0, 2], [0.7, 0.2], (6, 3)),
            Contraction.dense(random_dense_contraction(rng, 3, 7)),
        ):
            m = c.as_matrix()
            oracle = np.linalg.slogdet(np.eye(m.shape[0]) - m @ m.T)[1]
            assert c.logdet_complement() == pytest.approx(oracle, rel=1e-9, abs=1e-12)


class TestBuildJointPrior:
    def test_zero_contraction_block_diagonal(self, rng):
        prior, gp, gm = make_prior(rng, contraction=Contraction.scalar(0.0, 6), n2=6)
        cov = prior.dense_covariance()
        np.testing.assert_array_equal(cov[:6, 6:], np.zeros((6, 6)))
        np.testing.assert_array_equal(cov[:6, :6], gp)
        np.testing.assert_array_equal(cov[6:, 6:], gm)

    def test_two_parameter_prior_cross_term(self):
        # stds 0.1 and 10 with scalar correlation c place c itself off-diagonal
        fp = whitening_filter(np.array([[0.01]]), "principal_sqrt")
        fm = whitening_filter(np.array([[100.0]]), "principal_sqrt")
        for c in (-0.85, 0.3, 0.99):
            prior = JointPrior(fp, fm, Contraction.scalar(c, 1))
            np.testing.assert_allclose(
                prior.dense_covariance(), [[0.01, c], [c, 100.0]], rtol=1e-12
            )

    def test_margin_violation_rejected(self):
        fp = whitening_filter(np.eye(2), "cholesky")
        with pytest.raises(ContractionError):
            JointPrior(fp, fp, Contraction.scalar(1.0 - 1e-14, 2))

    def test_shape_mismatch_rejected(self, rng):
        gp = random_spd(rng, 4)
        fp = whitening_filter(gp, "cholesky")
        with pytest.raises(ValueError, match="shape"):
            JointPrior(fp, fp, Contraction.scalar(0.5, 3))

    def test_marginal_preservation_all_variants(self, rng):
        cases = [
            (Contraction.scalar(0.9, 5), 5, 5),
            (Contraction.piecewise([0, 0, 1, 1, 2], [0.9, -0.9, 0.2]), 5, 5),
            (Contraction.paired_sparse([0, 2, 6], [1, 0, 2], [0.8, -0.7, 0.9], (8, 3)), 8, 3),
            (Contraction.dense(random_dense_contraction(rng, 6, 4, 0.95)), 6, 4),
        ]
        for c, n1, n2 in cases:
            gp, gm = random_spd(rng, n1), random_spd(rng, n2)
            prior = JointPrior(
                whitening_filter(gp, "cholesky"), whitening_filter(gm, "principal_sqrt"), c
            )
            cov = prior.dense_covariance()
            cholesky_lower(cov)  # joint covariance is SPD
            assert np.abs(cov[:n1, :n1] - gp).max() < 1e-12
            assert np.abs(cov[n1:, n1:] - gm).max() < 1e-12


class TestSampling:
    def test_zero_noise_returns_mean(self, rng):
        prior, _, _ = make_prior(rng, mean=True)
        np.testing.assert_array_equal(prior.sample(np.zeros(prior.n)), prior.mean)

    def test_decoupled_p_component(self, rng):
        prior, _, _ = make_prior(rng, contraction=Contraction.scalar(0.0, 6), n2=6)
        eta = rng.standard_normal(12)
        eta2 = eta.copy()
        eta2[6:] = rng.standard_normal(6)
        s1, s2 = prior.sample(eta), prior.sample(eta2)
        np.testing.assert_array_equal(s1[:6], s2[:6])

    def test_monte_carlo_covariance(self, rng):
        gp = random_spd(rng, 10)
        gp *= 1.0 / np.sqrt(np.outer(np.diagonal(gp), np.diagonal(gp)))
        gm = random_spd(rng, 10)
        gm *= 1.0 / np.sqrt(np.outer(np.diagonal(gm), np.diagonal(gm)))
        prior = JointPrior(
            whitening_filter(gp, "principal_sqrt"),
            whitening_filter(gm, "cholesky"),
            Contraction.scalar(0.9, 10),
        )
        draws = prior.sample(rng.standard_normal((20, 200000)))
        empirical = draws @ draws.T / draws.shape[1]
        assert np.abs(empirical - prior.dense_covariance()).max() < 0.02


def variant_contraction(variant, rng, n1, n2):
    if variant == "scalar":
        return Contraction.scalar(0.7, n1)
    if variant == "piecewise":
        return Contraction.piecewise(np.arange(n1) % 3, [0.6, -0.8, 0.3])
    if variant == "paired_sparse":
        return Contraction.paired_sparse([0, 4, 7], [2, 0, 9], [0.9, -0.5, 0.3], (n1, n2))
    return Contraction.dense(random_dense_contraction(rng, n1, n2))


def marginal_filter(kind, rng, nx, ny=3):
    if kind == "precision_sqrt":
        return fem_precision_filter(build_lattice_mesh(nx, ny, 1.0, 1.0),
                                    PdePriorConfig(1.0, 20.0, 5.0))
    return whitening_filter(random_spd(rng, nx * ny), kind)


class TestSampleTranspose:
    @pytest.mark.parametrize("kind", ["cholesky", "principal_sqrt", "precision_sqrt"])
    @pytest.mark.parametrize("variant", ["scalar", "piecewise", "paired_sparse", "dense"])
    def test_adjoint_and_covariance_identities(self, rng, variant, kind):
        square = variant in ("scalar", "piecewise")
        fp = marginal_filter(kind, rng, 3)
        fm = marginal_filter(kind, rng, 3 if square else 4)
        c = variant_contraction(variant, rng, fp.dim, fm.dim)
        prior = JointPrior(fp, fm, c)  # mean-free, so sample is S
        eta = rng.standard_normal((prior.n, 5))
        y = rng.standard_normal((prior.n, 5))
        np.testing.assert_allclose(np.sum(prior.sample(eta) * y),
                                   np.sum(eta * prior.sample_t(y)), rtol=1e-12)
        cov = prior.dense_covariance()
        ref = cov @ y
        gap = np.abs(prior.sample(prior.sample_t(y)) - ref).max()
        assert gap <= 1e-12 * np.abs(ref).max()
        np.testing.assert_allclose(prior.sample_t(y[:, 0]), prior.sample_t(y)[:, 0],
                                   rtol=1e-12, atol=1e-14)

    def test_leading_dimension_checked(self, rng):
        prior, _, _ = make_prior(rng)
        with pytest.raises(ValueError, match="leading dimension"):
            prior.sample_t(np.zeros(prior.n + 1))


class TestJointWhitening:
    def test_block_diagonal_when_uncorrelated(self, rng):
        prior, _, _ = make_prior(rng, contraction=Contraction.scalar(0.0, 6), n2=6)
        lw = dense_whitening(prior)
        np.testing.assert_array_equal(lw[:6, 6:], np.zeros((6, 6)))
        np.testing.assert_allclose(lw[6:, :6], np.zeros((6, 6)), atol=1e-14)

    def test_recovers_driving_noise(self, rng):
        prior, _, _ = make_prior(rng, mean=True)
        eta = rng.standard_normal(prior.n)
        np.testing.assert_allclose(prior.whiten(prior.sample(eta)), eta, atol=1e-8)

    def test_round_trip_identity(self, rng):
        prior, _, _ = make_prior(rng, n1=6, n2=4)
        lw = dense_whitening(prior)
        gap = lw.T @ lw @ prior.dense_covariance() - np.eye(10)
        assert np.linalg.norm(gap) / np.sqrt(10) < 1e-8

    def test_apply_matches_dense(self, rng):
        prior, _, _ = make_prior(rng, n1=5, n2=7, mean=True)
        s = rng.standard_normal(12)
        np.testing.assert_allclose(prior.whiten(s), dense_whitening(prior) @ (s - prior.mean),
                                   atol=1e-10)


class TestJointLogDensity:
    def test_zero_at_mean_with_zero_contraction(self, rng):
        prior, _, _ = make_prior(rng, contraction=Contraction.scalar(0.0, 6), n2=6,
                                 mean=True)
        assert prior.log_density(prior.mean) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_matches_stationary_formula(self):
        fp = whitening_filter(np.eye(1), "cholesky")
        for c in (-0.7, 0.2, 0.9):
            prior = JointPrior(fp, fp, Contraction.scalar(c, 1))
            v, _, _ = scalar_prior_stationary(0.0, 0.0, c)
            assert prior.log_density(np.zeros(2)) == pytest.approx(v, rel=1e-12)
            assert prior.log_density(np.zeros(2)) == pytest.approx(
                -0.5 * np.log(1 - c * c), rel=1e-12
            )

    def test_matches_dense_gaussian_oracle(self, rng):
        # differences of the implemented density equal differences of the
        # full Gaussian log density (explicit inverse and determinant),
        # across both states and contractions
        gp, gm = random_spd(rng, 5), random_spd(rng, 5)
        fp = whitening_filter(gp, "principal_sqrt")
        fm = whitening_filter(gm, "cholesky")
        mean = rng.standard_normal(10)

        def oracle(s, c):
            prior = JointPrior(fp, fm, c, mean[:5], mean[5:])
            cov = prior.dense_covariance()
            r = s - mean
            return -0.5 * (r @ np.linalg.solve(cov, r) + np.linalg.slogdet(cov)[1])

        c1 = Contraction.scalar(0.3, 5)
        c2 = Contraction.dense(random_dense_contraction(rng, 5, 5))
        s1, s2 = rng.standard_normal((2, 10))
        for ca, cb in [(c1, c1), (c1, c2)]:
            pa = JointPrior(fp, fm, ca, mean[:5], mean[5:])
            pb = JointPrior(fp, fm, cb, mean[:5], mean[5:])
            ours = pa.log_density(s1) - pb.log_density(s2)
            ref = oracle(s1, ca) - oracle(s2, cb)
            assert ours == pytest.approx(ref, rel=1e-8, abs=1e-8)


class TestCanonicalCross:
    def test_identity_marginals(self):
        flt = whitening_filter(np.eye(4), "principal_sqrt")
        prior = JointPrior(flt, flt, Contraction.scalar(0.5, 4))
        _, sv = canonical_cross(prior)
        np.testing.assert_allclose(sv, np.full(4, 0.5), rtol=1e-12)

    def test_principal_filters_reproduce_contraction(self, rng):
        gp, gm = random_spd(rng, 6), random_spd(rng, 6)
        c = Contraction.piecewise([0, 1, 2, 0, 1, 2], [0.5, -0.3, 0.8])
        prior = JointPrior(
            whitening_filter(gp, "principal_sqrt"),
            whitening_filter(gm, "principal_sqrt"), c,
        )
        w, _ = canonical_cross(prior)
        assert np.abs(w - c.as_matrix()).max() < 1e-9

    def test_cholesky_filters_preserve_singular_values(self, rng):
        gp, gm = random_spd(rng, 6), random_spd(rng, 6)
        c = Contraction.piecewise([0, 1, 2, 0, 1, 2], [0.5, -0.3, 0.8])
        prior = JointPrior(
            whitening_filter(gp, "cholesky"), whitening_filter(gm, "cholesky"), c,
        )
        _, sv = canonical_cross(prior)
        expected = np.sort(np.abs(np.diagonal(c.as_matrix())))[::-1]
        np.testing.assert_allclose(sv, expected, atol=1e-9)


class TestScalarPriorStationary:
    def test_saddle_point(self):
        v, grad, hess = scalar_prior_stationary(0.0, 0.0, 0.0)
        assert v == 0.0
        np.testing.assert_allclose(grad, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(hess, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_value_rises_towards_unit_correlation(self):
        values = [scalar_prior_stationary(1.0, 1.0, c)[0]
                  for c in (0.0, 0.5, 0.9, 0.99, 0.999)]
        assert np.all(np.diff(values) > 0)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            p, m = rng.normal(size=2)
            c = rng.uniform(-0.9, 0.9)
            _, grad, _ = scalar_prior_stationary(p, m, c)
            num = np.empty(3)
            for i, h in enumerate((1e-6, 1e-6, 1e-7)):
                d = np.zeros(3)
                d[i] = h
                vp = scalar_prior_stationary(p + d[0], m + d[1], c + d[2])[0]
                vm = scalar_prior_stationary(p - d[0], m - d[1], c - d[2])[0]
                num[i] = (vp - vm) / (2 * h)
            np.testing.assert_allclose(grad, num, atol=1e-6)

    def test_hessian_matches_finite_differences(self, rng):
        p, m, c = 0.4, -0.8, 0.35
        _, _, hess = scalar_prior_stationary(p, m, c)
        h = 1e-5
        num = np.empty((3, 3))
        for i in range(3):
            d = np.zeros(3)
            d[i] = h
            _, gp_, _ = scalar_prior_stationary(p + d[0], m + d[1], c + d[2])
            _, gm_, _ = scalar_prior_stationary(p - d[0], m - d[1], c - d[2])
            num[i] = (gp_ - gm_) / (2 * h)
        np.testing.assert_allclose(hess, 0.5 * (num + num.T), atol=1e-6)

    def test_out_of_range_correlation(self):
        with pytest.raises(ValueError):
            scalar_prior_stationary(0.0, 0.0, 1.0)


class TestCorrelationPrior:
    def test_value_at_zero(self):
        assert correlation_prior_logdensity(0.0) == pytest.approx(np.log(0.5), rel=1e-14)
        assert correlation_prior_logdensity([0.0, 0.0]) == pytest.approx(
            2 * np.log(0.5), rel=1e-14)

    def test_symmetry(self):
        for g in (0.2, 1.0, 5.0, 30.0):
            assert correlation_prior_logdensity(g) == correlation_prior_logdensity(-g)

    def test_pushforward_is_uniform(self):
        # inverse-CDF oracle: gamma = atanh(2u - 1) has the target density,
        # and tanh(gamma) must then be uniform on (-1, 1)
        rng = np.random.default_rng(123)
        u = rng.uniform(size=1000000)
        gamma = np.arctanh(2 * u - 1)
        ks = stats.kstest(np.tanh(gamma), stats.uniform(loc=-1, scale=2).cdf)
        assert ks.statistic < 0.005

    def test_matches_direct_formula_in_core_range(self):
        for g in (-3.0, -0.5, 0.0, 0.5, 3.0):
            direct = np.log(0.5 / np.cosh(g) ** 2)
            assert correlation_prior_logdensity(g) == pytest.approx(direct, rel=1e-12)

    def test_saturation_safe(self):
        val = correlation_prior_logdensity(500.0)
        assert np.isfinite(val)
        assert val == pytest.approx(np.log(2.0) - 2 * 500.0, rel=1e-12)


class TestReducedJointCovariance:
    def test_zero_contraction_identity(self, rng):
        gp, gm = random_spd(rng, 6), random_spd(rng, 5)
        bp, bm = kl_truncate(gp, 3), kl_truncate(gm, 2)
        zero = Contraction.paired_sparse([], [], [], (6, 5))
        np.testing.assert_allclose(reduced_joint_covariance(bp, bm, zero),
                                   np.eye(5), atol=1e-14)

    def test_cross_block_singular_values_bounded(self, rng):
        g = random_spd(rng, 7)
        bp = kl_truncate(g, 7)
        bm = kl_truncate(g, 7)
        ghat = reduced_joint_covariance(bp, bm, Contraction.scalar(0.6, 7))
        sv = np.linalg.svd(ghat[:7, 7:], compute_uv=False)
        assert sv.max() <= 0.6 + 1e-12
        cholesky_lower(ghat)  # SPD

    def test_reduced_sampling_matches_truncated_cross(self, rng):
        # fields rebuilt from reduced draws reproduce the basis-projected
        # cross-covariance of the principal-root construction
        gp, gm = random_spd(rng, 8), random_spd(rng, 8)
        c = Contraction.scalar(0.8, 8)
        bp, bm = kl_truncate(gp, 6), kl_truncate(gm, 6)
        ghat = reduced_joint_covariance(bp, bm, c)
        rchol = cholesky_lower(ghat)
        draws = rchol @ rng.standard_normal((12, 200000))
        p = bp.expand(draws[:6])
        m = bm.expand(draws[6:])
        empirical = p @ m.T / draws.shape[1]
        prior = JointPrior(whitening_filter(gp, "principal_sqrt"),
                           whitening_filter(gm, "principal_sqrt"), c)
        cross = prior.cross_covariance()
        projected = (bp.modes @ bp.modes.T) @ cross @ (bm.modes @ bm.modes.T)
        assert np.abs(empirical - projected).max() < 0.03


class TestStructuralInvariants:
    @given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 10**6))
    def test_logdet_decomposition(self, n1, n2, seed):
        rng = np.random.default_rng(seed)
        gp, gm = random_spd(rng, n1), random_spd(rng, n2)
        c = Contraction.dense(random_dense_contraction(rng, n1, n2))
        prior = JointPrior(whitening_filter(gp, "cholesky"),
                           whitening_filter(gm, "cholesky"), c)
        whole = np.linalg.slogdet(prior.dense_covariance())[1]
        parts = (np.linalg.slogdet(gp)[1] + np.linalg.slogdet(gm)[1]
                 + c.logdet_complement())
        assert whole == pytest.approx(parts, rel=1e-8, abs=1e-10)

    @given(st.integers(2, 10), st.integers(0, 10**6))
    def test_sign_symmetry_of_precision(self, n, seed):
        # flipping the contraction sign leaves the precision's diagonal
        # blocks unchanged and negates the off-diagonal blocks
        rng = np.random.default_rng(seed)
        gp, gm = random_spd(rng, n), random_spd(rng, n)
        c = rng.uniform(0.1, 0.95)
        fp = whitening_filter(gp, "principal_sqrt")
        fm = whitening_filter(gm, "cholesky")
        pos = np.linalg.inv(JointPrior(fp, fm, Contraction.scalar(c, n))
                            .dense_covariance())
        neg = np.linalg.inv(JointPrior(fp, fm, Contraction.scalar(-c, n))
                            .dense_covariance())
        assert np.abs(pos[:n, :n] - neg[:n, :n]).max() < 1e-9 * np.abs(pos).max()
        assert np.abs(pos[n:, n:] - neg[n:, n:]).max() < 1e-9 * np.abs(pos).max()
        assert np.abs(pos[:n, n:] + neg[:n, n:]).max() < 1e-9 * np.abs(pos).max()

    def test_whitening_consistency(self, rng):
        prior, _, _ = make_prior(rng, n1=7, n2=3, mean=True)
        eta = rng.standard_normal((10, 10)).T
        np.testing.assert_allclose(prior.whiten(prior.sample(eta)), eta, atol=1e-8)
