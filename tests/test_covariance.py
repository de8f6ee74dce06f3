import numpy as np
import pytest

from jointprior.covariance import (KernelConfig, PdePriorConfig,
                                   fem_precision_filter, kl_truncate,
                                   sqexp_covariance, whitening_filter)
from jointprior.linalg import FactorizationError, cholesky_lower
from jointprior.mesh_fem import build_lattice_mesh

from conftest import random_spd


class TestSqexpCovariance:
    def test_zero_distance_unit_diagonal(self):
        cov = sqexp_covariance([0.0, 1.0], KernelConfig(0.5, nugget=1e-8))
        assert cov[0, 0] == pytest.approx(1.0 + 1e-8, abs=1e-16)

    def test_one_correlation_length(self):
        cov = sqexp_covariance([0.0, 0.1], KernelConfig(0.1, nugget=0.0))
        assert cov[0, 1] == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert cov[0, 1] == pytest.approx(0.606531, abs=5e-7)

    def test_grid_is_positive_definite(self):
        pts = np.linspace(0.0, 1.0, 50)
        cov = sqexp_covariance(pts, KernelConfig(0.1, nugget=1e-8))
        cholesky_lower(cov)  # succeeds

    def test_duplicate_points_zero_nugget_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            sqexp_covariance([0.0, 0.3, 0.3], KernelConfig(0.1, nugget=0.0))

    def test_2d_points(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.4]])
        cov = sqexp_covariance(pts, KernelConfig(0.5, nugget=0.0))
        assert cov[0, 1] == pytest.approx(np.exp(-0.5 * (0.5 / 0.5) ** 2))


class TestWhiteningFilter:
    @pytest.mark.parametrize("kind", ["cholesky", "principal_sqrt"])
    def test_identity(self, kind):
        flt = whitening_filter(np.eye(3), kind)
        np.testing.assert_allclose(flt.apply(np.eye(3)), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("kind", ["cholesky", "principal_sqrt"])
    def test_scalar(self, kind):
        flt = whitening_filter(np.array([[4.0]]), kind)
        np.testing.assert_allclose(flt.apply(np.eye(1)), [[0.5]], rtol=1e-14)

    @pytest.mark.parametrize("kind", ["cholesky", "principal_sqrt"])
    def test_round_trip(self, rng, kind):
        cov = random_spd(rng, 8)
        flt = whitening_filter(cov, kind)
        gap = flt.apply_t(flt.apply(np.eye(8))) @ cov - np.eye(8)
        assert np.linalg.norm(gap) / np.sqrt(8) < 1e-8

    def test_indefinite_rejected(self):
        with pytest.raises(FactorizationError):
            whitening_filter(np.diag([1.0, -1.0]), "cholesky")
        with pytest.raises(FactorizationError):
            whitening_filter(np.diag([1.0, -1.0]), "principal_sqrt")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            whitening_filter(np.eye(2), "qr")

    @pytest.mark.parametrize("kind", ["cholesky", "principal_sqrt"])
    def test_apply_solve_inverse_pair(self, rng, kind):
        cov = random_spd(rng, 6)
        flt = whitening_filter(cov, kind)
        x = rng.standard_normal((6, 3))
        np.testing.assert_allclose(flt.solve(flt.apply(x)), x, atol=1e-10)
        np.testing.assert_allclose(flt.apply_t(flt.solve_t(x)), x, atol=1e-10)

    def test_sampling_covariance_converges(self, rng):
        # colouring white noise through L^{-1} reproduces the covariance
        cov = random_spd(rng, 12)
        cov *= 1.0 / np.sqrt(np.outer(np.diagonal(cov), np.diagonal(cov)))
        flt = whitening_filter(cov, "cholesky")
        draws = flt.solve(rng.standard_normal((12, 200000)))
        empirical = draws @ draws.T / draws.shape[1]
        assert np.abs(empirical - cov).max() < 0.02


class TestFemPrecisionFilter:
    @pytest.mark.parametrize("a1,a2,a3,theta", [
        (4e-2, 1.0, 0.125, None),
        (1.0, 1.0, 0.125, np.diag([1.0, 0.025])),
        (1.5, 30.0, 7.5, None),
    ])
    def test_reference_configurations(self, a1, a2, a3, theta):
        mesh = build_lattice_mesh(20, 10, 2.0, 1.0)
        cfg = PdePriorConfig(a1, a2, a3) if theta is None else PdePriorConfig(a1, a2, a3, theta)
        flt = fem_precision_filter(mesh, cfg)
        x = np.ones(flt.dim)
        np.testing.assert_allclose(flt.apply(flt.solve(x)), x, atol=1e-10)

    def test_singular_coefficients_rejected(self):
        with pytest.raises(ValueError, match="a2"):
            PdePriorConfig(1.0, 0.0, 0.0)

    def test_indefinite_theta_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            PdePriorConfig(1.0, 1.0, 0.0, np.diag([1.0, -1.0]))

    def test_dense_covariance_matches_double_solve(self):
        mesh = build_lattice_mesh(11, 9, 2.0, 1.0)  # 99 nodes
        flt = fem_precision_filter(mesh, PdePriorConfig(0.5, 2.0, 0.25))
        dense_l = flt.apply(np.eye(flt.dim))
        oracle = np.linalg.inv(dense_l @ dense_l)
        cov = flt.covariance()
        assert np.linalg.norm(cov - oracle) / np.linalg.norm(oracle) < 1e-8


class TestKlTruncate:
    def test_full_truncation_captures_everything(self, rng):
        cov = random_spd(rng, 6)
        basis = kl_truncate(cov, 6)
        assert basis.captured_fraction == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_capture_arithmetic(self):
        basis = kl_truncate(np.diag([4.0, 1.0, 0.01]), 1)
        assert basis.captured_fraction == pytest.approx(4.0 / 5.01, rel=1e-12)
        np.testing.assert_allclose(basis.scales, [2.0])

    def test_out_of_range_rejected(self, rng):
        cov = random_spd(rng, 4)
        with pytest.raises(ValueError):
            kl_truncate(cov, 0)
        with pytest.raises(ValueError):
            kl_truncate(cov, 5)

    def test_monotone_capture(self, rng):
        cov = random_spd(rng, 10)
        fractions = [kl_truncate(cov, k).captured_fraction for k in range(1, 11)]
        assert np.all(np.diff(fractions) >= -1e-14)

    def test_modes_orthonormal_and_best_rank_k(self, rng):
        cov = random_spd(rng, 9)
        basis = kl_truncate(cov, 3)
        assert np.abs(basis.modes.T @ basis.modes - np.eye(3)).max() < 1e-10
        approx = (basis.modes * basis.scales**2) @ basis.modes.T
        w = np.linalg.eigvalsh(cov)[::-1]
        best = np.sqrt(np.sum(w[3:] ** 2))  # Frobenius error of the best rank-3 approx
        assert np.linalg.norm(approx - cov) == pytest.approx(best, rel=1e-9)

    def test_reference_scale_capture_fractions(self):
        # 50 x 25 lattice on [0,2]x[0,1]: leading 50 squared-exponential modes
        # capture ~99%+ of the trace, leading 100 elliptic-prior modes ~94%
        mesh = build_lattice_mesh(50, 25, 2.0, 1.0)
        cov_p = sqexp_covariance(mesh.nodes, KernelConfig(0.3))
        assert kl_truncate(cov_p, 50).captured_fraction >= 0.99
        flt = fem_precision_filter(mesh, PdePriorConfig(1.5, 30.0, 7.5))
        frac_m = kl_truncate(flt.covariance(), 100).captured_fraction
        assert frac_m == pytest.approx(0.94, abs=0.015)

    def test_expand_project_round_trip(self, rng):
        cov = random_spd(rng, 8)
        basis = kl_truncate(cov, 8)
        coeff = rng.standard_normal(8)
        np.testing.assert_allclose(basis.project(basis.expand(coeff)), coeff, atol=1e-9)
