import numpy as np
import pytest
from hypothesis import given, strategies as st

from jointprior import linalg
from jointprior.covariance import whitening_filter
from jointprior.joint_prior import Contraction
from jointprior.linalg import (ContractionError, FactorizationError,
                               cholesky_lower, logdet_spd, spectral_norm,
                               sym_eig)

from conftest import random_dense_contraction, random_spd


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_lower(np.eye(3)), np.eye(3))

    def test_hand_computed_2x2(self):
        # [[4,2],[2,3]] factors as [[2,0],[1,sqrt(2)]]; R R^T reproduces A
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        r = cholesky_lower(a)
        np.testing.assert_allclose(r, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=1e-15)
        np.testing.assert_allclose(r @ r.T, a, rtol=1e-15)

    def test_indefinite_reports_pivot(self):
        with pytest.raises(FactorizationError) as err:
            cholesky_lower(np.diag([2.0, 1.0, -1e-6]))
        assert err.value.pivot == 2
        assert "pivot 2" in str(err.value)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            cholesky_lower(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize("a", [
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, np.inf], [0.0, 1.0]],  # inf skew against an inf bound
    ])
    def test_non_finite_rejected(self, a):
        with pytest.raises(ValueError, match="K has non-finite entries") as err:
            cholesky_lower(np.array(a), name="K")
        assert not isinstance(err.value, FactorizationError)

    @given(st.integers(2, 30), st.integers(0, 10**6))
    def test_reconstruction_property(self, n, seed):
        a = random_spd(np.random.default_rng(seed), n)
        r = cholesky_lower(a)
        err = np.linalg.norm(r @ r.T - a) / np.linalg.norm(a)
        assert err < 1e-10
        assert np.all(np.diagonal(r) > 0)
        assert np.allclose(np.triu(r, 1), 0.0)


def principal_sqrt(a):
    """The colouring root of a principal-square-root whitening filter."""
    return whitening_filter(a, "principal_sqrt").solve(np.eye(a.shape[0]))


class TestPrincipalSqrt:
    def test_identity(self):
        np.testing.assert_allclose(principal_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            principal_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), rtol=1e-14
        )

    def test_square_reproduces(self, rng):
        a = random_spd(rng, 5)
        s = principal_sqrt(a)
        assert np.linalg.norm(s @ s - a) / np.linalg.norm(a) < 1e-9
        np.testing.assert_allclose(s, s.T, atol=1e-14)

    def test_commutes_with_input(self, rng):
        a = random_spd(rng, 7)
        s = principal_sqrt(a)
        assert np.linalg.norm(s @ a - a @ s) / np.linalg.norm(a) < 1e-9

    def test_indefinite_rejected(self):
        with pytest.raises(FactorizationError):
            principal_sqrt(np.diag([1.0, -0.1]))


class TestSymEig:
    def test_diagonal_descending(self):
        w, _ = sym_eig(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(w, [3.0, 2.0, 1.0])

    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-10)

    def test_2x2_characteristic_roots(self):
        # det([[2-l,1],[1,2-l]]) = l^2 - 4l + 3 -> eigenvalues 3 and 1
        w, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [3.0, 1.0], rtol=1e-12)

    def test_reconstruction_and_orthonormality(self, rng):
        a = random_spd(rng, 9)
        w, v = sym_eig(a)
        assert np.linalg.norm((v * w) @ v.T - a) / np.linalg.norm(a) < 1e-9
        assert np.abs(v.T @ v - np.eye(9)).max() < 1e-10
        assert np.all(np.diff(w) <= 0)


class TestSpectralNorm:
    def test_zero(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_scaled_identity(self):
        assert spectral_norm(0.999 * np.eye(4)) == pytest.approx(0.999, abs=1e-14)

    def test_column_vector(self):
        assert spectral_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0, rel=1e-14)


def dense_defect(con):
    """Dense defect operator D of a contraction: its defect filter's colouring map."""
    return con.defect().solve(np.eye(con.shape[1]))


class TestDefectFactor:
    def test_zero_contraction(self):
        np.testing.assert_allclose(dense_defect(Contraction.scalar(0.0, 3)), np.eye(3))

    def test_diagonal_closed_form(self):
        d = dense_defect(Contraction.piecewise([0, 1], [0.6, 0.8]))
        np.testing.assert_array_equal(d, np.diag(np.sqrt([1.0 - 0.6**2, 1.0 - 0.8**2])))

    def test_dense_rectangular_identity(self, rng):
        c = random_dense_contraction(rng, 3, 2)
        d = dense_defect(Contraction.dense(c))
        assert np.abs(d @ d.T + c.T @ c - np.eye(2)).max() < 1e-12
        assert np.linalg.matrix_rank(d) == 2

    def test_non_contraction_rejected(self):
        with pytest.raises(ContractionError) as err:
            Contraction.dense(np.diag([1.0 - 1e-13]))
        assert err.value.sigma_max == pytest.approx(1.0 - 1e-13)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10**6))
    def test_defect_identity_property(self, n1, n2, seed):
        c = random_dense_contraction(np.random.default_rng(seed), n1, n2, sigma=0.97)
        d = dense_defect(Contraction.dense(c))
        assert np.abs(d @ d.T + c.T @ c - np.eye(n2)).max() < 1e-12


class TestLogdetSpd:
    def test_identity(self):
        assert logdet_spd(np.eye(5)) == 0.0

    def test_diagonal(self):
        assert logdet_spd(np.diag([np.e, np.e])) == pytest.approx(2.0, rel=1e-14)

    def test_matches_eigenvalue_oracle(self, rng):
        a = random_spd(rng, 6)
        w, _ = sym_eig(a)
        oracle = float(np.sum(np.log(w)))
        assert logdet_spd(a) == pytest.approx(oracle, rel=1e-9)

    def test_indefinite_rejected(self):
        with pytest.raises(FactorizationError):
            logdet_spd(np.diag([1.0, -2.0]))


class TestDeterminantIdentities:
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 10**6))
    def test_gram_complement_sides_agree(self, n1, n2, seed):
        # det(I - C C^T) = det(I - C^T C) for rectangular contractions
        c = random_dense_contraction(np.random.default_rng(seed), n1, n2)
        left = np.linalg.slogdet(np.eye(n1) - c @ c.T)[1]
        right = np.linalg.slogdet(np.eye(n2) - c.T @ c)[1]
        assert abs(left - right) <= 1e-9 * max(abs(left), 1e-6)

    def test_diagonal_product_formula(self, rng):
        vals = rng.uniform(-0.99, 0.99, 12)
        c = np.diag(vals)
        oracle = np.linalg.slogdet(np.eye(12) - c @ c.T)[1]
        assert abs(oracle - np.sum(np.log1p(-vals**2))) < 1e-12
