import numpy as np
import pytest

from jointprior.forward_models import (CokrigeModel, DarcyModel, ForwardModelError,
                                       MonodModel, ReducedFieldMap, ReducedModel,
                                       cokrige_forward, fd_jacobian,
                                       monod_forward)
from jointprior.covariance import KernelConfig, kl_truncate, sqexp_covariance
from jointprior.experiments import darcy
from jointprior.experiments.configs import DarcyConfig, load_config
from jointprior.mesh_fem import (FemAssemblyError, build_lattice_mesh,
                                 point_observation_operator)

from test_mesh_fem import poisson_unit_square_oracle

SUBSTRATE = np.array([28.0, 55.0, 83.0, 110.0, 138.0, 225.0, 375.0])


class TestMonod:
    def test_zero_half_velocity(self):
        np.testing.assert_allclose(monod_forward(0.7, 0.0, SUBSTRATE), 0.7)

    def test_reference_point(self):
        mu = monod_forward(0.7, 65.0, SUBSTRATE)
        assert mu[0] == pytest.approx(19.6 / 93.0, rel=1e-12)
        assert mu[0] == pytest.approx(0.210753, abs=5e-7)

    def test_zero_population(self):
        np.testing.assert_array_equal(monod_forward(0.0, 65.0, SUBSTRATE), np.zeros(7))

    def test_singular_denominator(self):
        with pytest.raises(ForwardModelError):
            monod_forward(0.7, -28.0, SUBSTRATE)

    def test_model_wrapper(self):
        model = MonodModel(SUBSTRATE)
        assert model.q == 7
        assert not model.is_linear
        np.testing.assert_allclose(model([0.7, 65.0]), monod_forward(0.7, 65.0, SUBSTRATE))

    def test_predict_rows_matches_calls_and_flags_singular_rows(self, rng):
        model = MonodModel(SUBSTRATE)
        rows = np.column_stack([rng.uniform(0.0, 1.2, 20), rng.uniform(2.0, 122.0, 20)])
        rows[7, 1] = -SUBSTRATE[2]  # m + S_3 = 0
        rows[11, 1] = -SUBSTRATE[0] + 1e-13
        predicted, ok = model.predict_rows(rows)
        np.testing.assert_array_equal(ok, ~np.isin(np.arange(20), [7, 11]))
        for row, mu in zip(rows[ok], predicted[ok]):
            np.testing.assert_array_equal(mu, model(row))
        assert np.all(np.isnan(predicted[~ok]))
        with pytest.raises(ForwardModelError):
            model(rows[11])


class TestCokrige:
    def make(self, rng):
        b1 = rng.standard_normal((3, 6))
        b2 = rng.standard_normal((2, 4))
        return CokrigeModel(b1, b2)

    def test_zero_fields(self, rng):
        model = self.make(rng)
        np.testing.assert_array_equal(model(np.zeros(10)), np.zeros(5))

    def test_unit_field_selection(self):
        mesh = build_lattice_mesh(4, 4, 1.0, 1.0)
        op = point_observation_operator(mesh, [[0.2, 0.2], [0.8, 0.9]])
        model = CokrigeModel(op.matrix, op.matrix)
        np.testing.assert_array_equal(model(np.ones(2 * mesh.n_nodes)), np.ones(4))

    def test_linearity(self, rng):
        model = self.make(rng)
        s = rng.standard_normal(10)
        np.testing.assert_allclose(model(2.5 * s), 2.5 * model(s), rtol=1e-12)
        np.testing.assert_allclose(model(s), model.matrix @ s, rtol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="shape"):
            cokrige_forward(np.zeros(3), np.zeros(4), rng.standard_normal((2, 5)),
                            rng.standard_normal((2, 4)))


class TestDarcyModel:
    def setup_model(self, nx=17, ny=17):
        mesh = build_lattice_mesh(nx, ny, 1.0, 1.0)
        b1 = point_observation_operator(mesh, [[0.5, 0.5], [0.25, 0.75]])
        b2 = point_observation_operator(mesh, [[0.75, 0.25]])
        return mesh, DarcyModel(mesh, b1.matrix, b2.matrix), b2

    def test_direct_block_selects_p_exactly(self, rng):
        mesh, model, b2 = self.setup_model()
        p = rng.standard_normal(mesh.n_nodes)
        m = rng.standard_normal(mesh.n_nodes)
        out = model(np.concatenate([p, m]))
        np.testing.assert_array_equal(out[2:], p[b2.node_indices])

    def test_uniform_head_matches_series_oracle(self):
        mesh, model, _ = self.setup_model(41, 41)
        out = model(np.zeros(2 * mesh.n_nodes))
        assert abs(out[0] - poisson_unit_square_oracle(0.5, 0.5)) < 2e-3

    def test_shift_invariance_of_head(self, rng):
        mesh, model, _ = self.setup_model(9, 9)
        p = rng.standard_normal(mesh.n_nodes)
        m = rng.standard_normal(mesh.n_nodes)
        base = model(np.concatenate([p, m]))
        shifted = model(np.concatenate([p + 0.9, m + 0.9]))
        np.testing.assert_allclose(shifted[:2], base[:2], rtol=1e-10)
        np.testing.assert_allclose(shifted[2:], base[2:] + 0.9, rtol=1e-12)


class TestFdJacobian:
    def test_linear_model_exact(self, rng):
        b1 = rng.standard_normal((3, 4))
        b2 = rng.standard_normal((2, 3))
        model = CokrigeModel(b1, b2)
        jac = fd_jacobian(model, rng.standard_normal(7))
        np.testing.assert_allclose(jac, model.matrix, atol=1e-9)

    def test_monod_partial_derivative(self):
        model = MonodModel(SUBSTRATE)
        jac = fd_jacobian(model, np.array([0.7, 65.0]))
        assert jac[0, 0] == pytest.approx(28.0 / 93.0, abs=1e-8)
        assert jac[0, 0] == pytest.approx(0.301075, abs=5e-7)

    def test_second_order_convergence(self):
        model = MonodModel(SUBSTRATE)
        x0 = np.array([0.7, 65.0])
        exact = model.jacobian(x0)
        errs = [np.abs(fd_jacobian(model, x0, h_rel=h) - exact).max()
                for h in (1e-2, 5e-3, 2.5e-3)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_matches_analytic_on_grid(self):
        model = MonodModel(SUBSTRATE)
        for p in (0.2, 0.7, 1.3):
            for m in (5.0, 40.0, 120.0):
                x = np.array([p, m])
                gap = np.abs(fd_jacobian(model, x) - model.jacobian(x)).max()
                assert gap < 1e-6

    def test_stacked_direct_rows_ignore_m(self, rng):
        mesh = build_lattice_mesh(7, 5, 1.0, 1.0)
        cov = sqexp_covariance(mesh.nodes, KernelConfig(0.4))
        bp = kl_truncate(cov, 4)
        bm = kl_truncate(cov, 3)
        b1 = point_observation_operator(mesh, [[0.5, 0.5]])
        b2 = point_observation_operator(mesh, [[0.25, 0.5], [0.75, 0.5]])
        model = ReducedModel(
            DarcyModel(mesh, b1.matrix, b2.matrix),
            ReducedFieldMap(bp, bm, np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes)),
        )
        jac = fd_jacobian(model, np.zeros(7))
        np.testing.assert_allclose(jac[1:, 4:], np.zeros((2, 3)), atol=1e-12)

    def test_failure_names_coordinate(self):
        def fragile(x):
            if abs(x[1]) > 1e-8:
                raise ForwardModelError("outside the admissible region")
            return np.array([x[0] ** 2])

        with pytest.raises(ForwardModelError, match="coordinate 1"):
            fd_jacobian(fragile, np.zeros(2))

        def non_finite(x):
            return np.array([np.inf if x[0] > 0 else 0.0])

        with pytest.raises(ForwardModelError, match="coordinate 0"):
            fd_jacobian(non_finite, np.zeros(1))

    def test_programming_error_keeps_its_type(self):
        def shape_bug(x):
            raise ValueError("operands could not be broadcast together")

        with pytest.raises(ValueError) as err:
            fd_jacobian(shape_bug, np.zeros(2))
        assert type(err.value) is ValueError


@pytest.fixture(scope="module")
def desk_darcy():
    return darcy.build_problem(load_config(DarcyConfig, None, {"seed": 7}))


def desk_points(problem, seed):
    """A reduced point and the stacked nodal fields it expands to."""
    x = np.random.default_rng(seed).standard_normal(problem["family"].dim)
    return x, np.concatenate(problem["field_map"].expand(x))


class TestTangentLinearJacobian:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_darcy_matches_central_differences(self, desk_darcy, seed):
        x, s = desk_points(desk_darcy, seed)
        for model, point in ((desk_darcy["model"], s), (desk_darcy["reduced_model"], x)):
            oracle = fd_jacobian(model, point)
            jac = model.jacobian(point)
            assert jac.shape == oracle.shape
            assert np.abs(jac - oracle).max() < 1e-7 * np.abs(oracle).max()

    @pytest.mark.parametrize("which", ["model", "reduced_model"])
    def test_taylor_remainder_is_second_order(self, desk_darcy, which):
        model = desk_darcy[which]
        x, s = desk_points(desk_darcy, 3)
        point = s if which == "model" else x
        v = np.random.default_rng(4).standard_normal(point.size)
        f0, jv = model(point), model.jacobian(point) @ v
        remainders = [np.linalg.norm(model(point + h * v) - f0 - h * jv)
                      for h in (1e-1, 1e-2, 1e-3, 1e-4)]
        orders = -np.diff(np.log10(remainders))
        assert np.all(np.abs(orders - 2.0) < 0.1), orders

    def test_direct_rows_are_the_selection(self, desk_darcy):
        model = desk_darcy["model"]
        _, s = desk_points(desk_darcy, 5)
        q1, n = model.b1.shape
        jac = model.jacobian(s)
        np.testing.assert_array_equal(jac[q1:, :n], model.b2)
        np.testing.assert_array_equal(jac[q1:, n:], 0.0)

    def test_cokrige_jacobian_is_its_matrix(self, rng):
        model = CokrigeModel(rng.standard_normal((3, 4)), rng.standard_normal((2, 3)))
        np.testing.assert_array_equal(model.jacobian(rng.standard_normal(7)), model.matrix)

    def test_non_finite_jacobian_raises(self):
        with pytest.raises(ForwardModelError, match="non-finite"):
            MonodModel(SUBSTRATE).jacobian(np.array([0.7, -28.0]))


class TestStackedPredictions:
    """``predict_rows`` scores a block of proposals in one stacked
    evaluation; it must agree with the models called row by row."""

    def test_matches_row_by_row_calls(self, desk_darcy_stack):
        problem, draws = desk_darcy_stack
        reduced, model = problem["reduced_model"], problem["model"]
        p, m = (np.stack(f) for f in zip(*map(problem["field_map"].expand, draws)))
        for (predicted, ok), expected in (
                (reduced.predict_rows(draws), [reduced(x) for x in draws]),
                (model.predict_fields(p, m, model.solver.element_means(p)),
                 [model(np.concatenate(s)) for s in zip(p, m)])):
            assert ok.all()
            np.testing.assert_allclose(predicted, expected, rtol=1e-12, atol=0.0)

    def test_overflowing_row_is_flagged_alone(self, desk_darcy_stack):
        problem, draws = desk_darcy_stack
        model = problem["reduced_model"]
        bad = draws[0].copy()
        bad[0] = 1e4  # p = 1e4 x the first mode: exp overflows
        predicted, ok = model.predict_rows(draws)
        with np.errstate(over="ignore", invalid="ignore"):
            with_bad, ok_bad = model.predict_rows(np.insert(draws, 5, bad, axis=0))
            with pytest.raises(FemAssemblyError, match="non-finite"):
                model(bad)
        np.testing.assert_array_equal(ok_bad, np.arange(33) != 5)
        # the GEMMs of the expansion see one more row: equal to round-off
        np.testing.assert_allclose(np.delete(with_bad, 5, axis=0), predicted,
                                   rtol=1e-12, atol=0.0)


class TestReducedFieldMap:
    def test_expand_project_round_trip(self, rng):
        mesh = build_lattice_mesh(6, 5, 1.0, 1.0)
        cov = sqexp_covariance(mesh.nodes, KernelConfig(0.4))
        bp = kl_truncate(cov, 5)
        bm = kl_truncate(cov, 4)
        fmap = ReducedFieldMap(bp, bm, rng.standard_normal(30), rng.standard_normal(30))
        shat = rng.standard_normal(9)
        p, m = fmap.expand(shat)
        back = np.concatenate([bp.project(p - fmap.mean_p), bm.project(m - fmap.mean_m)])
        np.testing.assert_allclose(back, shat, atol=1e-9)
