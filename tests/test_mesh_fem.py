import numpy as np
import pytest

from jointprior.forward_models import fd_jacobian
from jointprior.mesh_fem import (DarcySolver, FemAssemblyError, Mesh,
                                 assemble_fem_matrices, build_lattice_mesh,
                                 point_observation_operator)


def poisson_unit_square_oracle(x, y, terms=100):
    """Fourier series for -lap(u) = 1 on the unit square, u = 0 on the boundary:
    u = (16/pi^4) sum_{odd j,k} sin(j pi x) sin(k pi y) / (j k (j^2 + k^2))."""
    total = 0.0
    for j in range(1, 2 * terms, 2):
        for k in range(1, 2 * terms, 2):
            total += (
                np.sin(j * np.pi * x) * np.sin(k * np.pi * y)
                / (j * k * (j * j + k * k))
            )
    return 16.0 / np.pi**4 * total


def single_triangle_mesh():
    """Unit right triangle (0,0)-(1,0)-(0,1) as a one-element mesh."""
    return Mesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
        boundary_nodes=np.array([0, 1, 2]),
        nx=2, ny=2, lx=1.0, ly=1.0,
    )


class TestLattice:
    def test_smallest_lattice(self):
        mesh = build_lattice_mesh(2, 2, 1.0, 1.0)
        assert mesh.n_nodes == 4
        assert mesh.n_triangles == 2

    def test_count_formula(self):
        mesh = build_lattice_mesh(26, 50, 1.0, 2.0)
        assert mesh.n_nodes == 26 * 50
        assert mesh.n_triangles == 2 * 25 * 49

    def test_reference_mesh_counts(self):
        mesh = build_lattice_mesh(50, 25, 2.0, 1.0)
        assert mesh.n_nodes == 1250
        assert mesh.n_triangles == 2352

    def test_row_major_ordering_from_origin(self):
        mesh = build_lattice_mesh(3, 2, 2.0, 1.0)
        np.testing.assert_allclose(mesh.nodes[0], [0.0, 0.0])
        np.testing.assert_allclose(mesh.nodes[1], [1.0, 0.0])
        np.testing.assert_allclose(mesh.nodes[3], [0.0, 1.0])

    def test_positive_triangle_areas(self):
        mesh = build_lattice_mesh(7, 5, 2.0, 1.0)
        p = mesh.nodes[mesh.triangles]
        area2 = (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )
        assert np.all(area2 > 0)

    def test_boundary_edges_close_the_rectangle(self):
        mesh = build_lattice_mesh(5, 4, 1.0, 1.0)
        assert len(mesh.boundary_edges) == 2 * (5 - 1) + 2 * (4 - 1)
        assert set(np.unique(mesh.boundary_edges)) == set(mesh.boundary_nodes)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            build_lattice_mesh(1, 5)


class TestAssembly:
    def test_unit_right_triangle_stiffness(self):
        # gradients (-1,-1), (1,0), (0,1) on area 1/2 give the classic matrix
        fem = assemble_fem_matrices(single_triangle_mesh())
        expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        np.testing.assert_allclose(fem.stiffness.toarray(), expected, atol=1e-14)

    def test_unit_right_triangle_mass(self):
        fem = assemble_fem_matrices(single_triangle_mesh())
        area = 0.5
        expected = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        np.testing.assert_allclose(fem.mass.toarray(), expected, atol=1e-15)

    def test_boundary_edge_mass(self):
        fem = assemble_fem_matrices(single_triangle_mesh())
        b = fem.boundary_mass.toarray()
        # edge (0,1) has length 1, edge (1,2) length sqrt(2), edge (2,0) length 1
        h = np.sqrt(2.0)
        assert b[0, 1] == pytest.approx(1.0 / 6.0)
        assert b[1, 2] == pytest.approx(h / 6.0)
        assert b[1, 1] == pytest.approx(1.0 / 3.0 + h / 3.0)

    def test_constant_field_in_stiffness_kernel(self):
        mesh = build_lattice_mesh(9, 7, 2.0, 1.0)
        fem = assemble_fem_matrices(mesh, theta=np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert np.abs(fem.stiffness @ np.ones(mesh.n_nodes)).max() < 1e-12

    def test_total_mass_is_domain_area(self):
        mesh = build_lattice_mesh(8, 6, 2.0, 1.0)
        fem = assemble_fem_matrices(mesh)
        one = np.ones(mesh.n_nodes)
        assert one @ (fem.mass @ one) == pytest.approx(2.0, abs=1e-10)

    def test_symmetry(self):
        mesh = build_lattice_mesh(6, 5, 1.0, 1.0)
        rng = np.random.default_rng(0)
        fem = assemble_fem_matrices(mesh, coeff=np.exp(rng.standard_normal(mesh.n_triangles)))
        k = fem.stiffness.toarray()
        assert np.abs(k - k.T).max() < 1e-12

    def test_degenerate_triangle_named(self):
        mesh = single_triangle_mesh()
        bad = Mesh(
            nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
            triangles=np.array([[0, 1, 2]]),
            boundary_edges=mesh.boundary_edges,
            boundary_nodes=mesh.boundary_nodes,
            nx=2, ny=2, lx=2.0, ly=1.0,
        )
        with pytest.raises(FemAssemblyError, match="triangle 0"):
            assemble_fem_matrices(bad)

    def test_coefficient_length_validated(self):
        mesh = build_lattice_mesh(3, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="coefficient"):
            assemble_fem_matrices(mesh, coeff=np.ones(3))


class TestDarcySolve:
    def test_uniform_problem_matches_series_oracle(self):
        mesh = build_lattice_mesh(41, 41, 1.0, 1.0)
        u = DarcySolver(mesh).solve(np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes))
        center = np.argmin(np.linalg.norm(mesh.nodes - [0.5, 0.5], axis=1))
        oracle = poisson_unit_square_oracle(0.5, 0.5)
        assert oracle == pytest.approx(0.07367, abs=5e-6)
        assert abs(u[center] - oracle) < 2e-3

    def test_boundary_values_exactly_zero(self):
        mesh = build_lattice_mesh(9, 7, 2.0, 1.0)
        rng = np.random.default_rng(1)
        u = DarcySolver(mesh).solve(rng.standard_normal(mesh.n_nodes),
                                    rng.standard_normal(mesh.n_nodes))
        assert np.all(u[mesh.boundary_nodes] == 0.0)

    def test_common_shift_cancels(self):
        mesh = build_lattice_mesh(8, 6, 2.0, 1.0)
        rng = np.random.default_rng(2)
        p = rng.standard_normal(mesh.n_nodes)
        m = rng.standard_normal(mesh.n_nodes)
        u1 = DarcySolver(mesh).solve(p, m)
        u2 = DarcySolver(mesh).solve(p + 1.7, m + 1.7)
        np.testing.assert_allclose(u1, u2, rtol=1e-10, atol=1e-14)

    def test_monotone_refinement(self):
        oracle = poisson_unit_square_oracle(0.5, 0.5)
        errors = []
        for nx in (11, 21, 41):
            mesh = build_lattice_mesh(nx, nx, 1.0, 1.0)
            u = DarcySolver(mesh).solve(np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes))
            center = np.argmin(np.linalg.norm(mesh.nodes - [0.5, 0.5], axis=1))
            errors.append(abs(u[center] - oracle))
        assert errors[0] > errors[1] > errors[2]

    def test_discrete_maximum_principle(self):
        mesh = build_lattice_mesh(13, 9, 2.0, 1.0)
        rng = np.random.default_rng(3)
        u = DarcySolver(mesh).solve(0.5 * rng.standard_normal(mesh.n_nodes),
                                    0.5 * rng.standard_normal(mesh.n_nodes))
        assert np.all(u >= -1e-12)

    def test_galerkin_reduced_system_symmetric(self):
        mesh = build_lattice_mesh(7, 6, 1.0, 1.0)
        rng = np.random.default_rng(4)
        coeff = np.exp(rng.standard_normal(mesh.n_triangles))
        k = assemble_fem_matrices(mesh, coeff=coeff).stiffness.toarray()
        idx = mesh.interior_nodes
        reduced = k[np.ix_(idx, idx)]
        assert np.abs(reduced - reduced.T).max() < 1e-12

    def test_solver_reuse_matches_one_shot(self):
        mesh = build_lattice_mesh(9, 5, 2.0, 1.0)
        rng = np.random.default_rng(5)
        solver = DarcySolver(mesh)
        for _ in range(3):
            p = rng.standard_normal(mesh.n_nodes)
            m = rng.standard_normal(mesh.n_nodes)
            np.testing.assert_array_equal(solver.solve(p, m),
                                          DarcySolver(mesh).solve(p, m))

    # nx > ny numbers the unknowns along y, nx <= ny along x
    @pytest.mark.parametrize("nx,ny", [(11, 6), (6, 11), (7, 7)])
    def test_matches_dense_reduced_solve(self, nx, ny):
        mesh = build_lattice_mesh(nx, ny, 2.0, 1.0)
        rng = np.random.default_rng(nx * ny)
        p = rng.standard_normal(mesh.n_nodes)
        m = rng.standard_normal(mesh.n_nodes)
        kappa = np.exp(p[mesh.triangles].mean(axis=1))
        fem = assemble_fem_matrices(mesh, coeff=kappa)
        idx = mesh.interior_nodes
        a_red = fem.stiffness.toarray()[np.ix_(idx, idx)]
        expected = np.zeros(mesh.n_nodes)
        expected[idx] = np.linalg.solve(a_red, (fem.mass @ np.exp(m))[idx])
        solver = DarcySolver(mesh)
        assert solver._kd == min(nx, ny) - 1  # half-bandwidth of A_I
        u = solver.solve(p, m)
        assert np.abs(u - expected).max() < 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("nx,ny", [(2, 6), (6, 2), (2, 2)])
    def test_no_interior_gives_zero_head(self, nx, ny):
        mesh = build_lattice_mesh(nx, ny, 1.0, 1.0)
        rng = np.random.default_rng(8)
        solver = DarcySolver(mesh)
        p = rng.standard_normal(mesh.n_nodes)
        m = rng.standard_normal(mesh.n_nodes)
        np.testing.assert_array_equal(solver.solve(p, m), 0.0)
        jac_p, jac_m = solver.jacobian(p, m, np.eye(mesh.n_nodes)[:3])
        np.testing.assert_array_equal(jac_p, 0.0)
        np.testing.assert_array_equal(jac_m, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, 1e4])  # NaN, and exp overflows
    def test_non_finite_fields_raise(self, bad):
        mesh = build_lattice_mesh(7, 5, 2.0, 1.0)
        solver = DarcySolver(mesh)
        zero = np.zeros(mesh.n_nodes)
        field = zero.copy()
        field[10] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FemAssemblyError, match="non-finite"):
                solver.solve(field, zero)
            with pytest.raises(FemAssemblyError, match="residual"):  # a non-finite load
                solver.solve(zero, field)

    @pytest.mark.parametrize("nx,ny", [(8, 5), (5, 8)])
    def test_jacobian_matches_central_differences(self, nx, ny):
        mesh = build_lattice_mesh(nx, ny, 2.0, 1.0)
        rng = np.random.default_rng(9)
        solver = DarcySolver(mesh)
        n = mesh.n_nodes
        obs = point_observation_operator(mesh, rng.uniform([0, 0], [2, 1], size=(4, 2))).matrix
        s = 0.5 * rng.standard_normal(2 * n)
        oracle = fd_jacobian(lambda x: obs @ solver.solve(x[:n], x[n:]), s)
        jac = np.hstack(solver.jacobian(s[:n], s[n:], obs))
        assert np.abs(jac - oracle).max() < 1e-7 * np.abs(oracle).max()

    def test_shape_validation(self):
        mesh = build_lattice_mesh(4, 4, 1.0, 1.0)
        with pytest.raises(ValueError, match="nodal"):
            DarcySolver(mesh).solve(np.zeros(3), np.zeros(mesh.n_nodes))


class TestObservationOperator:
    def test_exact_node_is_one_hot(self):
        mesh = build_lattice_mesh(5, 4, 2.0, 1.0)
        op = point_observation_operator(mesh, [mesh.nodes[7]])
        expected = np.zeros(mesh.n_nodes)
        expected[7] = 1.0
        np.testing.assert_array_equal(op.matrix[0], expected)
        np.testing.assert_array_equal(op.snapped[0], mesh.nodes[7])

    def test_applies_to_fields(self):
        mesh = build_lattice_mesh(6, 5, 1.0, 1.0)
        rng = np.random.default_rng(6)
        field = rng.standard_normal(mesh.n_nodes)
        op = point_observation_operator(mesh, [[0.31, 0.52], [0.9, 0.1]])
        np.testing.assert_array_equal(op.matrix @ field, field[op.node_indices])
        np.testing.assert_array_equal(op(field), field[op.node_indices])

    def test_snapping_reported(self):
        mesh = build_lattice_mesh(3, 3, 1.0, 1.0)
        op = point_observation_operator(mesh, [[0.26, 0.26]])
        np.testing.assert_allclose(op.requested[0], [0.26, 0.26])
        np.testing.assert_allclose(op.snapped[0], [0.5, 0.5])

    def test_outside_domain_rejected(self):
        mesh = build_lattice_mesh(3, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            point_observation_operator(mesh, [[1.2, 0.5]])

    def test_rows_are_one_hot(self):
        mesh = build_lattice_mesh(10, 5, 2.0, 1.0)
        rng = np.random.default_rng(7)
        pts = rng.uniform([0, 0], [2, 1], size=(20, 2))
        op = point_observation_operator(mesh, pts)
        np.testing.assert_array_equal(op.matrix.sum(axis=1), np.ones(20))
        assert np.all((op.matrix == 0) | (op.matrix == 1))
