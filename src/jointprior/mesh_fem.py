"""Regular triangulated lattice meshes, linear-Lagrange FEM assembly, and the
Darcy forward solver.

The lattice over [0, Lx] x [0, Ly] has nx * ny nodes ordered row-major from
(0, 0); every cell is split along its lower-left to upper-right diagonal,
giving 2 (nx-1) (ny-1) triangles.  Element matrices use the exact closed
forms for linear elements: constant gradients for the stiffness matrix,
A/12 (1 + delta_ij) for the mass matrix, and h/6 (1 + delta_ij) for the
boundary edge mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class FemAssemblyError(ValueError):
    pass


@dataclass(frozen=True)
class Mesh:
    nodes: np.ndarray           # (n, 2) coordinates
    triangles: np.ndarray       # (m, 3) vertex indices, counterclockwise
    boundary_edges: np.ndarray  # (e, 2) node-index pairs on the rectangle boundary
    boundary_nodes: np.ndarray  # sorted indices of boundary nodes
    nx: int
    ny: int
    lx: float
    ly: float

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def interior_nodes(self):
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes] = False
        return np.nonzero(mask)[0]


def build_lattice_mesh(nx, ny, lx=1.0, ly=1.0):
    """Regular triangulated lattice with nx * ny nodes on [0, lx] x [0, ly]."""
    if nx < 2 or ny < 2:
        raise ValueError(f"need nx, ny >= 2, got nx={nx}, ny={ny}")
    if lx <= 0 or ly <= 0:
        raise ValueError(f"domain lengths must be positive, got lx={lx}, ly={ly}")
    xs = np.linspace(0.0, lx, nx)
    ys = np.linspace(0.0, ly, ny)
    xx, yy = np.meshgrid(xs, ys)            # row-major: index = iy * nx + ix
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    ix, iy = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1))
    n00 = (iy * nx + ix).ravel()
    n10 = n00 + 1
    n01 = n00 + nx
    n11 = n01 + 1
    lower = np.column_stack([n00, n10, n11])  # below the diagonal n00 -> n11
    upper = np.column_stack([n00, n11, n01])
    triangles = np.vstack([lower, upper])

    bottom = np.column_stack([np.arange(nx - 1), np.arange(1, nx)])
    top = bottom + (ny - 1) * nx
    left = np.column_stack([np.arange(ny - 1) * nx, np.arange(1, ny) * nx])
    right = left + (nx - 1)
    boundary_edges = np.vstack([bottom, right, top, left])

    on_boundary = (
        (np.arange(nx * ny) % nx == 0)
        | (np.arange(nx * ny) % nx == nx - 1)
        | (np.arange(nx * ny) < nx)
        | (np.arange(nx * ny) >= (ny - 1) * nx)
    )
    boundary_nodes = np.nonzero(on_boundary)[0]

    return Mesh(
        nodes=nodes, triangles=triangles, boundary_edges=boundary_edges,
        boundary_nodes=boundary_nodes, nx=nx, ny=ny, lx=float(lx), ly=float(ly),
    )


@dataclass(frozen=True)
class FemMatrices:
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    boundary_mass: sp.csr_matrix


def _triangle_geometry(mesh):
    tri = mesh.triangles
    x = mesh.nodes[tri, 0]
    y = mesh.nodes[tri, 1]
    # b_i = y_j - y_k and c_i = x_k - x_j for cyclic (i, j, k)
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    area2 = np.einsum("ij,ij->i", x, b)
    bad = np.nonzero(area2 <= 1e-14)[0]
    if bad.size:
        raise FemAssemblyError(f"degenerate triangle {bad[0]} (signed doubled area {area2[bad[0]]:.3e})")
    return b, c, area2


def assemble_fem_matrices(mesh, theta=None, coeff=None):
    """Assemble stiffness K (with 2x2 anisotropy theta and optional per-element
    coefficient), mass M, and boundary mass B as sparse CSR matrices."""
    n = mesh.n_nodes
    b, c, area2 = _triangle_geometry(mesh)
    area = 0.5 * area2
    theta = np.eye(2) if theta is None else np.asarray(theta, dtype=float)
    if coeff is None:
        coeff = np.ones(mesh.n_triangles)
    else:
        coeff = np.asarray(coeff, dtype=float)
        if coeff.shape != (mesh.n_triangles,):
            raise ValueError(
                f"per-element coefficient has length {coeff.shape}, expected {mesh.n_triangles}"
            )

    # gradients of the barycentric basis: grad phi_i = (b_i, c_i) / (2 A)
    scale = coeff / area2**2 * area  # = coeff / (4 A)
    k_elem = scale[:, None, None] * (
        theta[0, 0] * b[:, :, None] * b[:, None, :]
        + theta[0, 1] * (b[:, :, None] * c[:, None, :] + c[:, :, None] * b[:, None, :])
        + theta[1, 1] * c[:, :, None] * c[:, None, :]
    )
    m_elem = (area / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))

    tri = mesh.triangles
    rows = np.broadcast_to(tri[:, :, None], (mesh.n_triangles, 3, 3)).ravel()
    cols = np.broadcast_to(tri[:, None, :], (mesh.n_triangles, 3, 3)).ravel()
    stiffness = sp.coo_matrix((k_elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    mass = sp.coo_matrix((m_elem.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    edges = mesh.boundary_edges
    h = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
    b_elem = (h / 6.0)[:, None, None] * (np.ones((2, 2)) + np.eye(2))
    erows = np.broadcast_to(edges[:, :, None], (edges.shape[0], 2, 2)).ravel()
    ecols = np.broadcast_to(edges[:, None, :], (edges.shape[0], 2, 2)).ravel()
    boundary_mass = sp.coo_matrix((b_elem.ravel(), (erows, ecols)), shape=(n, n)).tocsr()

    return FemMatrices(stiffness=stiffness, mass=mass, boundary_mass=boundary_mass)


class DarcySolver:
    """Galerkin solver for -div(exp(p) grad u) = exp(m), u = 0 on the boundary.

    Mesh geometry, the mass matrix, and the stiffness sparsity pattern are
    cached so repeated solves (MCMC) only reassemble stiffness data.
    ``solve`` and ``jacobian`` share one stiffness assembly and one
    factorisation path.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self._b, self._c, self._area2 = _triangle_geometry(mesh)
        self._area = 0.5 * self._area2
        tri = mesh.triangles
        m = mesh.n_triangles
        self._rows = np.broadcast_to(tri[:, :, None], (m, 3, 3)).ravel()
        self._cols = np.broadcast_to(tri[:, None, :], (m, 3, 3)).ravel()
        self._bb = self._b[:, :, None] * self._b[:, None, :] + self._c[:, :, None] * self._c[:, None, :]
        self.mass = assemble_fem_matrices(mesh).mass
        self.interior = mesh.interior_nodes

    def _nodal(self, data):
        """Sparse n x n matrix from per-element 3 x 3 blocks."""
        n = self.mesh.n_nodes
        return sp.coo_matrix((data.ravel(), (self._rows, self._cols)), shape=(n, n)).tocsr()

    def _factor_solve(self, p, m):
        """Assemble, factorise and solve the reduced system.  Returns the
        nodal head u, the factorisation of A_I and the element stiffness
        matrices k_e = kappa_e / (4 A_e) bb_e."""
        mesh = self.mesh
        p = np.asarray(p, dtype=float)
        m = np.asarray(m, dtype=float)
        if p.shape != (mesh.n_nodes,) or m.shape != (mesh.n_nodes,):
            raise ValueError(
                f"fields must be nodal with length {mesh.n_nodes}, "
                f"got {p.shape} and {m.shape}"
            )
        # per-element permeability: exp of the vertex mean of p
        kappa = np.exp(p[mesh.triangles].mean(axis=1))
        scale = kappa / self._area2**2 * self._area
        k_elem = scale[:, None, None] * self._bb

        load = self.mass @ np.exp(m)
        idx = self.interior
        a_red = self._nodal(k_elem)[idx][:, idx].tocsc()
        f_red = load[idx]
        try:
            lu = spla.splu(a_red)
            u_red = lu.solve(f_red)
        except RuntimeError as exc:
            raise FemAssemblyError(f"singular Darcy system: {exc}") from exc
        resid = np.linalg.norm(a_red @ u_red - f_red)
        if resid > 1e-10 * max(np.linalg.norm(f_red), 1e-300):
            raise FemAssemblyError(f"Darcy solve residual too large: {resid:.3e}")
        u = np.zeros(mesh.n_nodes)
        u[idx] = u_red
        return u, lu, k_elem

    def solve(self, p, m):
        return self._factor_solve(p, m)[0]

    def jacobian(self, p, m, obs):
        """Tangent-linear derivatives of the observed head obs @ u(p, m) with
        respect to the nodal p and m, as two (q, n) blocks.

        One adjoint solve Z = A_I^-1 obs_I^T (A is symmetric) serves both:
        d/dm = Z^T M_I diag(e^m), and d/dp = -Z^T Q_I with
        Q[i, j] = sum over elements e holding i and j of (k_e u_e)_i / 3,
        since kappa_e = exp(mean of p on e).
        """
        u, lu, k_elem = self._factor_solve(p, m)
        idx = self.interior
        z = lu.solve(obs[:, idx].T)
        ku = np.einsum("eab,eb->ea", k_elem, u[self.mesh.triangles]) / 3.0
        q = self._nodal(np.broadcast_to(ku[:, :, None], k_elem.shape))
        jac_m = (self.mass[idx].T @ z).T * np.exp(m)
        jac_p = -(q[idx].T @ z).T
        return jac_p, jac_m


@dataclass(frozen=True)
class ObservationOperator:
    """Pointwise nearest-node selection matrix with the snap bookkeeping."""

    matrix: np.ndarray        # (q, n) one-hot rows
    node_indices: np.ndarray  # (q,) selected node per requested location
    requested: np.ndarray     # (q, 2)
    snapped: np.ndarray       # (q, 2) coordinates of the selected nodes

    def __call__(self, field):
        return np.asarray(field, dtype=float)[self.node_indices]


def point_observation_operator(mesh, locations):
    """Selection operator picking the mesh node nearest to each location.

    Locations must lie inside the closed domain; each row of the matrix is
    exactly one-hot, and the snapped coordinates are recorded.
    """
    loc = np.atleast_2d(np.asarray(locations, dtype=float))
    if loc.shape[1] != 2:
        raise ValueError(f"locations must be (q, 2), got {loc.shape}")
    tol = 1e-9 * max(mesh.lx, mesh.ly)
    out = (
        (loc[:, 0] < -tol) | (loc[:, 0] > mesh.lx + tol)
        | (loc[:, 1] < -tol) | (loc[:, 1] > mesh.ly + tol)
    )
    if np.any(out):
        i = int(np.nonzero(out)[0][0])
        raise ValueError(
            f"location {i} at {tuple(loc[i])} is outside [0, {mesh.lx}] x [0, {mesh.ly}]"
        )
    d2 = ((loc[:, None, :] - mesh.nodes[None, :, :]) ** 2).sum(axis=2)
    idx = np.argmin(d2, axis=1)
    matrix = np.zeros((loc.shape[0], mesh.n_nodes))
    matrix[np.arange(loc.shape[0]), idx] = 1.0
    return ObservationOperator(
        matrix=matrix, node_indices=idx, requested=loc.copy(), snapped=mesh.nodes[idx].copy()
    )
