"""Regular triangulated lattice meshes, linear-Lagrange FEM assembly, and the
Darcy forward solver.

The lattice over [0, Lx] x [0, Ly] has nx * ny nodes ordered row-major from
(0, 0); every cell is split along its lower-left to upper-right diagonal,
giving 2 (nx-1) (ny-1) triangles.  Element matrices use the exact closed
forms for linear elements: constant gradients for the stiffness matrix,
A/12 (1 + delta_ij) for the mass matrix, and h/6 (1 + delta_ij) for the
boundary edge mass.

The Darcy solver factors its reduced stiffness matrix, which is symmetric
positive definite, as a band.  A sparse scatter matrix, fixed per lattice,
maps the per-element scales kappa_e / (4 A_e) to LAPACK lower-band storage,
each slot summing its element terms in element order, so the bands of a
whole stack of states come from one sparse product, as do their loads;
``dpbtrf``/``dpbtrs`` (banded Cholesky; Anderson et al., LAPACK Users'
Guide, 3rd ed., SIAM 1999) then factor and solve each band.  A single solve
raises FemAssemblyError on a failed check; a stacked solve flags the rows
that fail and leaves the others unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla  # noqa: F401  unused here; perfbench/tracing.py wraps spla.splu
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs


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

    The interior unknowns are numbered along the shorter lattice side, so the
    reduced stiffness matrix A_I has half-bandwidth min(nx, ny) - 1.  Mesh
    geometry, the interior mass rows and the scatter of element stiffness
    entries into the lower band of A_I are fixed per mesh.  The scatter is a
    sparse matrix S with band = S @ scale, scale_e = kappa_e / (4 A_e): it
    takes the band of one state or of every row of a stack in one product,
    and each slot sums its element terms in element order.  A solve then
    factors each band by banded Cholesky and solves.  ``solve`` (one state,
    which raises), ``solve_rows`` (a stack, which flags) and ``jacobian``
    share that one assembly and factorisation path.
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

        interior = mesh.interior_nodes
        if mesh.nx > mesh.ny:  # number along y, the shorter side
            interior = interior[np.lexsort((interior // mesh.nx, interior % mesh.nx))]
        self.interior = interior
        self._mass_i = self.mass[interior]
        n_i = interior.size
        pos = np.full(mesh.n_nodes, -1)
        pos[interior] = np.arange(n_i)
        # element entries k_e[a, b] that land in the lower band of A_I go to
        # the slot j (kd + 1) + i - j of the (kd + 1, n_I) lower-band storage,
        # flattened in Fortran order; each element puts at most one entry in
        # a slot
        i, j = pos[self._rows], pos[self._cols]
        lower = np.flatnonzero((j >= 0) & (i >= j))
        self._kd = int((i - j)[lower].max(initial=0))
        self._scatter = sp.csr_matrix(
            (self._bb.ravel()[lower], (j[lower] * (self._kd + 1) + (i - j)[lower], lower // 9)),
            shape=((self._kd + 1) * n_i, m))

    def element_means(self, p):
        """Vertex means of a nodal field on each element, of one field (n,)
        or of each row of a stack (k, n)."""
        return np.asarray(p, dtype=float)[..., self.mesh.triangles].mean(axis=-1)

    def _nodal(self, data):
        """Sparse n x n matrix from per-element 3 x 3 blocks."""
        n = self.mesh.n_nodes
        return sp.coo_matrix((data.ravel(), (self._rows, self._cols)), shape=(n, n)).tocsr()

    def _scales(self, p_elem):
        """kappa_e / (4 A_e), kappa_e = exp of the element mean of p."""
        return np.exp(p_elem) / self._area2**2 * self._area

    def _factor_solve(self, scales, m):
        """Assemble, factorise and solve the reduced system of each row of a
        stack of element scales (k, n_tri) and nodal m (k, n).  Returns
        the nodal heads u (k, n), NaN on a row that failed, each row's banded
        Cholesky factor of A_I (None when it failed or the mesh has no
        interior node), and each row's failed check (None when it passed):
        a non-finite band, a factor that is not positive definite, or a
        residual above 1e-10 |f|."""
        k, n_i, kd = len(scales), self.interior.size, self._kd
        u = np.zeros((k, self.mesh.n_nodes))
        chols = [None] * k
        errors = [None] * k
        if n_i == 0:
            return u, chols, errors
        # one row of the product per row of the stack, each band Fortran-ordered
        bands = np.ascontiguousarray((self._scatter @ scales.T).T)
        bands = bands.reshape(k, n_i, kd + 1).transpose(0, 2, 1)
        loads = (self._mass_i @ np.exp(m).T).T
        heads, resid = np.zeros((k, n_i)), np.zeros((k, n_i))
        for r, finite in enumerate(np.isfinite(bands).all(axis=(1, 2))):
            if not finite:
                errors[r] = "non-finite Darcy stiffness: exp(p) overflowed or p holds NaN"
                continue
            chols[r], info = dpbtrf(bands[r], lower=1)
            if info > 0:
                errors[r] = f"Darcy system not positive definite (leading minor {info})"
                continue
            heads[r] = dpbtrs(chols[r], loads[r, :, None], lower=1)[0][:, 0]
            resid[r] = dsbmv(kd, 1.0, bands[r], heads[r], lower=1) - loads[r]
        norms = np.sqrt(np.einsum("ki,ki->k", resid, resid))
        limits = 1e-10 * np.maximum(np.sqrt(np.einsum("ki,ki->k", loads, loads)), 1e-300)
        for r in np.flatnonzero(~(norms <= limits)):  # also catches NaN
            errors[r] = errors[r] or f"Darcy solve residual too large: {norms[r]:.3e}"
        u[:, self.interior] = heads
        failed = [error is not None for error in errors]
        u[failed] = np.nan
        return u, [None if f else chol for f, chol in zip(failed, chols)], errors

    def _solve_one(self, p, m):
        """``_factor_solve`` of one nodal state, with its element scales; a
        failed check raises FemAssemblyError."""
        mesh = self.mesh
        p = np.asarray(p, dtype=float)
        m = np.asarray(m, dtype=float)
        if p.shape != (mesh.n_nodes,) or m.shape != (mesh.n_nodes,):
            raise ValueError(
                f"fields must be nodal with length {mesh.n_nodes}, "
                f"got {p.shape} and {m.shape}"
            )
        scales = self._scales(self.element_means(p))
        u, (chol,), (error,) = self._factor_solve(scales[None], m[None])
        if error is not None:
            raise FemAssemblyError(error)
        return u[0], chol, scales

    def solve(self, p, m):
        return self._solve_one(p, m)[0]

    def solve_rows(self, p_elem, m):
        """Heads u (k, n) of each row of a stack of element means of p
        (k, n_tri) and nodal m (k, n), and the mask of the rows that passed
        the solver's checks; a failed row reads NaN and raises nothing."""
        u, _, errors = self._factor_solve(self._scales(np.asarray(p_elem, dtype=float)),
                                          np.asarray(m, dtype=float))
        return u, np.array([e is None for e in errors], dtype=bool)

    def jacobian(self, p, m, obs):
        """Tangent-linear derivatives of the observed head obs @ u(p, m) with
        respect to the nodal p and m, as two (q, n) blocks.

        One adjoint solve Z = A_I^-1 obs_I^T (A is symmetric) serves both:
        d/dm = Z^T M_I diag(e^m), and d/dp = -Z^T Q_I with
        Q[i, j] = sum over elements e holding i and j of (k_e u_e)_i / 3,
        since kappa_e = exp(mean of p on e), with k_e = kappa_e / (4 A_e) bb_e
        the element stiffness matrices.
        """
        u, chol, scales = self._solve_one(p, m)
        idx = self.interior
        z = obs[:, idx].T
        if z.size:
            z = dpbtrs(chol, z, lower=1)[0]
        k_elem = scales[:, None, None] * self._bb
        ku = np.einsum("eab,eb->ea", k_elem, u[self.mesh.triangles]) / 3.0
        q = self._nodal(np.broadcast_to(ku[:, :, None], k_elem.shape))
        jac_m = (self._mass_i.T @ z).T * np.exp(m)
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
