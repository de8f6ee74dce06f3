"""Joint prior sampling studies.

Three studies on the rectangle [0, lx] x [0, ly]:

* study (a): elliptic-prior field p and squared-exponential field m on the
  same lattice, homogeneous strong positive correlation;
* study (b): same marginals, correlation +c on the left half and -c on the
  right half of the domain;
* mixed-dimension study: anisotropic elliptic-prior field over the rectangle
  coupled to a 1-D squared-exponential field on the bottom boundary through
  a node-pairing contraction.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..covariance import (KernelConfig, PdePriorConfig, fem_precision_filter,
                          sqexp_covariance, whitening_filter)
from ..io_utils import save_table_csv
from ..joint_prior import Contraction, JointPrior
from ..mesh_fem import build_lattice_mesh
from .common import StageTimer, write_manifest, write_plot_script, write_timings
from .configs import config_dict

PLOT = """\
#!/usr/bin/env python3
\"\"\"Render the joint prior samples written by the sample-prior run.\"\"\"
import os
import numpy as np
import matplotlib.pyplot as plt

os.chdir(os.path.dirname(os.path.abspath(__file__)))

shared = np.loadtxt("shared_lattice_samples.csv", delimiter=",", skiprows=1)
nx, ny = int(shared[:, 0].max()) + 1, int(shared[:, 1].max()) + 1
n_samples = (shared.shape[1] - 4) // 3
fig, axes = plt.subplots(3, n_samples, figsize=(4 * n_samples, 7), constrained_layout=True)
rows = ["p", "m (homogeneous c)", "m (split-sign c)"]
for k in range(n_samples):
    for r in range(3):
        f = shared[:, 4 + 3 * k + r].reshape(ny, nx)
        ax = axes[r, k] if n_samples > 1 else axes[r]
        im = ax.pcolormesh(f)
        ax.set_title(f"{rows[r]}, sample {k + 1}")
        fig.colorbar(im, ax=ax)
fig.savefig("shared_lattice_samples.png", dpi=150)

mixed = np.loadtxt("mixed_boundary_samples.csv", delimiter=",", skiprows=1)
n_samples = (mixed.shape[1] - 1) // 2
fig, axes = plt.subplots(1, n_samples, figsize=(4 * n_samples, 3), constrained_layout=True)
for k in range(n_samples):
    ax = axes[k] if n_samples > 1 else axes
    ax.plot(mixed[:, 0], mixed[:, 1 + 2 * k], label="p on boundary")
    ax.plot(mixed[:, 0], mixed[:, 2 + 2 * k], label="m")
    ax.set_title(f"sample {k + 1}")
    ax.legend()
fig.savefig("mixed_boundary_samples.png", dpi=150)
print("wrote shared_lattice_samples.png, mixed_boundary_samples.png")
"""


def run(cfg, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timer = StageTimer()
    rng = np.random.default_rng(cfg.seed)

    # shared-lattice studies (a) and (b)
    mesh = build_lattice_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    n = mesh.n_nodes
    filter_p = fem_precision_filter(
        mesh, PdePriorConfig(cfg.pde_a1, cfg.pde_a2, cfg.pde_a3)
    )
    gamma_m = sqexp_covariance(mesh.nodes, KernelConfig(cfg.kernel_length, cfg.nugget))
    filter_m = whitening_filter(gamma_m, "principal_sqrt")

    c_hom = Contraction.scalar(cfg.correlation, n)
    labels = (mesh.nodes[:, 0] > cfg.lx / 2.0).astype(int)
    c_split = Contraction.piecewise(labels, [cfg.correlation, -cfg.correlation])

    prior_a = JointPrior(filter_p, filter_m, c_hom)
    prior_b = JointPrior(filter_p, filter_m, c_split)

    cols = [mesh.nodes[:, 0] * 0, mesh.nodes[:, 1] * 0, mesh.nodes[:, 0], mesh.nodes[:, 1]]
    cols[0] = np.arange(n) % cfg.nx          # lattice i-index
    cols[1] = np.arange(n) // cfg.nx         # lattice j-index
    header = ["ix", "iy", "x", "y"]
    for k in range(cfg.n_samples):
        eta = rng.standard_normal(2 * n)
        sa = prior_a.sample(eta)
        sb = prior_b.sample(eta)            # same driving noise: isolates the correlation
        cols += [sa[:n], sa[n:], sb[n:]]
        header += [f"p_{k}", f"m_homogeneous_{k}", f"m_split_{k}"]
    save_table_csv(out_dir / "shared_lattice_samples.csv", cols, header)
    timer.mark("shared_lattice")

    # mixed-dimension study: rectangle field coupled to its bottom boundary
    mesh2 = build_lattice_mesh(cfg.nx_mixed, cfg.ny_mixed, cfg.lx, cfg.ly)
    theta = np.diag([1.0, cfg.mixed_theta_y])
    filter_p2 = fem_precision_filter(
        mesh2, PdePriorConfig(cfg.mixed_pde_a1, cfg.mixed_pde_a2, cfg.mixed_pde_a3, theta)
    )
    bottom = np.nonzero(mesh2.nodes[:, 1] == 0.0)[0]
    xs = mesh2.nodes[bottom, 0]
    gamma_b = sqexp_covariance(xs, KernelConfig(cfg.mixed_kernel_length, cfg.nugget))
    filter_b = whitening_filter(gamma_b, "principal_sqrt")
    pairing = Contraction.paired_sparse(
        rows=bottom, cols=np.arange(bottom.size),
        values=np.full(bottom.size, cfg.mixed_correlation),
        shape=(mesh2.n_nodes, bottom.size),
    )
    prior_mixed = JointPrior(filter_p2, filter_b, pairing)

    mixed_cols = [xs]
    mixed_header = ["x"]
    field_cols = [mesh2.nodes[:, 0], mesh2.nodes[:, 1]]
    field_header = ["x", "y"]
    for k in range(cfg.n_samples):
        s = prior_mixed.sample(rng.standard_normal(prior_mixed.n))
        p_field, m_field = s[: mesh2.n_nodes], s[mesh2.n_nodes :]
        mixed_cols += [p_field[bottom], m_field]
        mixed_header += [f"p_on_boundary_{k}", f"m_{k}"]
        field_cols.append(p_field)
        field_header.append(f"p_{k}")
    save_table_csv(out_dir / "mixed_boundary_samples.csv", mixed_cols, mixed_header)
    save_table_csv(out_dir / "mixed_field_samples.csv", field_cols, field_header)
    timer.mark("mixed_boundary")

    write_plot_script(out_dir, PLOT)
    write_manifest(out_dir, "sample-prior", config_dict(cfg), extras={
        "outputs": [
            "shared_lattice_samples.csv", "mixed_boundary_samples.csv",
            "mixed_field_samples.csv", "plot.py",
        ],
        "shared_lattice_nodes": n,
        "mixed_nodes": mesh2.n_nodes,
        "mixed_boundary_nodes": int(bottom.size),
    })
    write_timings(out_dir, timer.total())
    return {"nodes": n, "mixed_nodes": mesh2.n_nodes}
