"""Groundwater study: joint inversion for log-permeability and log-recharge
from head observations and direct permeability measurements.

The truth pair is drawn from the full joint prior with a different
correlation on each half of the domain.  Inference runs in truncated-basis
coordinates.  Every chain, independent (c held at 0) and joint, starts at a
Gauss-Newton warm start.  The warm start takes its Jacobians from the
tangent-linear model (``ReducedModel.jacobian``): one factorisation and one
adjoint solve each.  ``c_steps`` picks the kernel of both chains.  With 0
(the default) each iteration of the joint chain takes one independence move
of the correlation and the field together: c' from a table of the evidence
of the model linearised at the warm start (its Jacobian and forward value,
so no extra solve) and s' from that model's exact conditional at c'; the
Metropolis-Hastings weights of a block of 32 proposals come from one stacked
forward evaluation (``ReducedModel.predict_rows``: the fields expanded by
one GEMM each, one sparse product for all the bands and one for all the
loads, then one banded factor and solve per proposal).  The independent
chain takes the same move with c' = 0.  With ``c_steps`` >= 1
(``scripts/paper_scale_configs/darcy_full.json``, where a global proposal is
rarely accepted) each chain takes one pCN field step per iteration about the
same linearised conditional at the current c, and the joint chain
``c_steps`` centred Metropolis steps on the two correlation coordinates at
the fixed field.
Every chain samples from the one built problem, forked when there are several.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from ..covariance import (KernelConfig, PdePriorConfig, fem_precision_filter,
                          kl_truncate, sqexp_covariance, whitening_filter)
from ..diagnostics import error_metrics
from ..forward_models import DarcyModel, ReducedFieldMap, ReducedModel
from ..inference import NoiseModel, ReducedJointFamily, gauss_newton_map, mwg_run
from ..io_utils import (save_kl_basis_csv, save_matrix_csv, save_mesh_csv,
                        save_table_csv, write_json)
from ..joint_prior import Contraction, JointPrior
from ..mesh_fem import build_lattice_mesh, point_observation_operator
from .common import (StageTimer, chain_ess, chain_summary, field_ess, interior_grid,
                     range_noise_std, run_chains, save_correlation_histogram_csv,
                     save_fields_csv, save_observation_csv, well_points,
                     write_manifest, write_plot_script, write_timings)
from .configs import config_dict, mwg_config

PLOT = """\
#!/usr/bin/env python3
\"\"\"Render the groundwater study outputs.\"\"\"
import os
import numpy as np
import matplotlib.pyplot as plt

os.chdir(os.path.dirname(os.path.abspath(__file__)))

fields = np.loadtxt("fields.csv", delimiter=",", skiprows=1)
with open("fields.csv") as fh:
    names = fh.readline().strip().split(",")
nx = int(np.unique(fields[:, 1]).size)
ny = int(np.unique(fields[:, 2]).size)
def grid(col):
    return fields[:, names.index(col)].reshape(ny, nx)

shown = ["truth_p", "cm_p_independent", "cm_p_joint",
         "truth_m", "cm_m_independent", "cm_m_joint",
         "std_m_independent", "std_m_joint", "d_m"]
fig, axes = plt.subplots(3, 3, figsize=(13, 8), constrained_layout=True)
for ax, name in zip(axes.ravel(), shown):
    im = ax.pcolormesh(grid(name))
    ax.set_title(name)
    fig.colorbar(im, ax=ax)
fig.savefig("fields.png", dpi=150)

cc = np.loadtxt("c_chain.csv", delimiter=",", skiprows=1)
fig, axes = plt.subplots(1, 3, figsize=(12, 3.2), constrained_layout=True)
axes[0].hist2d(cc[:, 0], cc[:, 1], bins=50, range=[[-1, 1], [-1, 1]])
axes[0].set_xlabel("c1"); axes[0].set_ylabel("c2")
axes[1].hist(cc[:, 0], bins=50, range=(-1, 1), density=True)
axes[1].set_title("c1")
axes[2].hist(cc[:, 1], bins=50, range=(-1, 1), density=True)
axes[2].set_title("c2")
fig.savefig("correlation.png", dpi=150)
print("wrote fields.png, correlation.png")
"""


def build_problem(cfg):
    rng = np.random.default_rng(cfg.seed)
    mesh = build_lattice_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    n = mesh.n_nodes

    cov_p = sqexp_covariance(mesh.nodes, KernelConfig(cfg.kernel_length, cfg.nugget))
    filter_p = whitening_filter(cov_p, "principal_sqrt")
    filter_m = fem_precision_filter(
        mesh, PdePriorConfig(cfg.pde_a1, cfg.pde_a2, cfg.pde_a3)
    )
    cov_m = filter_m.covariance()

    labels = (mesh.nodes[:, 0] > cfg.split_x).astype(int)
    contraction = Contraction.piecewise(labels, [0.0, 0.0])
    prior_true = JointPrior(filter_p, filter_m, contraction.with_values(cfg.c_true))
    truth = prior_true.sample(rng.standard_normal(2 * n))
    truth_p, truth_m = truth[:n], truth[n:]

    basis_p = kl_truncate(cov_p, cfg.k_p)
    basis_m = kl_truncate(cov_m, cfg.k_m)
    family = ReducedJointFamily(basis_p, basis_m, contraction)
    field_map = ReducedFieldMap(basis_p, basis_m, np.zeros(n), np.zeros(n))

    obs_u = point_observation_operator(
        mesh, interior_grid(0.0, cfg.lx, 0.0, cfg.ly, cfg.u_obs_nx, cfg.u_obs_ny)
    )
    obs_p = point_observation_operator(
        mesh, well_points(cfg.lx, cfg.ly, cfg.p_wells, cfg.p_per_well)
    )
    model = DarcyModel(mesh, obs_u.matrix, obs_p.matrix)
    reduced_model = ReducedModel(model, field_map)

    clean = model(truth)
    q1 = obs_u.matrix.shape[0]
    noise = NoiseModel(
        range_noise_std(clean[:q1], cfg.noise_pct_u), q1,
        range_noise_std(clean[q1:], cfg.noise_pct_p), clean.size - q1,
    )
    d = clean + noise.sample(rng)

    return {
        "mesh": mesh, "family": family, "field_map": field_map, "clean": clean,
        "model": model, "reduced_model": reduced_model, "noise": noise, "d": d,
        "truth_p": truth_p, "truth_m": truth_m, "obs_u": obs_u, "obs_p": obs_p,
        "basis_p": basis_p, "basis_m": basis_m,
        "prior_trace_p": float(np.trace(cov_p)),
        "prior_trace_m": float(np.trace(cov_m)),
    }


def warm_start(problem):
    """Gauss-Newton MAP in the reduced coordinates under the identity prior
    precision, the prior at c = 0: its point starts every chain, its
    Jacobian and forward value are the linearisation that every move of
    either chain is taken from."""
    k = problem["family"].dim
    return gauss_newton_map(
        problem["reduced_model"], problem["d"], problem["noise"],
        prior_mean=np.zeros(k), prior_precision=np.eye(k),
    )


def _run_single_chain(problem, mcfg, start, joint, chain_seed):
    """One chain on the built problem, c sampled (``joint``) or held at 0;
    only the seed varies.  It starts at the warm start ``start`` (a
    ``GaussNewtonResult``), whose linearisation either kernel takes its
    moves from."""
    return mwg_run(
        problem["reduced_model"], problem["family"], problem["noise"], problem["d"],
        replace(mcfg, seed=int(chain_seed)), sample_correlation=joint,
        init_state=start.point, reference=start,
    )


def run(cfg, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timer = StageTimer()
    problem = build_problem(cfg)
    mesh = problem["mesh"]
    family = problem["family"]
    basis_p, basis_m = problem["basis_p"], problem["basis_m"]
    kp = basis_p.k
    n = mesh.n_nodes
    timer.mark("setup")

    start = warm_start(problem)
    timer.mark("warm_start")

    chain = partial(_run_single_chain, problem, mwg_config(cfg), start)
    seed_pairs = np.random.SeedSequence(cfg.seed).generate_state(2 * cfg.n_chains)
    chains_ind = run_chains(partial(chain, False), seed_pairs[: cfg.n_chains])
    timer.mark("mcmc_independent")
    chains_joint = run_chains(partial(chain, True), seed_pairs[cfg.n_chains :])
    timer.mark("mcmc_joint")

    corr = np.vstack([ch.corr for ch in chains_joint])
    field_map = problem["field_map"]
    summary_ind = chain_summary([ch.states for ch in chains_ind], n, field_map)
    summary_joint = chain_summary([ch.states for ch in chains_joint], n, field_map)

    ess_c1 = float(sum(chain_ess(ch.corr[:, 0]) for ch in chains_joint))
    ess_c2 = float(sum(chain_ess(ch.corr[:, 1]) for ch in chains_joint))
    metrics_joint = error_metrics(
        problem["truth_p"], problem["truth_m"], summary_joint,
        problem["prior_trace_p"], problem["prior_trace_m"], independent=summary_ind,
        ess_values={
            "c1": ess_c1, "c2": ess_c2,
            "p_first_mode": chain_ess(chains_joint[0].states[:, 0]),
            "m_first_mode": chain_ess(chains_joint[0].states[:, kp]),
            **field_ess(chains_joint, kp),
        },
        acceptance=chains_joint[0].acceptance_rates(),
    )
    metrics_ind = error_metrics(
        problem["truth_p"], problem["truth_m"], summary_ind,
        problem["prior_trace_p"], problem["prior_trace_m"],
        ess_values={
            "p_first_mode": chain_ess(chains_ind[0].states[:, 0]),
            "m_first_mode": chain_ess(chains_ind[0].states[:, kp]),
            **field_ess(chains_ind, kp),
        },
        acceptance=chains_ind[0].acceptance_rates(),
    )
    c_medians = np.median(corr, axis=0)
    timer.mark("metrics")

    save_mesh_csv(out_dir, mesh)
    save_kl_basis_csv(out_dir / "basis_p.csv", basis_p)
    save_kl_basis_csv(out_dir / "basis_m.csv", basis_m)
    save_fields_csv(out_dir, problem, summary_ind, summary_joint)
    q1 = problem["noise"].q1
    d, clean = problem["d"], problem["clean"]
    save_observation_csv(out_dir / "obs_u.csv", problem["obs_u"], d[:q1], clean[:q1])
    save_observation_csv(out_dir / "obs_p.csv", problem["obs_p"], d[q1:], clean[q1:])
    save_table_csv(out_dir / "c_chain.csv", [corr[:, 0], corr[:, 1]], ["c1", "c2"])
    for i in (0, 1):
        save_correlation_histogram_csv(out_dir / f"c{i + 1}_histogram.csv", corr[:, i])
    joint_hist, xedges, yedges = np.histogram2d(
        corr[:, 0], corr[:, 1], bins=50, range=[[-1, 1], [-1, 1]]
    )
    save_matrix_csv(out_dir / "c_joint_histogram.csv", joint_hist,
                    comment="rows: c1 bins on (-1,1); cols: c2 bins on (-1,1)")
    save_table_csv(
        out_dir / "chain_reduced.csv",
        [chains_joint[0].states[:, j] for j in range(family.dim)]
        + [chains_joint[0].corr[:, 0], chains_joint[0].corr[:, 1]],
        [f"p_mode{j}" for j in range(kp)]
        + [f"m_mode{j}" for j in range(basis_m.k)] + ["c1", "c2"],
    )
    write_json(out_dir / "metrics.json", {
        "joint": metrics_joint.to_dict(),
        "independent": metrics_ind.to_dict(),
        "c_posterior_medians": [float(v) for v in c_medians],
        "c_true": list(cfg.c_true),
        "captured_fraction_p": basis_p.captured_fraction,
        "captured_fraction_m": basis_m.captured_fraction,
        "warm_start": {
            "iterations": start.iterations,
            "halvings": start.halvings,
            "objective": start.objective,
            "converged": start.converged,
        },
    })
    write_plot_script(out_dir, PLOT)
    write_manifest(out_dir, "darcy", config_dict(cfg), extras={
        "outputs": ["mesh_nodes.csv", "mesh_triangles.csv", "basis_p.csv",
                    "basis_m.csv", "fields.csv", "obs_u.csv", "obs_p.csv", "c_chain.csv",
                    "c1_histogram.csv", "c2_histogram.csv", "c_joint_histogram.csv",
                    "chain_reduced.csv", "metrics.json", "plot.py"],
        "chain_seeds": [int(s) for s in seed_pairs],
        "retained_per_chain": chains_joint[0].retained,
    })
    write_timings(out_dir, timer.total())
    return {
        "metrics_joint": metrics_joint,
        "metrics_independent": metrics_ind,
        "c_medians": c_medians,
        "chains_joint": chains_joint,
        "chains_independent": chains_ind,
        "problem": problem,
        "warm_start": start,
    }
