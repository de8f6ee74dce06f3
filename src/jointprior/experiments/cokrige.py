"""Co-kriging study: two correlated fields observed pointwise in disjoint
regions, with the homogeneous correlation either fixed or inferred.

The truth pair is drawn from the joint prior at a prescribed correlation;
p is observed on a grid in the right half of the domain, m on a grid in the
top half, both with range-relative noise.  Both forward maps are linear, so
the fixed-correlation posteriors are exact Gaussian updates.  The sampler
integrates the fields out: each iteration takes one independence
Metropolis-Hastings step on p(c | d), proposed from a table of the evidence
of the data on 144 cells of (-1, 1), and each retained iteration one exact
Gibbs field draw at its c.  All come from one data-space algebra
(``_LinearGibbs``): the q x q covariance K(c) = K_0 + c K_1 of the data,
diagonalised once as a pencil, gives the evidence, the Gibbs draws and the
fixed-c means and variances at every c with no factorisation per c and
without densifying Gamma(c).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from ..covariance import (KernelConfig, PdePriorConfig, fem_precision_filter,
                          sqexp_covariance, whitening_filter)
from ..diagnostics import error_metrics, summary_from_gaussian
from ..forward_models import CokrigeModel
from ..inference import FullJointFamily, NoiseModel, _LinearGibbs, mwg_run
from ..io_utils import save_mesh_csv, save_table_csv, write_json
from ..joint_prior import Contraction
from ..mesh_fem import build_lattice_mesh, point_observation_operator
from .common import (StageTimer, chain_ess, chain_summary, field_ess, interior_grid,
                     range_noise_std, run_chains, save_correlation_histogram_csv,
                     save_fields_csv, save_observation_csv, write_manifest,
                     write_plot_script, write_timings)
from .configs import config_dict, mwg_config

PLOT = """\
#!/usr/bin/env python3
\"\"\"Render the co-kriging study outputs.\"\"\"
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
         "std_p_independent", "std_p_joint", "d_p",
         "std_m_independent", "std_m_joint", "d_m"]
fig, axes = plt.subplots(4, 3, figsize=(13, 11), constrained_layout=True)
for ax, name in zip(axes.ravel(), shown):
    im = ax.pcolormesh(grid(name))
    ax.set_title(name)
    fig.colorbar(im, ax=ax)
fig.savefig("fields.png", dpi=150)

hist = np.loadtxt("c_histogram.csv", delimiter=",", skiprows=1)
chain = np.loadtxt("c_chain.csv", delimiter=",", skiprows=1)
fig, axes = plt.subplots(1, 3, figsize=(12, 3.2), constrained_layout=True)
centers = 0.5 * (hist[:, 0] + hist[:, 1])
axes[0].bar(centers, hist[:, 3], width=hist[0, 1] - hist[0, 0])
axes[0].axhline(0.5, color="r", lw=1)
axes[0].set_title("posterior of c")
axes[1].plot(chain)
axes[1].set_title("trace of c")
nlag = min(200, chain.size - 1)
ac = np.correlate(chain - chain.mean(), chain - chain.mean(), "full")
ac = ac[ac.size // 2 :][: nlag + 1] / ac[ac.size // 2]
axes[2].plot(ac)
axes[2].set_title("autocorrelation of c")
fig.savefig("correlation.png", dpi=150)
print("wrote fields.png, correlation.png")
"""


def build_problem(cfg):
    """Mesh, marginal filters, prior family, truth, observations, and data."""
    rng = np.random.default_rng(cfg.seed)
    mesh = build_lattice_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly)
    n = mesh.n_nodes

    cov_p = sqexp_covariance(mesh.nodes, KernelConfig(cfg.kernel_length, cfg.nugget))
    filter_p = whitening_filter(cov_p, "principal_sqrt")
    filter_m = fem_precision_filter(
        mesh, PdePriorConfig(cfg.pde_a1, cfg.pde_a2, cfg.pde_a3)
    )
    family = FullJointFamily(filter_p, filter_m, Contraction.scalar(0.0, n))

    truth = family.prior([cfg.c_true]).sample(rng.standard_normal(2 * n))
    truth_p, truth_m = truth[:n], truth[n:]

    obs_p = point_observation_operator(
        mesh, interior_grid(cfg.lx / 2, cfg.lx, 0.0, cfg.ly, cfg.p_obs_nx, cfg.p_obs_ny)
    )
    obs_m = point_observation_operator(
        mesh, interior_grid(0.0, cfg.lx, cfg.ly / 2, cfg.ly, cfg.m_obs_nx, cfg.m_obs_ny)
    )
    model = CokrigeModel(obs_p.matrix, obs_m.matrix)

    clean = model(truth)
    q1 = obs_p.matrix.shape[0]
    noise = NoiseModel(
        range_noise_std(clean[:q1], cfg.noise_pct_p), q1,
        range_noise_std(clean[q1:], cfg.noise_pct_m), clean.size - q1,
    )
    d = clean + noise.sample(rng)

    return {
        "mesh": mesh, "family": family, "model": model, "noise": noise, "d": d,
        "clean": clean,
        "truth_p": truth_p, "truth_m": truth_m, "obs_p": obs_p, "obs_m": obs_m,
        "prior_trace_p": float(np.trace(cov_p)),
        "prior_trace_m": float(np.trace(filter_m.covariance())),
    }


def sign_gaps(w_pos, w_neg, n):
    """Gaps of the fixed-c posterior covariances at c and -c, from the
    whitened columns W of ``_LinearGibbs.moments`` (covariance Gamma - W^T W).

    Gamma(c) and Gamma(-c) share their diagonal blocks exactly and have
    opposite cross blocks, so the gaps are those of W^T W, at O(n^2 q).
    Returns (largest gap of the p and m blocks, largest entry of the sum of
    the p-m blocks).

    Both gaps are 0 in exact arithmetic: with G block-diagonal, K(-c) =
    D K(c) D for D = diag(I, -I), so W^T W at -c has the diagonal blocks of
    W^T W at c and the negated cross blocks.  Through the pencil they agree
    to round-off (about 1e-15), not bitwise.  The gaps can therefore catch
    a broken sign symmetry but not a wrong posterior; the fixed-c moments
    are checked by ``TestPathwiseGibbs::test_desk_moments_match_covariance_form``
    and ``test_moments_match_analytic_posterior`` in ``tests/test_inference.py``."""
    pos_p, pos_m, neg_p, neg_m = w_pos[:, :n], w_pos[:, n:], w_neg[:, :n], w_neg[:, n:]
    blocks = max(np.abs(pos_p.T @ pos_p - neg_p.T @ neg_p).max(),
                 np.abs(pos_m.T @ pos_m - neg_m.T @ neg_m).max())
    return float(blocks), float(np.abs(pos_p.T @ pos_m + neg_p.T @ neg_m).max())


def _run_single_chain(problem, mcfg, chain_seed):
    """One chain on the built problem; chains differ only in their seed."""
    return mwg_run(problem["model"], problem["family"], problem["noise"],
                   problem["d"], replace(mcfg, seed=int(chain_seed)))


def run(cfg, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timer = StageTimer()
    problem = build_problem(cfg)
    mesh = problem["mesh"]
    family = problem["family"]
    model = problem["model"]
    noise = problem["noise"]
    d = problem["d"]
    n = mesh.n_nodes
    timer.mark("setup")

    # fixed-correlation posteriors are exact Gaussian updates; diag Gamma(c)
    # is diag Gamma_p (+) diag Gamma_m for every c
    gibbs = _LinearGibbs(model.matrix, d, noise, family)
    prior_var = np.concatenate([np.diagonal(family.filter_p.covariance()),
                                np.diagonal(family.filter_m.covariance())])
    fixed, whitened = {}, {}
    for c in dict.fromkeys((*cfg.fixed_correlations, 0.0)):
        mean_c, whitened[c] = gibbs.moments([c])
        var_c = prior_var - np.einsum("ij,ij->j", whitened[c], whitened[c])
        fixed[c] = summary_from_gaussian(mean_c, var_c, n)
    independent = fixed[0.0]
    timer.mark("fixed_c_posteriors")

    # joint run: independence steps for the correlation, exact Gibbs draws for the fields
    seeds = np.random.SeedSequence(cfg.seed).generate_state(cfg.n_chains)
    chains = run_chains(partial(_run_single_chain, problem, mwg_config(cfg)), seeds)
    c_samples = np.concatenate([ch.corr[:, 0] for ch in chains])
    timer.mark("mcmc")

    joint = chain_summary([ch.states for ch in chains], n)
    ess_c = float(sum(chain_ess(ch.corr[:, 0]) for ch in chains))
    acceptance = chains[0].acceptance_rates()

    metrics_joint = error_metrics(
        problem["truth_p"], problem["truth_m"], joint,
        problem["prior_trace_p"], problem["prior_trace_m"], independent=independent,
        ess_values={"c": ess_c, **field_ess(chains, n)},
        acceptance=acceptance,
    )
    metrics_independent = error_metrics(
        problem["truth_p"], problem["truth_m"], independent,
        problem["prior_trace_p"], problem["prior_trace_m"],
    )
    fixed_metrics = {
        f"{c:g}": error_metrics(
            problem["truth_p"], problem["truth_m"], fixed[c],
            problem["prior_trace_p"], problem["prior_trace_m"],
        ).to_dict()
        for c in fixed
    }
    c_mass_below_zero = float(np.mean(c_samples < 0.0))

    # marginal posterior covariance blocks are invariant to the sign of the
    # fixed correlation in this linear setting; report the observed gap
    sign_invariance = None
    pairs = [c for c in cfg.fixed_correlations if c > 0 and -c in fixed]
    if pairs:
        c = pairs[0]
        sign_invariance = sign_gaps(whitened[c], whitened[-c], n)[0]
    timer.mark("metrics")

    save_mesh_csv(out_dir, mesh)
    save_fields_csv(out_dir, problem, independent, joint)
    clean = problem["clean"]
    q1 = noise.q1
    save_observation_csv(out_dir / "obs_p.csv", problem["obs_p"], d[:q1], clean[:q1])
    save_observation_csv(out_dir / "obs_m.csv", problem["obs_m"], d[q1:], clean[q1:])
    save_correlation_histogram_csv(out_dir / "c_histogram.csv", c_samples)
    save_table_csv(out_dir / "c_chain.csv", [c_samples], ["c"])
    tracked = np.unique(np.linspace(0, n - 1, cfg.tracked_nodes).astype(int))
    save_table_csv(
        out_dir / "chain_tracked.csv",
        [c_samples[: chains[0].retained]]
        + [chains[0].states[:, j] for j in tracked]
        + [chains[0].states[:, n + j] for j in tracked],
        ["c"] + [f"p_node{j}" for j in tracked] + [f"m_node{j}" for j in tracked],
    )
    write_json(out_dir / "metrics.json", {
        "joint": metrics_joint.to_dict(),
        "independent": metrics_independent.to_dict(),
        "fixed_correlation": fixed_metrics,
        "c_mass_below_zero": c_mass_below_zero,
        "sign_invariance_max_gap": sign_invariance,
    })
    write_plot_script(out_dir, PLOT)
    write_manifest(out_dir, "cokrige", config_dict(cfg), extras={
        "outputs": ["mesh_nodes.csv", "mesh_triangles.csv", "fields.csv",
                    "obs_p.csv", "obs_m.csv", "c_histogram.csv",
                    "c_chain.csv", "chain_tracked.csv", "metrics.json", "plot.py"],
        "chain_seeds": [int(s) for s in seeds],
        "retained_per_chain": chains[0].retained,
        "acceptance": acceptance,
    })
    write_timings(out_dir, timer.total())
    return {
        "metrics_joint": metrics_joint,
        "metrics_independent": metrics_independent,
        "fixed_metrics": fixed_metrics,
        "c_mass_below_zero": c_mass_below_zero,
        "sign_invariance_max_gap": sign_invariance,
        "chains": chains,
        "problem": problem,
    }
