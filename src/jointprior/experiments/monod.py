"""Two-parameter saturation-model study.

Fixed-correlation posterior scans on a dense (p, m) grid quantify how the
assumed prior correlation moves the posterior relative to the truth, and a
full MCMC treats the correlation as unknown alongside the parameters.  The
chain starts at the Gauss-Newton MAP under the prior at c = 0 and takes one
independence move of (c, p, m) per iteration, from the model linearised
there (``mwg_run``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..covariance import whitening_filter
from ..forward_models import MonodModel
from ..inference import FullJointFamily, NoiseModel, gauss_newton_map, mwg_run
from ..io_utils import save_matrix_csv, save_table_csv
from ..joint_prior import Contraction
from .common import (StageTimer, chain_ess, save_correlation_histogram_csv, write_manifest,
                     write_plot_script, write_timings)
from .configs import config_dict, mwg_config

PLOT = """\
#!/usr/bin/env python3
\"\"\"Render the saturation-model study outputs.\"\"\"
import json
import os
import numpy as np
import matplotlib.pyplot as plt

os.chdir(os.path.dirname(os.path.abspath(__file__)))

table = np.loadtxt("density_at_truth.csv", delimiter=",", skiprows=1)
deltas = sorted(set(table[:, 0]))
fig, ax = plt.subplots(figsize=(5, 3.5), constrained_layout=True)
for d in deltas:
    rows = table[table[:, 0] == d]
    ax.plot(rows[:, 1], rows[:, 2], "o-", label=f"noise {d:g}")
ax.set_xlabel("assumed correlation c")
ax.set_ylabel("log posterior density at the truth")
ax.legend()
fig.savefig("density_at_truth.png", dpi=150)

chain = np.loadtxt("chain.csv", delimiter=",", skiprows=1)
fig, axes = plt.subplots(1, 3, figsize=(12, 3.2), constrained_layout=True)
axes[0].hist(chain[:, 0], bins=60, density=True)
axes[0].set_title("p")
axes[1].hist(chain[:, 1], bins=60, density=True)
axes[1].set_title("m")
axes[2].hist(chain[:, 2], bins=60, range=(-1, 1), density=True)
axes[2].axhline(0.5, color="r", lw=1)
axes[2].set_title("c")
fig.savefig("posterior_marginals.png", dpi=150)
print("wrote density_at_truth.png, posterior_marginals.png")
"""


def _prior_quad(pp, mm, cfg, c):
    """Quadratic form of the bivariate Gaussian prior on grids pp, mm."""
    zp = (pp - cfg.prior_mean_p) / cfg.prior_std_p
    zm = (mm - cfg.prior_mean_m) / cfg.prior_std_m
    return (zp * zp - 2.0 * c * zp * zm + zm * zm) / (1.0 - c * c)


def _scan_grid(cfg, model, d, noise_std, c):
    """Normalised log posterior density over the (p, m) grid for a fixed c."""
    ps = np.linspace(cfg.p_range[0], cfg.p_range[1], cfg.grid_n)
    ms = np.linspace(cfg.m_range[0], cfg.m_range[1], cfg.grid_n)
    pp, mm = np.meshgrid(ps, ms)
    s = np.asarray(cfg.substrate)
    mu = pp[..., None] * s / (mm[..., None] + s)
    loglik = -0.5 * np.sum(((d - mu) / noise_std) ** 2, axis=-1)
    logpost = loglik - 0.5 * _prior_quad(pp, mm, cfg, c)
    peak = logpost.max()
    z = np.trapezoid(np.trapezoid(np.exp(logpost - peak), ps, axis=1), ms)
    lognorm = peak + np.log(z)

    mu_t = model(np.array([cfg.truth_p, cfg.truth_m]))
    ll_t = -0.5 * float(np.sum(((d - mu_t) / noise_std) ** 2))
    lp_t = -0.5 * float(_prior_quad(cfg.truth_p, cfg.truth_m, cfg, c))
    return ps, ms, logpost - lognorm, ll_t + lp_t - lognorm


def run(cfg, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timer = StageTimer()
    rng = np.random.default_rng(cfg.seed)
    model = MonodModel(np.asarray(cfg.substrate, dtype=float))
    truth = np.array([cfg.truth_p, cfg.truth_m])
    mu_truth = model(truth)

    # one noise realisation per level, shared across the correlation scan
    zs = {delta: rng.standard_normal(model.q) for delta in cfg.noise_levels}

    scan_rows = []
    grid_files = []
    for delta in cfg.noise_levels:
        d = mu_truth + delta * zs[delta]
        for c in cfg.scan_correlations:
            ps, ms, grid, at_truth = _scan_grid(cfg, model, d, delta, c)
            scan_rows.append((delta, c, at_truth))
            grid_files.append(f"density_grid_noise{delta:g}_c{c:g}.csv")
            save_matrix_csv(
                out_dir / grid_files[-1], grid,
                comment=f"log density over p in {list(cfg.p_range)} x m in {list(cfg.m_range)}",
            )
    save_table_csv(
        out_dir / "density_at_truth.csv",
        [np.array([r[0] for r in scan_rows]),
         np.array([r[1] for r in scan_rows]),
         np.array([r[2] for r in scan_rows])],
        ["noise", "c", "log_density_at_truth"],
    )
    timer.mark("fixed_c_scan")

    # full (p, m, c) sampling at the tighter noise level
    filter_p = whitening_filter(np.array([[cfg.prior_std_p**2]]), "principal_sqrt")
    filter_m = whitening_filter(np.array([[cfg.prior_std_m**2]]), "principal_sqrt")
    family = FullJointFamily(
        filter_p, filter_m, Contraction.scalar(0.0, 1),
        mean_p=[cfg.prior_mean_p], mean_m=[cfg.prior_mean_m],
    )
    noise = NoiseModel(cfg.mcmc_noise, model.q)
    d = mu_truth + cfg.mcmc_noise * zs.get(cfg.mcmc_noise, rng.standard_normal(model.q))
    reference = gauss_newton_map(model, d, noise, family.mean,
                                 np.diag([cfg.prior_std_p**-2, cfg.prior_std_m**-2]))
    chain = mwg_run(model, family, noise, d, mwg_config(cfg, cfg.seed),
                    init_state=reference.point, reference=reference)
    timer.mark("mcmc")

    c_samples = chain.corr[:, 0]
    pos_mass = float(np.mean(c_samples > 0.0))
    save_correlation_histogram_csv(out_dir / "c_histogram.csv", c_samples)
    save_table_csv(
        out_dir / "chain.csv",
        [chain.states[:, 0], chain.states[:, 1], c_samples],
        ["p", "m", "c"],
    )
    timer.mark("outputs")

    best = {}
    for delta in cfg.noise_levels:
        rows = [r for r in scan_rows if r[0] == delta]
        best[delta] = max(rows, key=lambda r: r[2])[1]

    write_plot_script(out_dir, PLOT)
    write_manifest(out_dir, "monod", config_dict(cfg), extras={
        "outputs": grid_files + ["density_at_truth.csv", "c_histogram.csv", "chain.csv",
                                 "plot.py"],
        "best_scan_correlation": {f"{k:g}": v for k, v in best.items()},
        "positive_correlation_mass": pos_mass,
        "acceptance": chain.acceptance_rates(),
        "ess_c": chain_ess(c_samples),
    })
    write_timings(out_dir, timer.total())
    return {
        "scan": scan_rows,
        "best_scan_correlation": best,
        "positive_correlation_mass": pos_mass,
        "chain": chain,
        "mcmc_data": d,
    }
