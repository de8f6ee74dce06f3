"""Whitening-factor comparison on a 1-D domain.

Identical squared-exponential marginals on [0, 1], correlation +c on the
left half and -c on the right half.  The joint covariance is valid for any
factor choice, but the realised pointwise correlation
phi = diag(cov_p)^{-1/2} cross diag(cov_m)^{-1/2} differs: the symmetric
principal root keeps the split antisymmetric while the triangular Cholesky
factor skews it towards one side.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..covariance import KernelConfig, sqexp_covariance, whitening_filter
from ..io_utils import save_table_csv
from ..joint_prior import Contraction, JointPrior
from .common import StageTimer, write_manifest, write_plot_script, write_timings
from .configs import config_dict

PLOT = """\
#!/usr/bin/env python3
\"\"\"Render the factor-comparison outputs.\"\"\"
import os
import numpy as np
import matplotlib.pyplot as plt

os.chdir(os.path.dirname(os.path.abspath(__file__)))

phi = np.loadtxt("realised_correlation.csv", delimiter=",", skiprows=1)
fig, axes = plt.subplots(1, 3, figsize=(13, 3.5), constrained_layout=True)
axes[0].plot(phi[:, 0], phi[:, 1], "k-", label="target")
axes[0].plot(phi[:, 0], phi[:, 2], "b-", label="principal root")
axes[0].plot(phi[:, 0], phi[:, 3], "r-", label="Cholesky")
axes[0].set_title("realised pointwise correlation")
axes[0].legend()

samples = np.loadtxt("factor_samples.csv", delimiter=",", skiprows=1)
n_samples = (samples.shape[1] - 1) // 4
for k in range(n_samples):
    axes[1].plot(samples[:, 0], samples[:, 1 + 4 * k], "b-", alpha=0.8)
    axes[1].plot(samples[:, 0], samples[:, 2 + 4 * k], "r-", alpha=0.8)
    axes[2].plot(samples[:, 0], samples[:, 3 + 4 * k], "b-", alpha=0.8)
    axes[2].plot(samples[:, 0], samples[:, 4 + 4 * k], "r-", alpha=0.8)
axes[1].set_title("samples, principal root (p blue, m red)")
axes[2].set_title("samples, Cholesky factor (p blue, m red)")
fig.savefig("factor_compare.png", dpi=150)
print("wrote factor_compare.png")
"""


def realised_correlation(prior):
    """diag(cov_p)^{-1/2} @ cross @ diag(cov_m)^{-1/2}, the pointwise
    correlation actually encoded by the joint covariance."""
    dp = np.sqrt(np.diagonal(prior.filter_p.covariance()))
    dm = np.sqrt(np.diagonal(prior.filter_m.covariance()))
    return prior.cross_covariance() / np.outer(dp, dm)


def run(cfg, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timer = StageTimer()
    rng = np.random.default_rng(cfg.seed)

    xs = np.linspace(0.0, 1.0, cfg.n_points)
    cov = sqexp_covariance(xs, KernelConfig(cfg.kernel_length, cfg.nugget))
    labels = (xs > cfg.split).astype(int)
    contraction = Contraction.piecewise(labels, [cfg.correlation, -cfg.correlation])

    priors = {}
    for kind in ("principal_sqrt", "cholesky"):
        flt_p = whitening_filter(cov, kind)
        flt_m = whitening_filter(cov, kind)
        priors[kind] = JointPrior(flt_p, flt_m, contraction)

    target = np.where(labels == 0, cfg.correlation, -cfg.correlation)
    phi_principal = np.diagonal(realised_correlation(priors["principal_sqrt"]))
    phi_cholesky = np.diagonal(realised_correlation(priors["cholesky"]))
    save_table_csv(
        out_dir / "realised_correlation.csv",
        [xs, target, phi_principal, phi_cholesky],
        ["x", "target", "phi_principal", "phi_cholesky"],
    )
    timer.mark("correlation")

    n = cfg.n_points
    cols = [xs]
    header = ["x"]
    for k in range(cfg.n_samples):
        eta = rng.standard_normal(2 * n)
        sp = priors["principal_sqrt"].sample(eta)
        sc = priors["cholesky"].sample(eta)
        cols += [sp[:n], sp[n:], sc[:n], sc[n:]]
        header += [f"p_principal_{k}", f"m_principal_{k}", f"p_cholesky_{k}", f"m_cholesky_{k}"]
    save_table_csv(out_dir / "factor_samples.csv", cols, header)
    timer.mark("samples")

    write_plot_script(out_dir, PLOT)
    write_manifest(out_dir, "factor-compare", config_dict(cfg), extras={
        "outputs": ["realised_correlation.csv", "factor_samples.csv", "plot.py"],
    })
    write_timings(out_dir, timer.total())
    return {
        "phi_principal": phi_principal,
        "phi_cholesky": phi_cholesky,
        "target": target,
        "x": xs,
    }
