"""Self-contained verification suite behind the `verify` subcommand.

Each check exercises one structural property of the construction on small
random instances and reports pass/fail with the observed worst case.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..covariance import KernelConfig, kl_truncate, sqexp_covariance, whitening_filter
from ..diagnostics import ess
from ..forward_models import DarcyModel, ReducedFieldMap, ReducedModel, fd_jacobian
from ..inference import FullJointFamily, NoiseModel, _LinearGibbs
from ..io_utils import write_json
from ..joint_prior import (Contraction, JointPrior, canonical_cross,
                           scalar_prior_stationary)
from ..linalg import cholesky_lower, logdet_spd
from ..mesh_fem import build_lattice_mesh, point_observation_operator
from .cokrige import build_problem, sign_gaps
from .common import StageTimer, write_manifest, write_timings
from .configs import CokrigeConfig, config_dict, load_config


def _random_spd(rng, n, jitter=0.5):
    a = rng.standard_normal((n, n))
    return a @ a.T / n + jitter * np.eye(n)


def _random_contraction(rng, kind, n1, n2):
    if kind == "scalar":
        return Contraction.scalar(rng.uniform(-0.95, 0.95), n1)
    if kind == "piecewise":
        labels = rng.integers(0, 3, n1)
        return Contraction.piecewise(labels, rng.uniform(-0.95, 0.95, 3))
    if kind == "paired_sparse":
        k = min(n1, n2) // 2 + 1
        rows = rng.choice(n1, size=k, replace=False)
        cols = rng.choice(n2, size=k, replace=False)
        return Contraction.paired_sparse(rows, cols, rng.uniform(-0.9, 0.9, k), (n1, n2))
    a = rng.standard_normal((n1, n2))
    return Contraction.dense(0.9 * a / np.linalg.svd(a, compute_uv=False)[0])


def check_defect_identity(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        n1, n2 = rng.integers(2, 9, 2)
        for kind in ("scalar", "piecewise", "paired_sparse", "dense"):
            con = _random_contraction(rng, kind, int(n1), int(n2))
            c = con.as_matrix()
            gap = np.abs(con.defect().covariance() + c.T @ c - np.eye(c.shape[1])).max()
            worst = max(worst, gap)
    return worst < 1e-12, f"max |D D^T + C^T C - I| = {worst:.2e}"


def check_determinant_shortcuts(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        n1, n2 = rng.integers(2, 9, 2)
        kind = ("piecewise", "paired_sparse", "dense")[rng.integers(3)]
        con = _random_contraction(rng, kind, int(n1), int(n2))
        c = con.as_matrix()
        oracle = np.linalg.slogdet(np.eye(int(n1)) - c @ c.T)[1]
        sylvester = np.linalg.slogdet(np.eye(c.shape[1]) - c.T @ c)[1]
        shortcut = con.logdet_complement()
        scale = max(abs(oracle), 1e-3)
        worst = max(worst, abs(oracle - sylvester) / scale, abs(oracle - shortcut) / scale)
    return worst < 1e-9, f"max relative determinant gap = {worst:.2e}"


def check_marginal_preservation(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for kind in ("scalar", "piecewise", "paired_sparse", "dense"):
        n1, n2 = (7, 7) if kind in ("scalar", "piecewise") else (8, 5)
        gp, gm = _random_spd(rng, n1), _random_spd(rng, n2)
        con = _random_contraction(rng, kind, n1, n2)
        prior = JointPrior(
            whitening_filter(gp, "principal_sqrt"),
            whitening_filter(gm, "cholesky"), con,
        )
        cov = prior.dense_covariance()
        cholesky_lower(cov)  # SPD or raises
        worst = max(worst,
                    np.abs(cov[:n1, :n1] - gp).max(),
                    np.abs(cov[n1:, n1:] - gm).max())
    return worst < 1e-12, f"max marginal block gap = {worst:.2e} (all variants SPD)"


def check_optimality(seed):
    rng = np.random.default_rng(seed)
    worst_match = worst_sv = 0.0
    for _ in range(10):
        n1, n2 = rng.integers(3, 8, 2)
        gp, gm = _random_spd(rng, int(n1)), _random_spd(rng, int(n2))
        con = _random_contraction(rng, "dense", int(n1), int(n2))
        sv_c = np.linalg.svd(con.as_matrix(), compute_uv=False)
        pr = JointPrior(whitening_filter(gp, "principal_sqrt"),
                        whitening_filter(gm, "principal_sqrt"), con)
        w, sv = canonical_cross(pr)
        worst_match = max(worst_match, np.abs(w - con.as_matrix()).max())
        pr = JointPrior(whitening_filter(gp, "cholesky"),
                        whitening_filter(gm, "cholesky"), con)
        _, sv = canonical_cross(pr)
        worst_sv = max(worst_sv, np.abs(np.sort(sv)[::-1] - np.sort(sv_c)[::-1]).max())
    ok = worst_match < 1e-9 and worst_sv < 1e-9
    return ok, (f"principal-root whitened cross vs C: {worst_match:.2e}; "
                f"singular-value gap under Cholesky: {worst_sv:.2e}")


def check_whitening_roundtrip(seed):
    rng = np.random.default_rng(seed)
    gp, gm = _random_spd(rng, 6), _random_spd(rng, 4)
    con = _random_contraction(rng, "dense", 6, 4)
    prior = JointPrior(whitening_filter(gp, "cholesky"),
                       whitening_filter(gm, "principal_sqrt"), con)
    eta = rng.standard_normal((10, 6 + 4)).T
    back = prior.whiten(prior.sample(eta))
    gap = np.abs(back - eta).max()
    lw = prior.whiten(prior.mean[:, None] + np.eye(prior.n))
    ident = lw.T @ lw @ prior.dense_covariance() - np.eye(10)
    frob = np.linalg.norm(ident) / np.sqrt(10)
    ok = gap < 1e-8 and frob < 1e-8
    return ok, f"eta recovery {gap:.2e}; |L^T L Gamma - I|_F/sqrt(n) = {frob:.2e}"


def check_logdet_decomposition(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        n1, n2 = rng.integers(3, 9, 2)
        gp, gm = _random_spd(rng, int(n1)), _random_spd(rng, int(n2))
        con = _random_contraction(rng, "dense", int(n1), int(n2))
        prior = JointPrior(whitening_filter(gp, "principal_sqrt"),
                           whitening_filter(gm, "principal_sqrt"), con)
        whole = logdet_spd(prior.dense_covariance())
        parts = logdet_spd(gp) + logdet_spd(gm) + con.logdet_complement()
        worst = max(worst, abs(whole - parts) / max(abs(whole), 1e-3))
    return worst < 1e-8, f"max relative log-det gap = {worst:.2e}"


def check_sign_invariance(seed):
    rng = np.random.default_rng(seed)
    n = 12
    gp, gm = _random_spd(rng, n), _random_spd(rng, n)
    family = FullJointFamily(whitening_filter(gp, "principal_sqrt"),
                             whitening_filter(gm, "principal_sqrt"),
                             Contraction.scalar(0.0, n))
    g = np.zeros((6, 2 * n))
    g[:3, rng.choice(n, 3, replace=False)] = 1.0
    g[3:, n + rng.choice(n, 3, replace=False)] = 1.0
    noise = NoiseModel(0.1, 3, 0.1, 3)
    d = rng.standard_normal(6)
    gibbs = _LinearGibbs(g, d, noise, family)
    worst = 0.0
    for c in (0.9, 0.5):
        worst = max(worst, *sign_gaps(gibbs.moments([c])[1], gibbs.moments([-c])[1], n))
    return worst < 1e-9, f"max block gap under c -> -c = {worst:.2e}"


def check_saddle(seed):
    rng = np.random.default_rng(seed)
    v0, g0, h0 = scalar_prior_stationary(0.0, 0.0, 0.0)
    ok = np.abs(g0).max() < 1e-12 and np.abs(h0 - np.diag([-1.0, -1.0, 1.0])).max() < 1e-10
    worst = 0.0
    for _ in range(20):
        p, m = rng.normal(size=2)
        c = rng.uniform(-0.9, 0.9)
        _, grad, _ = scalar_prior_stationary(p, m, c)
        num = np.zeros(3)
        for i, eps in enumerate((1e-6, 1e-6, 1e-7)):
            dx = np.zeros(3)
            dx[i] = eps
            vp = scalar_prior_stationary(p + dx[0], m + dx[1], c + dx[2])[0]
            vm = scalar_prior_stationary(p - dx[0], m - dx[1], c - dx[2])[0]
            num[i] = (vp - vm) / (2 * eps)
        worst = max(worst, np.abs(grad - num).max())
    rising = all(
        scalar_prior_stationary(1.0, 1.0, c2)[0] > scalar_prior_stationary(1.0, 1.0, c1)[0]
        for c1, c2 in [(0.5, 0.9), (0.9, 0.99), (0.99, 0.999)]
    )
    ok = ok and worst < 1e-6 and rising
    return ok, (f"stationary point checks pass; max finite-difference gradient "
                f"gap = {worst:.2e}; value rises as c -> 1")


def check_correlation_prior(seed):
    from scipy import stats  # here, not at module level: it doubles the CLI's start-up

    rng = np.random.default_rng(seed)
    gamma = np.arctanh(rng.uniform(-1.0, 1.0, 200000))  # inverse-CDF draws
    ks = stats.kstest(np.tanh(gamma), stats.uniform(loc=-1, scale=2).cdf).statistic
    from ..joint_prior import correlation_prior_logdensity

    sym = max(
        abs(correlation_prior_logdensity(g) - correlation_prior_logdensity(-g))
        for g in (0.3, 1.7, 12.0)
    )
    ok = ks < 0.005 and sym < 1e-12 and abs(
        correlation_prior_logdensity(0.0) - np.log(0.5)) < 1e-12
    return ok, f"KS(tanh(gamma), U(-1,1)) = {ks:.4f}; symmetry gap = {sym:.1e}"


def check_ess(seed):
    rng = np.random.default_rng(seed)
    m = 50000
    iid = rng.standard_normal(m)
    ratio = ess(iid) / m
    ok = 0.9 < ratio < 1.1
    detail = [f"iid ESS/M = {ratio:.3f}"]
    for phi in (0.5, 0.8):
        x = np.empty(m)
        x[0] = rng.standard_normal()
        noise = rng.standard_normal(m) * np.sqrt(1 - phi * phi)
        for t in range(1, m):
            x[t] = phi * x[t - 1] + noise[t]
        expected = m * (1 - phi) / (1 + phi)
        rel = abs(ess(x) - expected) / expected
        ok = ok and rel < 0.15
        detail.append(f"AR({phi:g}) gap {rel * 100:.1f}%")
    return ok, "; ".join(detail)


def check_darcy_jacobian(seed):
    rng = np.random.default_rng(seed)
    mesh = build_lattice_mesh(9, 5, 2.0, 1.0)
    cov = sqexp_covariance(mesh.nodes, KernelConfig(0.3, 1e-8))
    field_map = ReducedFieldMap(kl_truncate(cov, 4), kl_truncate(cov, 6),
                                np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes))
    b1 = point_observation_operator(mesh, rng.uniform([0.2, 0.2], [1.8, 0.8], (5, 2)))
    b2 = point_observation_operator(mesh, rng.uniform([0.0, 0.0], [2.0, 1.0], (3, 2)))
    model = ReducedModel(DarcyModel(mesh, b1.matrix, b2.matrix), field_map)
    worst = 0.0
    for _ in range(3):
        x = rng.standard_normal(field_map.k)
        oracle = fd_jacobian(model, x)
        worst = max(worst, np.abs(model.jacobian(x) - oracle).max() / np.abs(oracle).max())
    return worst < 1e-6, f"max relative gap to central differences = {worst:.2e}"


def check_correlation_evidence(seed):
    """The evidence that the independence correlation steps tabulate and
    target on the desk co-kriging problem, log Z(c) - log Z(0), against the
    dense Gaussian density of the data, log N(r0; 0, G Gamma(c) G^T + Sigma)."""
    problem = build_problem(load_config(CokrigeConfig, None, {"seed": seed}))
    fam, d, noise = problem["family"], problem["d"], problem["noise"]
    g = problem["model"].matrix
    gibbs = _LinearGibbs(g, d, noise, fam)
    r0 = d - g @ fam.mean

    def dense(c):
        k = g @ fam.prior([c]).dense_covariance() @ g.T + noise.covariance()
        return -0.5 * (r0 @ np.linalg.solve(k, r0) + np.linalg.slogdet(k)[1])

    worst, dense0, ours0 = 0.0, dense(0.0), gibbs.log_evidence([0.0])
    for c in (-0.9, -0.5, 0.5, 0.9):
        ref = dense(c) - dense0
        ours = gibbs.log_evidence([c]) - ours0
        worst = max(worst, abs(ours - ref) / abs(ref))
    return worst < 1e-9, f"max relative gap of log Z(c) - log Z(0) = {worst:.2e}"


CHECKS = [
    ("defect identity", check_defect_identity),
    ("determinant shortcuts", check_determinant_shortcuts),
    ("marginal preservation", check_marginal_preservation),
    ("canonical-correlation optimality", check_optimality),
    ("sampling/whitening round trip", check_whitening_roundtrip),
    ("log-determinant decomposition", check_logdet_decomposition),
    ("sign invariance of marginal posteriors", check_sign_invariance),
    ("scalar log-prior saddle", check_saddle),
    ("correlation prior pushforward", check_correlation_prior),
    ("effective sample size oracles", check_ess),
    ("tangent-linear Darcy Jacobian", check_darcy_jacobian),
    ("evidence of the correlation steps", check_correlation_evidence),
]


def run(cfg, out_dir=None):
    timer = StageTimer()
    results = []
    for name, fn in CHECKS:
        ok, detail = fn(cfg.seed)
        results.append({"name": name, "passed": bool(ok), "detail": detail})
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    n_fail = sum(not r["passed"] for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    timer.mark("checks")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "verify.json", {"checks": results})
        write_manifest(out_dir, "verify", config_dict(cfg),
                       extras={"outputs": ["verify.json"]})
        write_timings(out_dir, timer.total())
    return {"results": results, "all_passed": n_fail == 0}
