"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the observed values (run with `pytest tests/test_acceptance.py -v -s`).

Statistical criteria run at desk scale with pinned seeds; directional
comparisons (joint vs independent inference) carry the stated slack.
"""

import time

import numpy as np
import pytest
from scipy import stats
from scipy.signal import lfilter

from jointprior.covariance import whitening_filter
from jointprior.diagnostics import ess
from jointprior.forward_models import CokrigeModel
from jointprior.inference import (FullJointFamily, MwgConfig, NoiseModel,
                                  _LinearGibbs, linear_gaussian_posterior, mwg_run)
from jointprior.joint_prior import (Contraction, JointPrior,
                                    canonical_cross,
                                    scalar_prior_stationary)
from jointprior.linalg import cholesky_lower
from jointprior.mesh_fem import DarcySolver, build_lattice_mesh

from conftest import random_dense_contraction, random_spd
from test_mesh_fem import poisson_unit_square_oracle


def report(num, name, elapsed, limit, detail):
    print(f"\n[PASS] criterion {num} ({name}): {detail} [{elapsed:.1f}s < {limit:.0f}s]")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def random_contraction(rng, kind, n1, n2):
    if kind == "scalar":
        return Contraction.scalar(rng.uniform(-0.97, 0.97), n1)
    if kind == "piecewise":
        nlab = int(rng.integers(1, 4))
        return Contraction.piecewise(rng.integers(0, nlab, n1),
                                     rng.uniform(-0.97, 0.97, nlab))
    if kind == "paired_sparse":
        k = int(rng.integers(1, min(n1, n2) + 1))
        return Contraction.paired_sparse(
            rng.choice(n1, size=k, replace=False),
            rng.choice(n2, size=k, replace=False),
            rng.uniform(-0.95, 0.95, k), (n1, n2))
    return Contraction.dense(
        random_dense_contraction(rng, n1, n2, sigma=rng.uniform(0.3, 0.97)))


def test_criterion_01_joint_covariance_validity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    kinds = ("scalar", "piecewise", "paired_sparse", "dense")
    worst = 0.0
    for i in range(100):
        kind = kinds[i % 4]
        if kind in ("scalar", "piecewise"):
            n1 = n2 = int(rng.integers(2, 51))
        else:
            n1, n2 = (int(v) for v in rng.integers(2, 51, 2))
        gp, gm = random_spd(rng, n1), random_spd(rng, n2)
        prior = JointPrior(
            whitening_filter(gp, ("cholesky", "principal_sqrt")[i % 2]),
            whitening_filter(gm, ("principal_sqrt", "cholesky")[i % 2]),
            random_contraction(rng, kind, n1, n2),
        )
        cov = prior.dense_covariance()
        cholesky_lower(cov)  # SPD per the block construction
        worst = max(worst,
                    np.abs(cov[:n1, :n1] - gp).max(),
                    np.abs(cov[n1:, n1:] - gm).max())
    assert worst < 1e-12
    report(1, "joint covariance validity", time.perf_counter() - t0, 10,
           f"100 instances SPD, max marginal-block gap {worst:.1e} < 1e-12")


def test_criterion_02_canonical_correlation_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_match = worst_sv = 0.0
    for i in range(50):
        n1, n2 = (int(v) for v in rng.integers(2, 31, 2))
        gp, gm = random_spd(rng, n1), random_spd(rng, n2)
        con = random_contraction(rng, ("dense", "paired_sparse")[i % 2], n1, n2)
        sv_ref = np.sort(np.linalg.svd(con.as_matrix(), compute_uv=False))[::-1]
        prior = JointPrior(whitening_filter(gp, "principal_sqrt"),
                           whitening_filter(gm, "principal_sqrt"), con)
        w, _ = canonical_cross(prior)
        worst_match = max(worst_match, np.abs(w - con.as_matrix()).max())
        prior = JointPrior(whitening_filter(gp, "cholesky"),
                           whitening_filter(gm, "cholesky"), con)
        _, sv = canonical_cross(prior)
        worst_sv = max(worst_sv, np.abs(np.sort(sv)[::-1] - sv_ref).max())
    assert worst_match < 1e-9 and worst_sv < 1e-9
    report(2, "canonical-correlation optimality", time.perf_counter() - t0, 10,
           f"principal-root cross gap {worst_match:.1e}, "
           f"singular-value gap {worst_sv:.1e} (both < 1e-9, 50 instances)")


def test_criterion_03_sampling_whitening_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_eta = 0.0
    for kind_p, kind_m in (("cholesky", "principal_sqrt"),
                           ("principal_sqrt", "cholesky")):
        gp, gm = random_spd(rng, 7), random_spd(rng, 5)
        prior = JointPrior(
            whitening_filter(gp, kind_p), whitening_filter(gm, kind_m),
            Contraction.dense(random_dense_contraction(rng, 7, 5)),
            rng.standard_normal(7), rng.standard_normal(5),
        )
        eta = rng.standard_normal((64, 12)).T
        worst_eta = max(worst_eta,
                        np.abs(prior.whiten(prior.sample(eta)) - eta).max())
    assert worst_eta < 1e-8

    def unit_diagonal(m):
        return m / np.sqrt(np.outer(np.diagonal(m), np.diagonal(m)))

    gp = unit_diagonal(random_spd(rng, 10))
    gm = unit_diagonal(random_spd(rng, 10))
    prior = JointPrior(whitening_filter(gp, "principal_sqrt"),
                       whitening_filter(gm, "cholesky"),
                       Contraction.scalar(0.9, 10))
    draws = prior.sample(rng.standard_normal((20, 200000)))
    gap = np.abs(draws @ draws.T / 200000 - prior.dense_covariance()).max()
    assert gap < 0.02
    report(3, "sampling/whitening round trip", time.perf_counter() - t0, 60,
           f"noise recovery {worst_eta:.1e} < 1e-8; "
           f"Monte Carlo covariance gap {gap:.3f} < 0.02 (2e5 draws, 20 dims)")


def test_criterion_04_logdet_decomposition_and_shortcuts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(50):
        kind = ("scalar", "piecewise", "paired_sparse", "dense")[i % 4]
        if kind in ("scalar", "piecewise"):
            n1 = n2 = int(rng.integers(2, 25))
        else:
            n1, n2 = (int(v) for v in rng.integers(2, 25, 2))
        gp, gm = random_spd(rng, n1), random_spd(rng, n2)
        con = random_contraction(rng, kind, n1, n2)
        c = con.as_matrix()
        prior = JointPrior(whitening_filter(gp, "cholesky"),
                           whitening_filter(gm, "cholesky"), con)
        whole = np.linalg.slogdet(prior.dense_covariance())[1]
        parts = (np.linalg.slogdet(gp)[1] + np.linalg.slogdet(gm)[1]
                 + con.logdet_complement())
        dense_oracle = np.linalg.slogdet(np.eye(n1) - c @ c.T)[1]
        sylvester = np.linalg.slogdet(np.eye(n2) - c.T @ c)[1]
        scale = max(abs(whole), abs(dense_oracle), 1e-3)
        worst = max(worst,
                    abs(whole - parts) / scale,
                    abs(con.logdet_complement() - dense_oracle) / scale,
                    abs(sylvester - dense_oracle) / scale)
    assert worst < 1e-8
    report(4, "log-determinant decomposition and shortcuts",
           time.perf_counter() - t0, 10,
           f"max relative gap {worst:.1e} < 1e-8 over 50 instances")


def test_criterion_05_scalar_prior_saddle():
    t0 = time.perf_counter()
    _, grad0, hess0 = scalar_prior_stationary(0.0, 0.0, 0.0)
    assert np.abs(grad0).max() < 1e-12
    assert np.abs(hess0 - np.diag([-1.0, -1.0, 1.0])).max() < 1e-10
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        p, m = rng.normal(size=2)
        c = rng.uniform(-0.9, 0.9)
        _, grad, _ = scalar_prior_stationary(p, m, c)
        num = np.empty(3)
        for i, h in enumerate((1e-6, 1e-6, 1e-7)):
            d = np.zeros(3)
            d[i] = h
            vp = scalar_prior_stationary(p + d[0], m + d[1], c + d[2])[0]
            vm = scalar_prior_stationary(p - d[0], m - d[1], c - d[2])[0]
            num[i] = (vp - vm) / (2 * h)
        worst = max(worst, np.abs(grad - num).max())
    assert worst < 1e-6
    report(5, "scalar log-prior saddle", time.perf_counter() - t0, 1,
           f"origin is a saddle with Hessian diag(-1,-1,1); "
           f"finite-difference gradient gap {worst:.1e} < 1e-6")


def test_criterion_06_sign_invariance_at_scale(tmp_path):
    t0 = time.perf_counter()
    from jointprior.experiments.configs import CokrigeConfig, load_config
    from jointprior.experiments.cokrige import build_problem, sign_gaps

    cfg = load_config(CokrigeConfig, None, None)
    problem = build_problem(cfg)
    n = problem["mesh"].n_nodes
    assert n == 338
    g = problem["model"].matrix
    covs = {}
    for c in (0.9, -0.9):
        covs[c] = linear_gaussian_posterior(
            g, problem["d"], problem["noise"], problem["family"].mean,
            problem["family"].prior([c]).dense_covariance(),
        )[1]
    gap = max(
        np.abs(covs[0.9][:n, :n] - covs[-0.9][:n, :n]).max(),
        np.abs(covs[0.9][n:, n:] - covs[-0.9][n:, n:]).max(),
    )
    # the study's own metric, from the data-space moments
    gibbs = _LinearGibbs(g, problem["d"], problem["noise"], problem["family"])
    moments_gap = sign_gaps(gibbs.moments([0.9])[1], gibbs.moments([-0.9])[1], n)[0]
    assert gap < 1e-9 and moments_gap < 1e-9
    report(6, "sign invariance of marginal posteriors",
           time.perf_counter() - t0, 30,
           f"analytic covariances at +-0.9 agree to {gap:.1e}, data-space "
           f"moments to {moments_gap:.1e} < 1e-9 ({n}-node layout)")


@pytest.mark.slow
def test_criterion_07_mwg_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    # exact Gibbs at fixed correlation against the analytic posterior
    n = 3
    gp, gm = random_spd(rng, n), random_spd(rng, n)
    fam = FullJointFamily(whitening_filter(gp, "principal_sqrt"),
                          whitening_filter(gm, "principal_sqrt"),
                          Contraction.scalar(0.0, n))
    b = np.zeros((2, n))
    b[0, 0] = b[1, 2] = 1.0
    model = CokrigeModel(b, b.copy())
    noise = NoiseModel(0.4, 2, 0.4, 2)
    truth = fam.prior([0.6]).sample(rng.standard_normal(2 * n))
    d = model(truth) + noise.sample(rng)
    chain = mwg_run(model, fam, noise, d,
                    MwgConfig(total_samples=101000, burn_in=1000, seed=0),
                    sample_correlation=False, init_gamma=[np.arctanh(0.6)])
    mean, cov = linear_gaussian_posterior(
        model.matrix, d, noise, fam.mean, fam.prior([0.6]).dense_covariance())
    mean_gap = np.abs(chain.states.mean(axis=0) - mean).max()
    cov_gap = np.abs(np.cov(chain.states, rowvar=False) - cov).max()
    assert mean_gap < 0.02 and cov_gap < 0.02

    # prior-only run: the correlation marginal is uniform on (-1, 1)
    fam0 = FullJointFamily(whitening_filter(np.eye(3), "principal_sqrt"),
                           whitening_filter(np.eye(3), "principal_sqrt"),
                           Contraction.scalar(0.0, 3))
    empty = CokrigeModel(np.zeros((0, 3)), np.zeros((0, 3)))
    chain0 = mwg_run(empty, fam0, NoiseModel(1.0, 0, 1.0, 0), np.zeros(0),
                     MwgConfig(total_samples=100000, burn_in=1000, seed=0))
    ks = stats.kstest(chain0.corr[:, 0], stats.uniform(loc=-1, scale=2).cdf).statistic
    assert ks < 0.01
    report(7, "Metropolis-within-Gibbs correctness", time.perf_counter() - t0, 300,
           f"fixed-correlation chain vs analytic posterior: mean gap "
           f"{mean_gap:.3f}, covariance gap {cov_gap:.3f} (both < 0.02, 1e5 "
           f"draws); prior-only correlation KS {ks:.4f} < 0.01")


def test_criterion_08_monod_reproduction(tmp_path):
    t0 = time.perf_counter()
    from jointprior.experiments.configs import MonodConfig, load_config
    from jointprior.experiments.monod import run

    cfg = load_config(MonodConfig, None, {"samples": 25000, "burn_in": 4000})
    res = run(cfg, tmp_path / "monod")
    assert res["best_scan_correlation"][0.1] == pytest.approx(0.85)
    assert res["positive_correlation_mass"] > 0.5
    report(8, "saturation-model reproduction", time.perf_counter() - t0, 300,
           f"density at truth maximised at c = 0.85 for noise 0.1; "
           f"positive-correlation mass {res['positive_correlation_mass']:.2f} > 0.5")


@pytest.mark.slow
def test_criterion_09_cokriging_reproduction(tmp_path):
    t0 = time.perf_counter()
    from jointprior.experiments.configs import CokrigeConfig, load_config
    from jointprior.experiments.cokrige import run

    cfg = load_config(CokrigeConfig, None, {"samples": 15000, "burn_in": 2000})
    res = run(cfg, tmp_path / "cokrige")
    mj = res["metrics_joint"]
    mi = res["metrics_independent"]
    assert mj.e_p <= mi.e_p + 0.02
    assert mj.e_m <= mi.e_m + 0.02
    assert mj.u_p <= mi.u_p + 0.02
    assert mj.u_m <= mi.u_m + 0.02
    assert res["c_mass_below_zero"] > 0.9
    report(9, "co-kriging reproduction", time.perf_counter() - t0, 600,
           f"E(p) {mi.e_p:.3f}->{mj.e_p:.3f}, E(m) {mi.e_m:.3f}->{mj.e_m:.3f}, "
           f"U(p) {mi.u_p:.3f}->{mj.u_p:.3f}, U(m) {mi.u_m:.3f}->{mj.u_m:.3f} "
           f"(joint no worse than independent within 0.02); correlation mass "
           f"below zero {res['c_mass_below_zero']:.3f} > 0.9")


@pytest.mark.slow
def test_criterion_10_darcy_reproduction(tmp_path):
    t0 = time.perf_counter()
    # forward-solver oracle at the stated tolerance
    mesh = build_lattice_mesh(41, 41, 1.0, 1.0)
    u = DarcySolver(mesh).solve(np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes))
    center = np.argmin(np.linalg.norm(mesh.nodes - [0.5, 0.5], axis=1))
    solver_gap = abs(u[center] - poisson_unit_square_oracle(0.5, 0.5))
    assert solver_gap < 2e-3

    from jointprior.experiments.configs import DarcyConfig, load_config
    from jointprior.experiments.darcy import run

    cfg = load_config(DarcyConfig, None, {"samples": 18000, "burn_in": 6000})
    res = run(cfg, tmp_path / "darcy")
    c1, c2 = res["c_medians"]
    assert c1 > 0.0 and c2 < 0.0  # signs of the per-subdomain truth (0.8, -0.9)
    mj = res["metrics_joint"]
    mi = res["metrics_independent"]
    assert mj.e_m < mi.e_m
    report(10, "groundwater reproduction", time.perf_counter() - t0, 1800,
           f"posterior medians ({c1:.2f}, {c2:.2f}) carry the true signs; "
           f"E(m) improves {mi.e_m:.3f}->{mj.e_m:.3f} under joint inference; "
           f"uniform-coefficient solve within {solver_gap:.1e} < 2e-3 of the "
           f"series oracle")


def test_criterion_11_ess_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    m = 100000
    ratio = ess(rng.standard_normal(m)) / m
    assert 0.9 < ratio < 1.1
    gaps = {}
    for phi in (0.5, 0.8, 0.95):
        noise = rng.standard_normal(m) * np.sqrt(1.0 - phi * phi)
        x = lfilter([1.0], [1.0, -phi], noise)
        expected = m * (1.0 - phi) / (1.0 + phi)
        gaps[phi] = abs(ess(x) - expected) / expected
        assert gaps[phi] < 0.15
    report(11, "effective-sample-size oracle", time.perf_counter() - t0, 60,
           f"iid ESS/M = {ratio:.3f} in [0.9, 1.1]; AR(1) gaps "
           + ", ".join(f"{phi:g}: {g * 100:.1f}%" for phi, g in gaps.items())
           + " (all < 15%)")
