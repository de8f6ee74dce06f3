import json
import os
import pickle
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from jointprior.experiments import common
from jointprior.experiments.common import (chain_summary, interior_grid, median_ess,
                                           range_noise_std, run_chains, well_points)
from jointprior import forward_models, inference
from jointprior.experiments import cokrige, darcy, monod
from jointprior.experiments.configs import (CokrigeConfig, ConfigError, DarcyConfig,
                                            MonodConfig, load_config, mwg_config)
from jointprior.covariance import KernelConfig, kl_truncate, sqexp_covariance
from jointprior.io_utils import load_matrix_csv, save_kl_basis_csv, save_mesh_csv
from jointprior.joint_prior import JointPrior
from jointprior.mesh_fem import build_lattice_mesh, point_observation_operator

from test_cli import TINY_COKRIGE, TINY_DARCY


class TestObservationLayouts:
    def test_reference_scale_counts(self):
        # full-scale layout: 60 p-observations in the right half, 32
        # m-observations in the top half, on the 50 x 25 lattice
        mesh = build_lattice_mesh(50, 25, 2.0, 1.0)
        p_pts = interior_grid(1.0, 2.0, 0.0, 1.0, 10, 6)
        m_pts = interior_grid(0.0, 2.0, 0.5, 1.0, 8, 4)
        assert p_pts.shape == (60, 2)
        assert m_pts.shape == (32, 2)
        op_p = point_observation_operator(mesh, p_pts)
        op_m = point_observation_operator(mesh, m_pts)
        assert np.all(mesh.nodes[op_p.node_indices, 0] >= 1.0)
        assert np.all(mesh.nodes[op_m.node_indices, 1] >= 0.5)
        assert np.unique(op_p.node_indices).size == 60
        assert np.unique(op_m.node_indices).size == 32

    def test_reference_scale_well_layout(self):
        # 56 regularly spaced head observations and 45 well measurements
        assert interior_grid(0.0, 2.0, 0.0, 1.0, 8, 7).shape == (56, 2)
        wells = well_points(2.0, 1.0, 3, 15)
        assert wells.shape == (45, 2)
        assert np.unique(wells[:, 0]).size == 3  # three vertical well paths

    def test_grid_points_strictly_interior(self):
        pts = interior_grid(0.0, 1.0, 0.0, 1.0, 4, 4)
        assert pts[:, 0].min() > 0.0 and pts[:, 0].max() < 1.0
        assert pts[:, 1].min() > 0.0 and pts[:, 1].max() < 1.0


class TestNoiseScaling:
    def test_percent_of_range(self):
        values = np.array([1.0, 3.0, 2.0])
        assert range_noise_std(values, 1.0) == pytest.approx(0.02)
        assert range_noise_std(values, 5.0) == pytest.approx(0.10)

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            range_noise_std(np.ones(4), 1.0)


class TestChainSummary:
    @pytest.mark.parametrize("offset", [0.0, 1e5], ids=["centred", "offset"])
    @pytest.mark.parametrize("reduced", [False, True], ids=["identity", "kl"])
    def test_merged_chains_match_stacked_rows(self, rng, monkeypatch, reduced, offset):
        # two chains of unequal length, each longer than one batch, summarised
        # apart equal np.mean / np.var of their stacked expanded rows; a field
        # mean of 1e5 against a spread of order 1 would cost a one-pass
        # s2 / n - mean^2 about 10 digits
        monkeypatch.setattr(common, "SUMMARY_BATCH", 64)
        mesh = build_lattice_mesh(6, 5, 1.0, 1.0)
        n = mesh.n_nodes
        chains = [rng.standard_normal((150, 7)), rng.standard_normal((230, 7))]
        stacked = np.vstack(chains)
        if reduced:
            cov = sqexp_covariance(mesh.nodes, KernelConfig(0.4))
            bp, bm = kl_truncate(cov, 4), kl_truncate(cov, 3)
            fmap = forward_models.ReducedFieldMap(bp, bm, offset + rng.standard_normal(n),
                                                  offset + rng.standard_normal(n))
            summary = chain_summary(chains, n, fmap)
            fields = np.hstack([fmap.mean_p + bp.expand(stacked[:, :4].T).T,
                                fmap.mean_m + bm.expand(stacked[:, 4:].T).T])
        else:
            chains = [offset + ch for ch in chains]
            summary = chain_summary(chains, 3)
            fields = np.vstack(chains)
        mean, var = fields.mean(axis=0), fields.var(axis=0)
        n1 = n if reduced else 3
        np.testing.assert_allclose(summary.mean_p, mean[:n1], rtol=1e-12)
        np.testing.assert_allclose(summary.mean_m, mean[n1:], rtol=1e-12)
        np.testing.assert_allclose(summary.var_p, var[:n1], rtol=1e-12)
        np.testing.assert_allclose(summary.var_m, var[n1:], rtol=1e-12)

    def test_cokrige_memory_grows_by_one_state_per_sample(self, tmp_path, monkeypatch):
        # the chain's own states are the only copy that grows with its length:
        # no stacked copy of the chains and no full-length temporary in the summary
        monkeypatch.setattr(common, "SUMMARY_BATCH", 200)
        peaks = {}
        for samples in (1100, 2100):
            cfg = load_config(CokrigeConfig, None, {"samples": samples, "burn_in": 100})
            tracemalloc.start()
            try:
                cokrige.run(cfg, tmp_path / str(samples))
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        state = 8 * 2 * cfg.nx * cfg.ny  # bytes of one retained field state
        assert (peaks[2100] - peaks[1100]) / 1000 <= 1.2 * state

    def test_median_ess_skips_constant_columns(self, rng):
        states = np.column_stack([rng.standard_normal(2000), np.ones(2000)])
        value = median_ess(states)
        assert np.isfinite(value) and value > 0


class TestMultiChain:
    def test_cokrige_pools_independent_chains(self, tmp_path):
        from jointprior.experiments.cokrige import run

        cfg = load_config(CokrigeConfig, None, {
            "nx": 8, "ny": 5, "p_obs_nx": 2, "p_obs_ny": 2, "m_obs_nx": 2,
            "m_obs_ny": 1, "samples": 300, "burn_in": 50, "n_chains": 2,
            "tracked_nodes": 2,
        })
        res = run(cfg, tmp_path / "ck")
        assert len(res["chains"]) == 2
        assert res["chains"][0].retained == 250
        # chains share the data but use distinct seeds
        assert not np.array_equal(res["chains"][0].corr, res["chains"][1].corr)
        c = np.loadtxt(tmp_path / "ck" / "c_chain.csv", delimiter=",", skiprows=1)
        assert c.size == 500

    def test_darcy_pools_independent_chains(self, tmp_path):
        cfg = load_config(DarcyConfig, None, {**TINY_DARCY, "samples": 200, "burn_in": 50,
                                              "n_chains": 2})
        res = darcy.run(cfg, tmp_path / "dy")
        for chains in (res["chains_independent"], res["chains_joint"]):
            assert [ch.retained for ch in chains] == [150, 150]
            assert not np.array_equal(chains[0].states, chains[1].states)
        c = np.loadtxt(tmp_path / "dy" / "c_chain.csv", delimiter=",", skiprows=1)
        assert c.shape == (300, 2)

    @pytest.mark.parametrize("n_chains", [1, 2])
    @pytest.mark.parametrize("study,cls,payload", [
        (cokrige, CokrigeConfig, TINY_COKRIGE), (darcy, DarcyConfig, TINY_DARCY),
    ], ids=["cokrige", "darcy"])
    def test_problem_is_built_once(self, tmp_path, monkeypatch, study, cls, payload,
                                   n_chains):
        real = study.build_problem
        built = []

        def once(cfg):
            if built:
                raise AssertionError(f"{study.__name__} built its problem twice")
            built.append(cfg)
            return real(cfg)

        monkeypatch.setattr(study, "build_problem", once)
        cfg = load_config(cls, None, {**payload, "samples": 200, "burn_in": 50,
                                      "n_chains": n_chains})
        study.run(cfg, tmp_path / "out")
        assert len(built) == 1

    def test_darcy_runs_the_warm_start_once(self, tmp_path, monkeypatch):
        calls = []
        real = darcy.gauss_newton_map

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(darcy, "gauss_newton_map", counted)
        darcy.run(load_config(DarcyConfig, None, TINY_DARCY), tmp_path / "dy")
        assert len(calls) == 1

    def test_darcy_never_differentiates_numerically(self, tmp_path, monkeypatch):
        def numerical(*args, **kwargs):
            raise AssertionError("the darcy study took a finite-difference Jacobian")

        monkeypatch.setattr(forward_models, "fd_jacobian", numerical)
        monkeypatch.setattr(inference, "fd_jacobian", numerical, raising=False)
        res = darcy.run(load_config(DarcyConfig, None, TINY_DARCY), tmp_path / "dy")
        assert res["warm_start"].converged
        warm = json.loads((tmp_path / "dy" / "metrics.json").read_text())["warm_start"]
        assert warm == {"iterations": res["warm_start"].iterations,
                        "halvings": res["warm_start"].halvings,
                        "objective": res["warm_start"].objective, "converged": True}


def monod_posterior_quadrature(cfg, d):
    """The (p, m, c) posterior of the saturation study at its MCMC noise
    level, under the uniform prior on c, by the trapezoid rule on the
    ``_scan_grid`` (p, m) grid times 401 values of c: the c grid, the cdf of
    the c marginal on it, and the posterior means of p and m."""
    ps = np.linspace(*cfg.p_range, cfg.grid_n)
    ms = np.linspace(*cfg.m_range, cfg.grid_n)
    pp, mm = np.meshgrid(ps, ms)
    s = np.asarray(cfg.substrate)
    loglik = -0.5 * np.sum(((d - pp[..., None] * s / (mm[..., None] + s)) / cfg.mcmc_noise) ** 2,
                           axis=-1)
    cs = np.linspace(-1.0, 1.0, 403)[1:-1]
    logz, means = [], []
    for c in cs:  # the prior density's c-dependent normaliser is (1 - c^2)^(-1/2)
        logpost = loglik - 0.5 * (monod._prior_quad(pp, mm, cfg, c) + np.log(1.0 - c * c))
        peak = logpost.max()
        w = np.exp(logpost - peak)
        mass, sum_p, sum_m = (np.trapezoid(np.trapezoid(f, ps, axis=1), ms)
                              for f in (w, w * pp, w * mm))
        logz.append(peak + np.log(mass))
        means.append((sum_p / mass, sum_m / mass))
    post = np.exp(np.array(logz) - max(logz))
    cdf = np.concatenate([[0.0], np.cumsum((post[1:] + post[:-1]) / 2 * np.diff(cs))])
    return cs, cdf / cdf[-1], (post / post.sum()) @ np.array(means)


class TestMonodChain:
    def test_chain_matches_posterior_quadrature(self, tmp_path):
        # the study's chain at its defaults (25,000 retained of 30,000, ESS
        # about 15,000 for p and m): config seeds 0-3 read KS 0.005-0.009,
        # gaps of the p mean under 0.0003 (sd 0.032) and of the m mean
        # 0.011-0.069 (sd 8.2-8.6); the bounds are about 4 Monte Carlo
        # standard errors
        cfg = load_config(MonodConfig, None, None)
        res = monod.run(cfg, tmp_path)
        chain = res["chain"]
        cs, cdf, (mean_p, mean_m) = monod_posterior_quadrature(cfg, res["mcmc_data"])
        samples = np.sort(chain.corr[:, 0])
        ks = np.abs(np.interp(samples, cs, cdf) - np.arange(1, samples.size + 1) / samples.size)
        assert ks.max() < 0.02
        assert abs(chain.states[:, 0].mean() - mean_p) < 0.0011
        assert abs(chain.states[:, 1].mean() - mean_m) < 0.3
        assert chain.block_steps == 30000 and chain.block_failed == 0


class TestRunChains:
    def test_forked_chains_match_in_process_chains(self):
        cfg = load_config(CokrigeConfig, None, {**TINY_COKRIGE, "samples": 200})
        problem = cokrige.build_problem(cfg)
        mcfg = mwg_config(cfg)

        def chain(seed):
            return cokrige._run_single_chain(problem, mcfg, seed)

        with pytest.raises((AttributeError, TypeError, pickle.PicklingError)):
            pickle.dumps(chain)
        seeds = [5, 17]
        forked = run_chains(chain, seeds)
        for got, seed in zip(forked, seeds):
            want = chain(seed)
            np.testing.assert_array_equal(got.states, want.states)
            np.testing.assert_array_equal(got.corr, want.corr)
        assert not np.array_equal(forked[0].corr, forked[1].corr)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        sizes = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(common, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(common.os, "cpu_count", lambda: 2)
        pids = run_chains(lambda seed: os.getpid(), [1, 2, 3])
        assert sizes == [2]
        assert len(pids) == 3 and len(set(pids)) <= 2 and os.getpid() not in pids


class TestDarcyProblem:
    def test_non_finite_truth_rejected(self):
        with pytest.raises(ConfigError, match="c_true"):
            load_config(DarcyConfig, None, {**TINY_DARCY, "c_true": [float("nan"), 0.2]})


class TestCokrigeFixedStage:
    def test_joint_covariance_is_never_densified(self, tmp_path, monkeypatch):
        def densified(*args, **kwargs):
            raise AssertionError("the cokrige study formed a dense joint covariance")

        monkeypatch.setattr(JointPrior, "dense_covariance", densified)
        monkeypatch.setattr(inference, "linear_gaussian_posterior", densified)
        monkeypatch.setattr(cokrige, "linear_gaussian_posterior", densified, raising=False)
        res = cokrige.run(load_config(CokrigeConfig, None, TINY_COKRIGE), tmp_path / "ck")
        assert sorted(res["fixed_metrics"]) == ["-0.9", "0", "0.9"]
        assert res["sign_invariance_max_gap"] < 1e-9


class TestCsvExports:
    def test_mesh_tables(self, tmp_path):
        mesh = build_lattice_mesh(4, 3, 2.0, 1.0)
        save_mesh_csv(tmp_path, mesh)
        nodes = np.loadtxt(tmp_path / "mesh_nodes.csv", delimiter=",", skiprows=1)
        tris = np.loadtxt(tmp_path / "mesh_triangles.csv", delimiter=",", skiprows=1)
        assert nodes.shape == (12, 3)
        assert tris.shape == (12, 4)
        np.testing.assert_allclose(nodes[:, 1:], mesh.nodes)

    def test_kl_basis_header_and_shape(self, tmp_path, rng):
        from conftest import random_spd

        basis = kl_truncate(random_spd(rng, 6), 3)
        path = save_kl_basis_csv(tmp_path / "basis.csv", basis)
        header = path.read_text().splitlines()[0]
        assert header.startswith("# rows=6 cols=3")
        assert "captured_fraction" in header
        np.testing.assert_allclose(load_matrix_csv(path), basis.modes)

    def test_observation_noise_replay(self, tmp_path):
        from jointprior.experiments.cokrige import run

        cfg = load_config(CokrigeConfig, None, {
            "nx": 8, "ny": 5, "p_obs_nx": 2, "p_obs_ny": 2, "m_obs_nx": 2,
            "m_obs_ny": 1, "samples": 200, "burn_in": 40, "tracked_nodes": 2,
        })
        run(cfg, tmp_path / "ck")
        table = np.loadtxt(tmp_path / "ck" / "obs_p.csv", delimiter=",", skiprows=1)
        value, clean, noise = table[:, 5], table[:, 6], table[:, 7]
        np.testing.assert_allclose(value, clean + noise, rtol=1e-12)
        assert np.abs(noise).max() > 0
