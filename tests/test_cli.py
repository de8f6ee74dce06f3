import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jointprior
from jointprior.cli import SUBCOMMANDS, main
from jointprior.experiments.configs import (CokrigeConfig, ConfigError, DarcyConfig,
                                            FactorCompareConfig, MonodConfig,
                                            SamplePriorConfig, apply_scale,
                                            load_config)

TINY_COKRIGE = {
    "nx": 8, "ny": 5, "p_obs_nx": 2, "p_obs_ny": 2, "m_obs_nx": 2, "m_obs_ny": 1,
    "samples": 400, "burn_in": 50, "tracked_nodes": 3,
}

TINY_DARCY = {
    "nx": 9, "ny": 5, "k_p": 4, "k_m": 6, "samples": 300, "burn_in": 60,
    "u_obs_nx": 3, "u_obs_ny": 2, "p_wells": 2,
    "p_per_well": 2,
}

TINY_MONOD = {"samples": 500, "burn_in": 100, "grid_n": 41}

# subcommand -> config of a run of a few seconds
TINY = {
    "sample-prior": {"nx": 6, "ny": 4, "nx_mixed": 6, "ny_mixed": 4, "n_samples": 1},
    "factor-compare": {"n_points": 20},
    "monod": TINY_MONOD,
    "cokrige": TINY_COKRIGE,
    "darcy": TINY_DARCY,
    "verify": {},
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Output directory of a subcommand's TINY run, made once per module."""
    runs = {}

    def run(subcommand):
        if subcommand not in runs:
            root = tmp_path_factory.mktemp(subcommand)
            cfg = write_config(root, TINY[subcommand])
            assert main([subcommand, "--config", str(cfg), "--out", str(root / "out")]) == 0
            runs[subcommand] = root / "out"
        return runs[subcommand]

    return run


def assert_rerun_byte_identical(tmp_path, subcommand, payload):
    cfg = write_config(tmp_path, payload)
    for name in ("a", "b"):
        code = main([subcommand, "--config", str(cfg), "--seed", "4",
                     "--out", str(tmp_path / name)])
        assert code == 0
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        if name == "timings.json":  # wall clock differs by design
            continue
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


class TestConfigLoading:
    def test_defaults_validate(self):
        cfg = load_config(CokrigeConfig, None, None)
        assert cfg.nx == 26 and cfg.seed == 0

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, {"nx": 10, "mystery_knob": 3})
        with pytest.raises(ConfigError, match="mystery_knob"):
            load_config(CokrigeConfig, path, None)

    @pytest.mark.parametrize("cls", [SamplePriorConfig, FactorCompareConfig, MonodConfig,
                                     CokrigeConfig, DarcyConfig])
    def test_default_correlations_load(self, cls):
        load_config(cls, None, None)

    def test_invalid_values_rejected(self, tmp_path):
        path = write_config(tmp_path, {"samples": 10, "burn_in": 10})
        with pytest.raises(ConfigError):
            load_config(CokrigeConfig, path, None)

    def test_paper_scale_configs_load(self):
        # <subcommand>_full.json: a stale key fails here, not in a long run
        root = Path(__file__).resolve().parents[1] / "scripts" / "paper_scale_configs"
        paths = sorted(root.glob("*.json"))
        assert {p.stem for p in paths} >= {"sample_prior_full", "cokrige_full", "darcy_full"}
        for path in paths:
            _, cls = SUBCOMMANDS[path.stem.removesuffix("_full").replace("_", "-")]
            load_config(cls, path, None)

    def test_overrides_win_over_file(self, tmp_path):
        path = write_config(tmp_path, {"seed": 3})
        cfg = load_config(CokrigeConfig, path, {"seed": 9})
        assert cfg.seed == 9

    def test_scale_applies_to_resolution_fields(self):
        cfg = load_config(MonodConfig, None, None)
        apply_scale(cfg, 0.5)
        assert cfg.grid_n == round(241 * 0.5)
        cfg2 = load_config(CokrigeConfig, None, None)
        apply_scale(cfg2, 0.5)
        assert cfg2.nx == 13 and cfg2.ny == 6

    def test_scale_respects_minimums(self):
        cfg = load_config(CokrigeConfig, None, None)
        apply_scale(cfg, 0.01)
        assert cfg.nx >= 4 and cfg.ny >= 3


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats alone costs about as much start-up as the rest of the CLI,
    # and scipy.fft with the scipy.special it loads about 65 ms more.
    src = Path(jointprior.__file__).resolve().parents[1]
    code = ("import sys, jointprior.cli; "
            "print([m for m in ('scipy.stats', 'scipy.fft', 'scipy.special') "
            "if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.stdout.strip() == "[]"


class TestCliRuns:
    def test_verify_exits_zero(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path / "v")])
        assert code == 0
        assert (tmp_path / "v" / "verify.json").exists()
        out = capsys.readouterr().out
        assert "12/12 checks passed" in out

    def test_sample_prior_outputs(self, tmp_path):
        code = main([
            "sample-prior", "--out", str(tmp_path / "sp"), "--scale", "0.5",
            "--seed", "1",
        ])
        assert code == 0
        out_dir = tmp_path / "sp"
        for name in ("shared_lattice_samples.csv", "mixed_boundary_samples.csv",
                     "manifest.json", "timings.json", "plot.py"):
            assert (out_dir / name).exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["config"]["nx"] == 10  # scaled from 20

    def test_factor_compare_runs(self, tmp_path):
        code = main(["factor-compare", "--out", str(tmp_path / "fc"), "--scale", "0.5"])
        assert code == 0
        table = np.loadtxt(tmp_path / "fc" / "realised_correlation.csv",
                           delimiter=",", skiprows=1)
        phi_principal = table[:, 2]
        # the symmetric factor keeps the split-sign correlation antisymmetric
        assert np.abs(phi_principal + phi_principal[::-1]).max() < 1e-9
        phi_cholesky = table[:, 3]
        assert np.abs(phi_cholesky + phi_cholesky[::-1]).max() > 0.1

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"not_a_key": 1})
        code = main(["cokrige", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file_exit_code(self, tmp_path):
        code = main(["cokrige", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    # id -> (subcommand, payload, the offending field, which the error message
    # must name so that no other fault passes the case).  A "payload<N>" id
    # stays fixed when other cases are added or removed.
    INVALID = {
        "darcy-payload0": ("darcy", {**TINY_DARCY, "c_true": [float("nan"), 0.2]}, "c_true"),
        "darcy-payload1": ("darcy", {**TINY_DARCY, "c_true": [1.5, 0.2]}, "c_true"),
        "cokrige-payload2": ("cokrige", {**TINY_COKRIGE, "fixed_correlations": [0.9, 1.0]},
                             "fixed_correlations"),
        "sample-prior-payload3": ("sample-prior", {"correlation": 1.5}, "correlation"),
        "sample-prior-payload4": ("sample-prior", {"mixed_correlation": float("nan")},
                                  "mixed_correlation"),
        "factor-compare-payload5": ("factor-compare", {"correlation": 1.5}, "correlation"),
        "monod-payload6": ("monod", {"scan_correlations": [0.5, 1.5]}, "scan_correlations"),
        # a deleted setting (cokrige always takes one independence c step)
        "cokrige-payload7": ("cokrige", {**TINY_COKRIGE, "c_steps": 1},
                             "unknown config keys: ['c_steps']"),
        # a deleted setting (monod always takes one independence move)
        "monod-payload9": ("monod", {"c_steps": 1}, "unknown config keys: ['c_steps']"),
        "darcy-payload13": ("darcy", {**TINY_DARCY, "c_steps": -1}, "c_steps"),
        # values of the wrong type
        "cokrige-float-count": ("cokrige", {**TINY_COKRIGE, "samples": 400.5}, "samples"),
        "cokrige-float-size": ("cokrige", {**TINY_COKRIGE, "nx": 6.0}, "nx"),
        "darcy-bool-count": ("darcy", {**TINY_DARCY, "c_steps": True}, "c_steps"),
        "monod-string-count": ("monod", {"grid_n": "41"}, "grid_n"),
        "sample-prior-string-float": ("sample-prior", {"kernel_length": "0.2"},
                                      "kernel_length"),
        "cokrige-bool-float": ("cokrige", {**TINY_COKRIGE, "noise_pct_p": True},
                               "noise_pct_p"),
        # tuple entries of the wrong type, and fixed-length tuples of another length
        "monod-string-entry": ("monod", {"noise_levels": ["0.1"]}, "noise_levels"),
        "monod-bool-entry": ("monod", {"substrate": [28.0, True]}, "substrate"),
        "monod-short-range": ("monod", {"p_range": [1.2]}, "p_range"),
        "monod-long-range": ("monod", {"m_range": [2.0, 122.0, 5.0]}, "m_range"),
        "darcy-short-tuple": ("darcy", {**TINY_DARCY, "c_true": [0.5]}, "c_true"),
        # values out of range that used to fail only after work had started
        "sample-prior-negative-seed": ("sample-prior", {"seed": -1}, "seed"),
        "cokrige-negative-tracked": ("cokrige", {**TINY_COKRIGE, "tracked_nodes": -2},
                                     "tracked_nodes"),
        "cokrige-empty-obs-grid": ("cokrige", {**TINY_COKRIGE, "m_obs_ny": 0}, "m_obs_ny"),
        "darcy-empty-obs-grid": ("darcy", {**TINY_DARCY, "u_obs_nx": 0}, "u_obs_nx"),
        "darcy-no-wells": ("darcy", {**TINY_DARCY, "p_wells": 0}, "p_wells"),
        "darcy-zero-noise": ("darcy", {**TINY_DARCY, "noise_pct_u": 0}, "noise_pct_u"),
        "darcy-zero-kernel-length": ("darcy", {**TINY_DARCY, "kernel_length": 0},
                                     "kernel_length"),
        "monod-zero-prior-std": ("monod", {**TINY_MONOD, "prior_std_p": 0}, "prior_std_p"),
        "monod-zero-mcmc-noise": ("monod", {**TINY_MONOD, "mcmc_noise": 0}, "mcmc_noise"),
        "monod-zero-noise-level": ("monod", {**TINY_MONOD, "noise_levels": [0.0, 0.03]},
                                   "noise_levels"),
        "monod-reversed-range": ("monod", {**TINY_MONOD, "p_range": [1.0, 0.0]}, "p_range"),
        "monod-repeated-scan": ("monod", {**TINY_MONOD, "scan_correlations": [0.5, 0.5]},
                                "scan_correlations"),
        "cokrige-zero-length": ("cokrige", {**TINY_COKRIGE, "lx": 0}, "lx"),
        "darcy-zero-length": ("darcy", {**TINY_DARCY, "ly": 0}, "ly"),
        "sample-prior-negative-length": ("sample-prior", {"lx": -2.0}, "lx"),
    }

    @pytest.mark.parametrize("subcommand,payload,field", list(INVALID.values()),
                             ids=list(INVALID))
    def test_invalid_correlation_exit_code(self, tmp_path, capsys, subcommand, payload,
                                           field):
        path = write_config(tmp_path, payload)
        code = main([subcommand, "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and field in err
        # no misspelt key passes a case that checks a value
        assert ("unknown config keys" in err) == field.startswith("unknown config keys")
        assert not (tmp_path / "x").exists()  # rejected before any computation

    @pytest.mark.parametrize("subcommand,payload", [
        ("darcy", TINY_DARCY), ("cokrige", TINY_COKRIGE),
    ])
    def test_constant_chain_reports_nan_ess(self, tmp_path, subcommand, payload):
        # one retained sample: every chain coordinate is constant, and its
        # NaN ESS is written as null
        cfg = write_config(tmp_path, payload)
        code = main([subcommand, "--config", str(cfg), "--samples", "2", "--burn-in", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 0
        ess = json.loads((tmp_path / "x" / "metrics.json").read_text())["joint"]["ess"]
        assert ess and all(v is None for v in ess.values())

    def test_darcy_metrics_are_strict_json(self, tmp_path):
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        cfg = write_config(tmp_path, TINY_DARCY)
        code = main(["darcy", "--config", str(cfg), "--samples", "2", "--burn-in", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 0
        text = (tmp_path / "x" / "metrics.json").read_text()
        metrics = json.loads(text, parse_constant=refuse)
        # the independent chain takes no correlation steps: its rate is NaN
        assert metrics["independent"]["acceptance"]["gamma"] is None

    def test_flag_misuse_exit_code(self, tmp_path):
        code = main(["sample-prior", "--samples", "10", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_cokrige_rerun_is_byte_identical(self, tmp_path):
        assert_rerun_byte_identical(tmp_path, "cokrige", TINY_COKRIGE)

    def test_darcy_rerun_is_byte_identical(self, tmp_path):
        assert_rerun_byte_identical(tmp_path, "darcy", TINY_DARCY)

    @pytest.mark.parametrize("subcommand", list(TINY))
    def test_manifest_lists_every_output(self, tiny_run, subcommand):
        out_dir = tiny_run(subcommand)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        written = {p.name for p in out_dir.iterdir()} - {"manifest.json", "timings.json"}
        assert sorted(manifest["outputs"]) == sorted(written)

    @pytest.mark.parametrize("subcommand", [s for s in TINY if s != "verify"])
    def test_plot_script_reads_listed_outputs(self, tiny_run, subcommand):
        """The written plot.py compiles, and every file it loads is a listed
        output.  matplotlib is not a dependency, so the script is compiled
        but not run."""
        out_dir = tiny_run(subcommand)
        text = (out_dir / "plot.py").read_text()
        compile(text, "plot.py", "exec")
        loaded = re.findall(r"np\.loadtxt\(\s*\"([^\"]+)\"", text)
        outputs = json.loads((out_dir / "manifest.json").read_text())["outputs"]
        assert loaded and set(loaded) <= set(outputs)

    def test_monod_scaled_smoke(self, tiny_run):
        table = np.loadtxt(tiny_run("monod") / "density_at_truth.csv",
                           delimiter=",", skiprows=1)
        assert table.shape == (10, 3)

    def test_darcy_tiny_smoke(self, tmp_path):
        cfg = write_config(tmp_path, TINY_DARCY)
        code = main(["darcy", "--config", str(cfg), "--out", str(tmp_path / "dy")])
        assert code == 0
        metrics = json.loads((tmp_path / "dy" / "metrics.json").read_text())
        assert set(metrics) >= {"joint", "independent", "c_posterior_medians"}
        assert 0.0 < metrics["joint"]["acceptance"]["block"] < 1.0
        # the independent chain (c held at 0) takes the same independence kernel
        assert 0.0 < metrics["independent"]["acceptance"]["block"] < 1.0
        chain = np.loadtxt(tmp_path / "dy" / "chain_reduced.csv", delimiter=",",
                           skiprows=1)
        assert chain.shape == (240, 4 + 6 + 2)
