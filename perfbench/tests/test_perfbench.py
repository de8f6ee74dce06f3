"""Self-tests of the benchmark: its declared metrics, its workloads and the
work each workload is predicted to do or skip.

    python3 -m pytest perfbench/tests -q

The traced checks run each workload's study at a reduced size, since what a
workload does or bypasses does not depend on chain length or mesh size.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Reduced sizes of each workload for the traced checks.
SMALL = {
    "cokrige-desk": {"nx": 10, "ny": 5, "samples": 40, "burn_in": 10},
    "darcy-desk": {"nx": 10, "ny": 5, "k_p": 5, "k_m": 8, "u_obs_nx": 3,
                   "u_obs_ny": 2, "p_wells": 2, "p_per_well": 2,
                   "samples": 40, "burn_in": 10},
}


def test_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert m["unit"] and re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("higher", "lower")
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_listed_with_reasons():
    listed = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert set(listed) == set(run.WORKLOADS) == {"cokrige-desk", "darcy-desk"}
    assert set(run.PASSES) == set(run.WORKLOADS)
    for why in listed.values():
        assert why.strip() and "\n" not in why and len(why) <= 200


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """An untraced and a traced process per workload, at reduced size."""
    workdir = tmp_path_factory.mktemp("perfbench")
    env = dict(run.os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    saved = dict(run.WORKLOADS)
    pairs = {}
    try:
        for name, config in SMALL.items():
            subcommand = run.WORKLOADS[name][0]
            run.WORKLOADS[name] = (subcommand, config)
            untraced = run.Process(workdir, name, 7, tag="-untraced")
            traced = run.Process(workdir, name, 7, trace=True, tag="-traced")
            for proc in (untraced, traced):
                proc.run(env, timeout=120)
                assert proc.ok, proc.problems
            pairs[name] = (untraced, traced)
    finally:
        run.WORKLOADS.clear()
        run.WORKLOADS.update(saved)
    return pairs


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_tracing_leaves_outputs_unchanged(traced_pairs, workload):
    untraced, traced = traced_pairs[workload]
    assert traced.digest() == untraced.digest()


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_predicted_zero_work(traced_pairs, workload):
    _, traced = traced_pairs[workload]
    zeros = dict(run.predicted_zeros(traced))
    assert zeros and all(count == 0 for count in zeros.values()), zeros
    if workload == "cokrige-desk":
        assert "mesh_fem.darcy_solve.calls" in zeros
    else:
        for scope in ("independent", "joint"):
            assert f"inference.gibbs_draw.calls in the {scope} chain" in zeros
            assert f"covariance.filter_apply.calls in the {scope} chain" in zeros
        assert "inference.corr_step.calls in the independent chain" in zeros


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_layer_metrics_cover_benchmark_json(traced_pairs, workload):
    untraced, traced = traced_pairs[workload]
    values = run.layer_metrics(traced, untraced)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(values) | {"fail_ratio"} == declared
    spans = traced.record["trace"]["spans"]
    if workload == "cokrige-desk":
        assert values["inference.gibbs_draw.calls"] == SMALL[workload]["samples"] + 1
        assert values["inference.full_density.calls"] > 0
    else:
        assert values["mesh_fem.darcy_solve.calls"] > 0
        assert values["inference.gauss_newton.calls"] == 3
        assert spans["inference.reduced_density"]["calls"] > 0


def test_end_to_end_metrics_of_one_invocation(traced_pairs):
    untraced, _ = traced_pairs["darcy-desk"]
    values = run.invocation_metrics(untraced)
    assert set(values) == set(run.END_TO_END_UNITS)
    assert not run._finite_positive(values, "darcy-desk")
    assert values["setup_s"] < values["wall_s"]


class _Reading(run.Process):
    """A finished invocation as ``run_metrics`` reads it, without a process."""

    def __init__(self, wall, chain_s, iterations=700, ess=500.0):
        self.wall_s = wall
        self.peak_rss_mb = 100.0
        self.record = {"marks": {"build_problem_return": 1.0, "chain_start": 1.5},
                       "chains": [{"scope": "joint", "iterations": iterations,
                                   "seconds": chain_s}]}
        self.ess = ess

    def metrics_json(self):
        return {"joint": {"ess": {"p_median": self.ess, "m_median": 2 * self.ess}}}


def test_run_metrics_keep_the_fastest_reading_of_each_config():
    passes = [[_Reading(6.0, 4.0), _Reading(5.0, 3.0, ess=300.0)],
              [_Reading(5.5, 3.5), _Reading(7.0, 5.0, ess=300.0)]]
    values = run.run_metrics(passes)
    assert values["wall_s"] == 5.25            # median of 5.5 and 5.0
    assert values["iter_per_s"] == 1400 / 6.5  # chain times 3.5 and 3.0
    assert values["ess_field_per_s"] == 800 / 6.5
    assert values["setup_s"] == 1.0 and values["prechain_s"] == 0.5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cokrige-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
