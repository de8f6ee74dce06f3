"""The jointprior benchmark: the two MCMC studies driven through the real
command line, end-to-end metrics, a correctness gate and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each workload invocation is one
process running ``jointprior.cli.main`` on a generated config with a single
chain (``n_chains = 1``, no process pool).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``BENCHMARK.json`` with ``--trace 1``.  The lines before it hold
the machine record and a per-process report.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PYTHON = sys.executable or "python3"

# name -> (subcommand, config beyond the desk defaults).  Chains are
# bounded by samples/burn_in so that a run fits its time budget.
WORKLOADS = {
    "cokrige-desk": ("cokrige", {"samples": 600, "burn_in": 100}),
    "darcy-desk": ("darcy", {"samples": 200, "burn_in": 100}),
}

# An untraced run makes PASSES[workload] passes over its configs and times
# each config by the fastest of its identical invocations.  Repeats pay off
# on cokrige-desk, whose run-to-run spread is the machine's; on darcy-desk
# the spread is the configs' (the field ESS of its bounded chain differs by
# 8-12% from config to config), so it runs more configs once each.
PASSES = {"cokrige-desk": 2, "darcy-desk": 1}

BLAS_THREADS = 1

# Thresholds of tests/test_acceptance.py (criteria 6 and 9), unchanged.
SIGN_GAP_MAX = 1e-9
JOINT_SLACK = 0.02

# Chain outputs compared byte for byte between same-seed runs: every file a
# study writes except its wall-clock timings.
NOT_DIGESTED = {"timings.json"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "prechain_s": "s",
                    "iter_per_s": "1/s", "ess_field_per_s": "1/s",
                    "peak_rss_mb": "MB"}


# ----------------------------------------------------------------------------
# machine record
# ----------------------------------------------------------------------------


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def machine_record(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    return {
        "nproc": nproc,
        "cpu": platform.processor() or platform.machine(),
        "l2_per_core": caches.get("L2"),
        "l3": caches.get("L3"),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ----------------------------------------------------------------------------
# one workload process
# ----------------------------------------------------------------------------


def sub_seed(workload, seed, index):
    """Config seed of the index-th process of a run: a function of the
    benchmark seed alone, so the same seed gives the same inputs."""
    return random.Random(f"{workload}:{seed}:{index}").randrange(2**31)


def _digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name in NOT_DIGESTED or not path.is_file():
            continue
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Process:
    """One worker process: its record, wall time, peak memory and outputs."""

    def __init__(self, workdir, workload, sub_seed, *, trace=False,
                 probe=False, tag=""):
        self.workload = workload
        self.sub_seed = sub_seed
        self.trace = trace
        self.probe = probe
        self.name = f"{workload}-{sub_seed}{tag}"
        self.dir = workdir / self.name
        self.out = self.dir / "out"
        self.record = None
        self.wall_s = None
        self.peak_rss_mb = None
        self.problems = []

    def run(self, env, timeout):
        subcommand, extra = WORKLOADS[self.workload]
        self.dir.mkdir(parents=True)
        config = self.dir / "config.json"
        config.write_text(json.dumps(dict(extra, seed=self.sub_seed, n_chains=1)))
        record = self.dir / "record.json"
        cmd = [PYTHON, str(HERE / "worker.py"), "--root", str(ROOT),
               "--record", str(record)]
        cmd += ["--trace"] if self.trace else []
        cmd += ["--probe"] if self.probe else []
        with open(self.dir / "log.txt", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                cmd + ["--t0", repr(t0), "--", subcommand, "--config",
                       str(config), "--out", str(self.out)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        if proc.returncode != 0:
            tail = (self.dir / "log.txt").read_text(errors="replace")[-2000:]
            self.problems.append(f"exit code {proc.returncode}: {tail}")
            return
        self.record = json.loads(record.read_text())
        module = Path(self.record["module_file"]).resolve()
        if ROOT / "src" not in module.parents:
            self.problems.append(f"imported jointprior from {module}, not the checkout")

    @property
    def ok(self):
        return not self.problems

    def setup_s(self):
        return self.record["marks"]["build_problem_return"]

    def prechain_s(self):
        marks = self.record["marks"]
        return marks["chain_start"] - marks["build_problem_return"]

    def joint_chain(self):
        (joint,) = [c for c in self.record["chains"] if c["scope"] == "joint"]
        return joint

    def metrics_json(self):
        return json.loads((self.out / "metrics.json").read_text())

    def digest(self):
        return _digest(self.out)


# ----------------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------------


def check_outputs(proc):
    """Gated checks on one finished invocation; returns problems."""
    cokrige = WORKLOADS[proc.workload][0] == "cokrige"
    scopes = sorted(c["scope"] for c in proc.record["chains"])
    expected = ["joint"] if cokrige else ["independent", "joint"]
    if scopes != expected:
        return [f"expected chains {expected}, ran {scopes}"]
    metrics = proc.metrics_json()
    if cokrige:
        gap = metrics["sign_invariance_max_gap"]
        if gap is None or not gap < SIGN_GAP_MAX:
            return [f"sign invariance gap {gap} >= {SIGN_GAP_MAX}"]
        return []
    warm = metrics["warm_start"]
    if warm is None or not warm["converged"]:
        return [f"Gauss-Newton warm start did not converge: {warm}"]
    return []


def statistical_criteria(proc):
    """Criteria 9 (cokrige) and 10 (darcy) of the acceptance tests on one
    bounded chain.  Reported, not gated: at these chain lengths they fail
    on some seeds whatever the code does (see perfbench/NOTES.md)."""
    metrics = proc.metrics_json()
    joint, ind = metrics["joint"], metrics["independent"]
    if WORKLOADS[proc.workload][0] == "cokrige":
        gaps = {k: joint[k] - ind[k] for k in ("e_p", "e_m", "u_p", "u_m")}
        return {"joint_minus_independent": gaps,
                "c_mass_below_zero": metrics["c_mass_below_zero"],
                "met": all(g <= JOINT_SLACK for g in gaps.values())}
    c1, c2 = metrics["c_posterior_medians"]
    return {"c_medians": [c1, c2], "e_m_joint": joint["e_m"],
            "e_m_independent": ind["e_m"],
            "met": bool(c1 > 0 > c2 and joint["e_m"] < ind["e_m"])}


def joint_chain_totals(proc):
    """Iterations, seconds and field ESS of an invocation's joint chain."""
    chain = proc.joint_chain()
    ess = proc.metrics_json()["joint"]["ess"]
    return (chain["iterations"], chain["seconds"],
            min(ess["p_median"], ess["m_median"]))


def invocation_metrics(proc):
    """End-to-end figures of one full invocation."""
    iterations, seconds, ess = joint_chain_totals(proc)
    return {
        "wall_s": proc.wall_s,
        "setup_s": proc.setup_s(),
        "prechain_s": proc.prechain_s(),
        "iter_per_s": iterations / seconds,
        "ess_field_per_s": ess / seconds,
        "peak_rss_mb": proc.peak_rss_mb,
    }


def run_metrics(passes):
    """End-to-end metrics of a run.  ``passes`` holds one list of
    invocations per pass, config for config.  A config's wall and chain
    times are the smallest of its readings, since its invocations do
    identical work (same config, byte-identical outputs); ``wall_s`` is their
    median over configs, and the chain rates pool the configs (total
    iterations or field ESS over total chain seconds).  The short set-up and
    pre-chain stages, and peak memory, are medians over every invocation."""
    procs = [p for runs in passes for p in runs]
    values = {k: statistics.median(invocation_metrics(p)[k] for p in procs)
              for k in ("setup_s", "prechain_s", "peak_rss_mb")}
    configs = list(zip(*passes))
    values["wall_s"] = statistics.median(min(p.wall_s for p in runs)
                                         for runs in configs)
    iterations = seconds = ess = 0
    for runs in configs:
        it, _, es = joint_chain_totals(runs[0])
        iterations += it
        ess += es
        seconds += min(joint_chain_totals(p)[1] for p in runs)
    values["iter_per_s"] = iterations / seconds
    values["ess_field_per_s"] = ess / seconds
    return values


def _finite_positive(values, where):
    return [f"{where}: {k} = {v!r} is not finite and positive"
            for k, v in values.items()
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0)]


class DigestStore:
    """Chain digests of earlier runs in this checkout, keyed by workload,
    seed, benchmark and library source, so a same-seed rerun is checked
    byte for byte even across runs."""

    def __init__(self, path, source_hash):
        self.path = path
        self.source_hash = source_hash

    def _load(self):
        try:
            return json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}

    def check(self, proc, digest):
        key = f"{proc.workload}:{proc.sub_seed}:{self.source_hash}"
        known = self._load()
        if key in known:
            if known[key] != digest:
                return [f"outputs differ from an earlier run with the same seed "
                        f"({digest[:12]} vs {known[key][:12]})"]
            return []
        known[key] = digest
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return []


def source_hash():
    h = hashlib.sha256()
    for base in (ROOT / "src" / "jointprior", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + path.read_bytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------------
# per-layer metrics from a traced invocation
# ----------------------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced, untraced):
    """Per-layer figures of one traced invocation, named as in BENCHMARK.json."""
    snap = traced.record["trace"]
    spans, extra = snap["spans"], snap["extra"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def busy(name):
        return spans.get(name, {}).get("busy_s", 0.0)

    def failed(name):
        return spans.get(name, {}).get("failed", 0)

    out = {}
    for name in ("linalg.cholesky", "covariance.filter_apply",
                 "covariance.filter_solve", "mesh_fem.darcy_solve",
                 "mesh_fem.splu", "joint_prior.sample", "joint_prior.whiten",
                 "joint_prior.log_density", "joint_prior.dense_covariance",
                 "forward_models.forward", "forward_models.fd_jacobian",
                 "inference.gibbs_draw", "inference.corr_step",
                 "inference.full_density", "inference.reduced_density",
                 "inference.gauss_newton", "inference.linear_posterior",
                 "diagnostics.ess", "experiments.build_problem"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
    for name in ("linalg.check_symmetric", "linalg.sym_eig",
                 "covariance.filter_build", "covariance.kl_truncate",
                 "mesh_fem.assemble", "inference.mwg_run", "experiments.outputs"):
        out[f"{name}.busy_s"] = busy(name)
    out["joint_prior.contraction_new.calls"] = calls("joint_prior.contraction_new")
    out["linalg.cholesky.flop_computed"] = extra.get("linalg.cholesky.flop_computed", 0.0)
    out["linalg.failed"] = sum(failed(n) for n in spans if n.startswith("linalg."))
    for name in ("mesh_fem.darcy_solve", "forward_models.forward",
                 "inference.reduced_density"):
        out[f"{name}.failed"] = failed(name)
    out["forward_models.fd_jacobian.columns"] = extra.get(
        "forward_models.fd_jacobian.columns", 0.0)
    new_c = extra.get("inference.gibbs_draw.new_c", 0.0)
    cached = extra.get("inference.gibbs_draw.cached", 0.0)
    out["inference.gibbs_factor.misses"] = new_c
    out["inference.gibbs_factor.hit_ratio"] = _ratio(cached, new_c + cached)
    out["inference.gibbs_draw.new_c_ms"] = 1e3 * _ratio(
        extra.get("inference.gibbs_draw.new_c_s", 0.0), new_c)
    out["inference.gibbs_draw.cached_ms"] = 1e3 * _ratio(
        extra.get("inference.gibbs_draw.cached_s", 0.0), cached)
    out["inference.corr_step.accept_ratio"] = _ratio(
        extra.get("inference.corr_step.accepted", 0.0), calls("inference.corr_step"))
    chains = traced.record["chains"]
    out["inference.field_step.accept_ratio"] = _ratio(
        sum(c["s_accepted"] for c in chains), sum(c["s_steps"] for c in chains))
    out["inference.gauss_newton.iterations"] = extra.get(
        "inference.gauss_newton.iterations", 0.0)
    ess = traced.metrics_json()["joint"]["ess"]
    ess_c = min(v for k, v in ess.items() if k in ("c", "c1", "c2"))
    out["inference.ess_c_per_s"] = ess_c / traced.joint_chain()["seconds"]
    out["experiments.outputs.bytes"] = extra.get("experiments.outputs.bytes", 0.0)
    out["trace_overhead_ratio"] = traced.wall_s / untraced.wall_s
    return out


def predicted_zeros(proc):
    """Work a workload is predicted not to do, as (description, count)."""
    snap = proc.record["trace"]
    spans, scoped = snap["spans"], snap["scoped"]

    def calls(name, scope=None):
        table = spans if scope is None else scoped.get(scope, {})
        value = table.get(name, 0)
        return value["calls"] if isinstance(value, dict) else value

    if WORKLOADS[proc.workload][0] == "cokrige":
        names = ("mesh_fem.darcy_solve", "forward_models.fd_jacobian",
                 "inference.gauss_newton", "inference.reduced_density")
        return [(f"{n}.calls", calls(n)) for n in names]
    out = []
    for scope in ("independent", "joint"):
        for n in ("inference.gibbs_draw", "covariance.filter_apply",
                  "joint_prior.whiten"):
            out.append((f"{n}.calls in the {scope} chain", calls(n, scope)))
    out.append(("inference.corr_step.calls in the independent chain",
                calls("inference.corr_step", "independent")))
    for n in ("inference.full_density", "inference.linear_posterior"):
        out.append((f"{n}.calls", calls(n)))
    return out


# ----------------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------------


def per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def run_benchmark(workload, seed, seconds, trace, workdir):
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    # one BLAS thread: at most nproc, and on shared cores steadier and
    # faster than one thread per core (see NOTES.md)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    print(json.dumps({"machine": machine_record(nproc)}), flush=True)

    start = time.monotonic()
    deadline = start + seconds
    store = DigestStore(workdir.parent / "digests.json", source_hash())
    procs = []

    def launch(sub_seed, **kwargs):
        proc = Process(workdir, workload, sub_seed, **kwargs)
        procs.append(proc)
        proc.run(env, timeout=max(5.0, 170.0 - (time.monotonic() - start)))
        threads = proc.record and proc.record["blas_threads"]
        if threads and threads > nproc:
            proc.problems.append(f"BLAS ran {threads} threads on {nproc} cores")
        if proc.ok and not proc.probe:
            proc.problems += check_outputs(proc)
            proc.problems += store.check(proc, proc.digest())
        return proc

    report = {"workload": workload, "seed": seed, "trace": trace, "processes": []}

    metrics = {}
    if trace:
        launch(sub_seed(workload, seed, 0), probe=True, tag="-probe")
        untraced = launch(sub_seed(workload, seed, 0), tag="-untraced")
        traced = launch(sub_seed(workload, seed, 0), trace=True, tag="-traced")
        if untraced.ok and traced.ok:
            if traced.digest() != untraced.digest():
                traced.problems.append("traced outputs differ from untraced outputs")
            for what, count in predicted_zeros(traced):
                if count != 0:
                    traced.problems.append(f"predicted zero, measured {count}: {what}")
            values = layer_metrics(traced, untraced)
            values["fail_ratio"] = sum(not p.ok for p in procs) / len(procs)
            metrics = {n: {"value": values[n], "unit": u} for n, u in per_layer_names()}
            report["trace"] = traced.record["trace"]
    else:
        n_passes = PASSES[workload]
        first = []
        for i in itertools.count():
            first.append(launch(sub_seed(workload, seed, i), tag="-1"))
            # one more config costs a run an invocation per pass, and the
            # later passes over the configs so far one invocation each
            wall = statistics.mean(p.wall_s for p in first)
            left = (n_passes + (n_passes - 1) * len(first)) * wall
            if time.monotonic() + left > deadline:
                break
        runs = [first] + [[launch(p.sub_seed, tag=f"-{k + 1}") for p in first]
                          for k in range(1, n_passes)]
        if all(p.ok for p in procs):
            values = run_metrics(runs)
            procs[-1].problems += _finite_positive(values, workload)
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END_UNITS.items()}

    for p in procs:
        entry = {"name": p.name, "wall_s": p.wall_s, "peak_rss_mb": p.peak_rss_mb,
                 "ok": p.ok, "problems": p.problems}
        if p.ok:
            entry["setup_s"] = p.setup_s()
            entry["prechain_s"] = p.prechain_s()
            entry["blas_threads"] = p.record["blas_threads"]
            if not p.probe:
                entry["metrics"] = invocation_metrics(p)
                entry["statistical_criteria"] = statistical_criteria(p)
        report["processes"].append(entry)
    criteria = [e["statistical_criteria"]["met"] for e in report["processes"]
                if "statistical_criteria" in e]
    report["statistical_criteria_met"] = f"{sum(criteria)}/{len(criteria)}"
    print(json.dumps({"report": report}), flush=True)
    for p in procs:
        for problem in p.problems:
            print(f"FAILED {p.name}: {problem}", file=sys.stderr)
    failed = sum(not p.ok for p in procs)
    return {"correct": failed == 0, "attempted": len(procs), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jointprior" / "cli.py").is_file():
        print(f"no jointprior sources under {ROOT / 'src'}: run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
