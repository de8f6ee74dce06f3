"""Outside-in probes and tracing of the jointprior modules.

The benchmark never edits the library: it replaces public functions and
methods of each module with thin wrappers, from this file, after import.

``install_stages`` is always on.  It marks when the first ``build_problem``
returns and when the first chain starts, and times every ``mwg_run`` call;
the end-to-end metrics come from these few marks.

``install_layers`` is on in traced runs only.  Each wrapper opens a span
(name, start, end, enclosing span) and the tracer folds finished spans into
per-name aggregates as they close:

* ``calls``   spans opened;
* ``busy_s``  self time: the span's duration minus the time its wrapped
              child spans cover;
* ``failed``  spans left by an exception.

A call into a span of the same name as the innermost open one (for example
``WhiteningFilter.apply_t`` delegating to ``apply``) is folded into the open
span, so one logical operation counts once.  Calls are also counted per
enclosing chain: ``joint`` when ``mwg_run`` samples the correlation,
``independent`` when it holds it fixed.

The wrappers only time and count: they call the original with the same
arguments and return its result unchanged, so the random stream and every
output file are the same with and without tracing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Span stack, per-name aggregates and stage marks of one process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.total = defaultdict(float)
        self.failed = defaultdict(int)
        self.caused = defaultdict(float)     # "parent>child" -> seconds
        self.extra = defaultdict(float)      # flops, bytes, accepted steps, ...
        self.scoped = defaultdict(lambda: defaultdict(int))  # chain -> name -> calls
        self.marks = {}                      # first occurrence of a stage event
        self.chains = []                     # one record per mwg_run call
        self._stack = []                     # [name, start, child seconds]
        self._scope = None

    def mark(self, event):
        self.marks.setdefault(event, time.monotonic())

    def add(self, key, amount):
        self.extra[key] += amount

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span.  ``before(args, kwargs)`` and
        ``after(args, kwargs, result, seconds)`` record what the span
        carries."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if self._scope is not None:
                self.scoped[self._scope][name] += 1
            if before is not None:
                before(args, kwargs)
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                duration = time.perf_counter() - frame[1]
                stack.pop()
                self.busy[name] += duration - frame[2]
                self.total[name] += duration
                if stack:
                    stack[-1][2] += duration
                    self.caused[f"{stack[-1][0]}>{name}"] += duration
            if after is not None:
                after(args, kwargs, result, duration)
            return result

        return wrapper

    def snapshot(self):
        names = sorted(self.calls)
        return {
            "spans": {n: {"calls": self.calls[n], "busy_s": self.busy[n],
                          "total_s": self.total[n], "failed": self.failed[n]}
                      for n in names},
            "caused_s": dict(self.caused),
            "extra": dict(self.extra),
            "scoped": {s: dict(c) for s, c in self.scoped.items()},
        }


def _package_modules():
    return [m for n, m in sys.modules.items()
            if n == "jointprior" or n.startswith("jointprior.")]


def _rebind(module, attr, make):
    """Replace ``module.attr`` by ``make(original)`` in every jointprior
    module that holds it: the library imports functions by name, so each
    importing module has its own reference."""
    original = getattr(module, attr)
    replacement = make(original)
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def _mark_after(tracer, event, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.mark(event)
        return result
    return wrapper


def _mark_before(tracer, event, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.mark(event)
        return fn(*args, **kwargs)
    return wrapper


def _chain_probe(tracer, fn):
    @functools.wraps(fn)
    def mwg_run(*args, **kwargs):
        scope = "joint" if kwargs.get("sample_correlation", True) else "independent"
        previous, tracer._scope = tracer._scope, scope
        start = time.perf_counter()
        try:
            chain = fn(*args, **kwargs)
        finally:
            tracer._scope = previous
        tracer.chains.append({
            "scope": scope, "seconds": time.perf_counter() - start,
            "iterations": chain.total_samples,
            "s_steps": chain.s_steps, "s_accepted": chain.s_accepted,
        })
        return chain
    return mwg_run


def install_stages(tracer):
    """Stage marks and chain timings; install after ``install_layers``."""
    from jointprior import inference
    from jointprior.experiments import cokrige, darcy

    for study in (cokrige, darcy):
        _rebind(study, "build_problem",
                lambda f: _mark_after(tracer, "build_problem_return", f))
        _rebind(study, "_run_single_chain",
                lambda f: _mark_before(tracer, "chain_start", f))
    _rebind(inference, "mwg_run", lambda f: _chain_probe(tracer, f))


def _file_bytes(result):
    paths = result if isinstance(result, tuple) else (result,)
    return sum(p.stat().st_size for p in paths if isinstance(p, Path))


class _SpluProxy:
    """Stand-in for ``scipy.sparse.linalg`` inside ``mesh_fem``, whose
    ``splu`` is traced so a Darcy solve's factorisation is split from its
    assembly; every other attribute is the real one."""

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install_layers(tracer):
    """Wrap the public functions of every jointprior layer in spans."""
    from jointprior import (covariance, diagnostics, forward_models, inference,
                            io_utils, joint_prior, linalg, mesh_fem)
    from jointprior.experiments import cokrige, common, darcy

    def fn(module, attr, name, **hooks):
        _rebind(module, attr, lambda f: tracer.span(name, f, **hooks))

    def meth(cls, attr, name, **hooks):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), **hooks))

    # linalg
    fn(linalg, "cholesky_lower", "linalg.cholesky",
       before=lambda a, k: tracer.add("linalg.cholesky.flop_computed",
                                      len(a[0]) ** 3 / 3.0))
    fn(linalg, "check_symmetric", "linalg.check_symmetric")
    fn(linalg, "sym_eig", "linalg.sym_eig")

    # covariance
    fn(covariance, "whitening_filter", "covariance.filter_build")
    fn(covariance, "fem_precision_filter", "covariance.filter_build")
    fn(covariance, "kl_truncate", "covariance.kl_truncate")
    for attr in ("apply", "apply_t"):
        meth(covariance.WhiteningFilter, attr, "covariance.filter_apply")
    for attr in ("solve", "solve_t"):
        meth(covariance.WhiteningFilter, attr, "covariance.filter_solve")

    # mesh_fem
    fn(mesh_fem, "assemble_fem_matrices", "mesh_fem.assemble")
    meth(mesh_fem.DarcySolver, "solve", "mesh_fem.darcy_solve")
    mesh_fem.spla = _SpluProxy(mesh_fem.spla,
                               tracer.span("mesh_fem.splu", mesh_fem.spla.splu))

    # joint_prior
    for attr in ("sample", "whiten", "log_density", "dense_covariance"):
        meth(joint_prior.JointPrior, attr, f"joint_prior.{attr}")
    meth(joint_prior.Contraction, "__init__", "joint_prior.contraction_new")

    # forward_models
    for cls in (forward_models.DarcyModel, forward_models.ReducedModel,
                forward_models.CokrigeModel):
        meth(cls, "__call__", "forward_models.forward")
    fn(forward_models, "fd_jacobian", "forward_models.fd_jacobian",
       before=lambda a, k: tracer.add("forward_models.fd_jacobian.columns",
                                      len(a[1])))

    # inference
    keys = []

    def gibbs_after(a, k, result, seconds):
        kind = "new_c" if a[0]._key != keys.pop() else "cached"
        tracer.add(f"inference.gibbs_draw.{kind}", 1)
        tracer.add(f"inference.gibbs_draw.{kind}_s", seconds)

    meth(inference._LinearGibbs, "draw", "inference.gibbs_draw",
         before=lambda a, k: keys.append(a[0]._key), after=gibbs_after)
    fn(inference, "metropolis_update_correlation", "inference.corr_step",
       after=lambda a, k, r, t: tracer.add("inference.corr_step.accepted", int(r[3])))
    meth(inference.FullJointFamily, "log_density", "inference.full_density")
    meth(inference.ReducedJointFamily, "log_density", "inference.reduced_density")
    fn(inference, "gauss_newton_map", "inference.gauss_newton",
       after=lambda a, k, r, t: tracer.add("inference.gauss_newton.iterations",
                                           r.iterations))
    fn(inference, "linear_gaussian_posterior", "inference.linear_posterior")
    fn(inference, "mwg_run", "inference.mwg_run")

    # diagnostics
    fn(diagnostics, "ess", "diagnostics.ess")

    # experiments and io_utils
    for study in (cokrige, darcy):
        fn(study, "build_problem", "experiments.build_problem")
    count_bytes = lambda a, k, r, t: tracer.add("experiments.outputs.bytes",
                                                _file_bytes(r))
    for attr in ("write_json", "save_matrix_csv", "save_table_csv",
                 "save_field_csv", "save_mesh_csv", "save_kl_basis_csv"):
        fn(io_utils, attr, "experiments.outputs", after=count_bytes)
    fn(common, "write_plot_script", "experiments.outputs", after=count_bytes)
