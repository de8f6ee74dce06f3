"""Shared experiment plumbing: observation layouts, posterior summaries and
field ESS of chains, multi-chain runs, shared output tables and the run
manifest."""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .. import __version__
from ..diagnostics import PosteriorSummary, correlation_histogram, ess
from ..io_utils import save_field_csv, save_table_csv, write_json


def interior_grid(x0, x1, y0, y1, nx, ny):
    """nx * ny regularly spaced points strictly inside a rectangle
    (half-cell inset, row-major order)."""
    xs = x0 + (x1 - x0) * (np.arange(nx) + 0.5) / nx
    ys = y0 + (y1 - y0) * (np.arange(ny) + 0.5) / ny
    xx, yy = np.meshgrid(xs, ys)
    return np.column_stack([xx.ravel(), yy.ravel()])


def well_points(lx, ly, n_wells, per_well):
    """Vertical well paths: n_wells x-stations, per_well depths each."""
    xs = lx * (np.arange(n_wells) + 0.5) / n_wells
    ys = ly * (np.arange(per_well) + 0.5) / per_well
    pts = [(x, y) for x in xs for y in ys]
    return np.asarray(pts)


def range_noise_std(values, percent):
    """Noise standard deviation as a percentage of the observed range."""
    values = np.asarray(values, dtype=float)
    spread = float(values.max() - values.min())
    if spread <= 0:
        raise ValueError("observed values have zero range; cannot set relative noise")
    return percent / 100.0 * spread


SUMMARY_BATCH = 2000  # chain rows expanded and summarised at a time


def chain_summary(chains, n1, field_map=None):
    """Posterior mean and pointwise variance of the fields over the rows of
    every state array in ``chains``, without stacking them.  Each chain is
    read SUMMARY_BATCH rows at a time and expanded to fields: the identity,
    or the reduced coordinates through the bases and means of ``field_map``.
    Batches merge by the pairwise rule (Chan, Golub & LeVeque 1983), with the
    difference of their means corrected by the rounding residuals (``low``),
    so a field mean far above its spread costs the variance no digits.  The
    first n1 fields are p."""
    count, mean, low, m2 = 0, 0.0, 0.0, 0.0
    for states in chains:
        for start in range(0, len(states), SUMMARY_BATCH):
            f = states[start : start + SUMMARY_BATCH].T  # one column per sample
            if field_map is not None:
                f = np.vstack(field_map.expand(f))
            size, block_mean = f.shape[1], f.mean(axis=1)
            f = f - block_mean[:, None]  # a new array: the chain's states stay as they are
            residual, total = f.mean(axis=1), count + size
            f *= f
            delta = block_mean - mean
            m2 = m2 + f.sum(axis=1) + (delta + (residual - low)) ** 2 * (count * size / total)
            step = delta * (size / total)
            rounded = mean + step
            # the residual's share and what rounding the running mean dropped
            low = low + (residual - low) * (size / total) + (step - (rounded - mean))
            mean, count = rounded, total
    var = m2 / count
    return PosteriorSummary(mean[:n1], mean[n1:], var[:n1], var[n1:])


def chain_ess(x):
    """Effective sample size of one chain coordinate; NaN when the
    coordinate never moved (a constant sequence has no autocorrelation)."""
    x = np.asarray(x, dtype=float)
    return float("nan") if x.std() == 0.0 else ess(x)


def median_ess(states):
    """Median effective sample size over the columns of a chain block whose
    ``chain_ess`` is not NaN, taken in chunks of columns of about 2^14
    numbers; NaN when there are none."""
    states = np.asarray(states, dtype=float)
    width = max(1, 2**14 // max(1, len(states)))
    rows = (np.ascontiguousarray(states[:, j : j + width].T)  # rows as ``ess`` reads them
            for j in range(0, states.shape[1], width))
    vals = np.concatenate([[]] + [ess(r[r.std(axis=-1) > 0.0].T) for r in rows])
    return float(np.median(vals)) if vals.size else float("nan")


def field_ess(chains, kp):
    """Median ESS of the p columns (the first kp) and of the m columns of
    the first chain's states."""
    states = chains[0].states
    return {"p_median": median_ess(states[:, :kp]), "m_median": median_ess(states[:, kp:])}


_chain = None  # set in each forked pool worker by its initializer


def _set_chain(chain):
    global _chain
    _chain = chain


def _call_chain(seed):
    return _chain(seed)


def run_chains(chain, seeds):
    """``[chain(seed) for seed in seeds]``.  Several seeds run in a pool of
    forked processes, at most one per CPU, that inherit ``chain`` and the
    problem it holds through the initializer: only seeds and chains are
    pickled (a SuperLU factor cannot be).  Results depend only on the seeds."""
    if len(seeds) == 1:
        return [chain(seeds[0])]
    with ProcessPoolExecutor(min(len(seeds), os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_chain, initargs=(chain,)) as pool:
        return list(pool.map(_call_chain, seeds))


def save_observation_csv(path, op, observed, clean):
    """Requested and snapped observation locations with the observed values,
    their noise-free part and the noise."""
    return save_table_csv(
        path,
        [op.requested[:, 0], op.requested[:, 1], op.node_indices,
         op.snapped[:, 0], op.snapped[:, 1], observed, clean, observed - clean],
        ["x_requested", "y_requested", "node", "x", "y", "value", "clean", "noise"],
    )


def save_fields_csv(out_dir, problem, independent, joint):
    """``fields.csv``: the truth, the conditional means and the pointwise
    standard deviations of the independent and joint posteriors, and D (the
    independent minus the joint standard deviation) of each field."""
    return save_field_csv(Path(out_dir) / "fields.csv", problem["mesh"], {
        "truth_p": problem["truth_p"],
        "truth_m": problem["truth_m"],
        "cm_p_independent": independent.mean_p,
        "cm_m_independent": independent.mean_m,
        "cm_p_joint": joint.mean_p,
        "cm_m_joint": joint.mean_m,
        "std_p_independent": independent.std_p,
        "std_m_independent": independent.std_m,
        "std_p_joint": joint.std_p,
        "std_m_joint": joint.std_m,
        "d_p": independent.std_p - joint.std_p,
        "d_m": independent.std_m - joint.std_m,
    })


def save_correlation_histogram_csv(path, samples):
    """Fifty-bin histogram of correlation samples on (-1, 1) with densities."""
    counts, edges = correlation_histogram(samples)
    return save_table_csv(
        path,
        [edges[:-1], edges[1:], counts, counts / (counts.sum() * np.diff(edges))],
        ["left", "right", "count", "density"],
    )


def write_manifest(out_dir, subcommand, cfg_dict, extras=None):
    payload = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": cfg_dict.get("seed"),
        "config": cfg_dict,
    }
    payload.update(extras or {})
    return write_json(Path(out_dir) / "manifest.json", payload)


def write_timings(out_dir, timings):
    """Wall-clock seconds per stage; kept out of the manifest so reruns with
    the same seed stay byte-identical everywhere else."""
    return write_json(Path(out_dir) / "timings.json", timings)


class StageTimer:
    def __init__(self):
        self.timings = {}
        self._t0 = time.perf_counter()

    def mark(self, name):
        t = time.perf_counter()
        self.timings[name] = round(t - self._t0, 3)
        self._t0 = t

    def total(self):
        self.timings["total"] = round(sum(self.timings.values()), 3)
        return self.timings


def write_plot_script(out_dir, body):
    """Drop a self-contained matplotlib script next to the data files."""
    path = Path(out_dir) / "plot.py"
    path.write_text(body)
    return path
