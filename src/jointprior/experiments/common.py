"""Shared experiment plumbing: observation layouts, posterior summaries from
reduced chains, multi-chain runs, shared output tables and the run manifest."""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .. import __version__
from ..diagnostics import PosteriorSummary, correlation_histogram, ess
from ..io_utils import save_table_csv, write_json


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


def reduced_chain_field_summary(states, basis_p, basis_m, mean_p, mean_m,
                                batch=2000):
    """Posterior mean and pointwise variance of the reconstructed fields
    from a chain of reduced coordinates, accumulated in batches: each
    batch's mean and centred sum of squares, merged by the pairwise rule
    (Chan, Golub & LeVeque 1983), so a large field mean does not cancel."""
    states = np.asarray(states, dtype=float)
    kp = basis_p.k
    n1 = basis_p.n
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, states.shape[0], batch):
        block = states[start : start + batch]
        p = mean_p[:, None] + basis_p.expand(block[:, :kp].T)
        m = mean_m[:, None] + basis_m.expand(block[:, kp:].T)
        f = np.vstack([p, m])
        size, block_mean = block.shape[0], f.mean(axis=1)
        delta, total = block_mean - mean, count + size
        m2 = m2 + ((f - block_mean[:, None]) ** 2).sum(axis=1) + delta**2 * (count * size / total)
        mean = mean + delta * (size / total)
        count = total
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
