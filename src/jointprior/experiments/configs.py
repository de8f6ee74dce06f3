"""Experiment configuration dataclasses and JSON loading.

Configs are flat key/value structures; a JSON config file may set any subset
of the fields.  Unknown keys and values of the wrong type are rejected before
any computation starts.
Defaults are desk-scale versions of the reference studies; paper-scale
variants ship as JSON files under scripts/paper_scale_configs/.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..inference import MwgConfig
from ..linalg import CONTRACTION_MARGIN


class ConfigError(ValueError):
    pass


def _check_types(cls, data):
    """Each value must have the type of its field's default: an int field
    takes an int, a float field an int or a float, and neither a bool or a
    string.  Tuple fields go through ``_number_tuple`` in ``validate``."""
    for f in fields(cls):
        if f.name not in data or isinstance(f.default, tuple):
            continue
        value, kind = data[f.name], type(f.default)
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")


def _number_tuple(cfg, name, length=None):
    """Store field ``name`` as a tuple (a scalar becomes a 1-tuple) after
    checking that each entry is a finite number, not a bool or a string, and
    that there are ``length`` entries when a length is given."""
    value = getattr(cfg, name)
    values = tuple(value) if isinstance(value, (list, tuple)) else (value,)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ConfigError(f"{name} entries must be finite numbers, got {v!r}")
    if length is not None and len(values) != length:
        raise ConfigError(f"{name} must hold {length} numbers, got {len(values)}")
    setattr(cfg, name, values)


def _check_correlations(name, values):
    """Each entry must pass Contraction's own rule, |c| < 1 - margin."""
    for c in values:
        if not (isinstance(c, (int, float)) and abs(c) < 1.0 - CONTRACTION_MARGIN):
            raise ConfigError(
                f"{name} entries must be finite with |c| < 1 - {CONTRACTION_MARGIN:g}, "
                f"got {c!r}"
            )


def mwg_config(cfg, seed=0):
    """Sampler settings from a study config's chain fields.  ``validate``
    builds one, so the sampler's own rules reject a config before any work."""
    try:
        return MwgConfig(total_samples=cfg.samples, burn_in=cfg.burn_in,
                         c_steps_per_s_step=cfg.c_steps,
                         block_steps=getattr(cfg, "block_steps", 0), seed=seed)
    except ValueError as exc:
        raise ConfigError(f"chain settings: {exc}") from exc


@dataclass
class SamplePriorConfig:
    seed: int = 0
    n_samples: int = 3
    # shared-lattice studies: elliptic-prior field vs squared-exponential field
    nx: int = 20
    ny: int = 10
    lx: float = 2.0
    ly: float = 1.0
    correlation: float = 0.999
    pde_a1: float = 4e-2
    pde_a2: float = 1.0
    pde_a3: float = 0.125
    kernel_length: float = 0.2
    nugget: float = 1e-8
    # field-to-boundary study: anisotropic field coupled to a 1-D boundary field
    nx_mixed: int = 40
    ny_mixed: int = 20
    mixed_pde_a1: float = 1.0
    mixed_pde_a2: float = 1.0
    mixed_pde_a3: float = 0.125
    mixed_theta_y: float = 0.025
    mixed_kernel_length: float = 0.1
    mixed_correlation: float = 0.999

    SCALABLE = {"nx": 4, "ny": 3, "nx_mixed": 6, "ny_mixed": 4}

    def validate(self):
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if min(self.nx, self.ny, self.nx_mixed, self.ny_mixed) < 2:
            raise ConfigError("lattice dimensions must be >= 2")
        _check_correlations("correlation", (self.correlation,))
        _check_correlations("mixed_correlation", (self.mixed_correlation,))


@dataclass
class FactorCompareConfig:
    seed: int = 0
    n_points: int = 100
    kernel_length: float = 0.1
    nugget: float = 1e-8
    correlation: float = 0.999
    split: float = 0.5
    n_samples: int = 2

    SCALABLE = {"n_points": 10}

    def validate(self):
        if self.n_points < 4:
            raise ConfigError("n_points must be >= 4")
        if not 0.0 < self.split < 1.0:
            raise ConfigError("split must lie in (0, 1)")
        _check_correlations("correlation", (self.correlation,))


@dataclass
class MonodConfig:
    seed: int = 0
    substrate: tuple = (28.0, 55.0, 83.0, 110.0, 138.0, 225.0, 375.0)
    prior_mean_p: float = 0.4
    prior_mean_m: float = 40.0
    prior_std_p: float = 0.1
    prior_std_m: float = 10.0
    truth_p: float = 0.7
    truth_m: float = 65.0
    scan_correlations: tuple = (-0.99, -0.85, 0.0, 0.85, 0.99)
    noise_levels: tuple = (0.1, 0.03)
    mcmc_noise: float = 0.03
    grid_n: int = 241
    p_range: tuple = (0.0, 1.2)
    m_range: tuple = (2.0, 122.0)
    samples: int = 30000
    burn_in: int = 5000
    c_steps: int = 1

    SCALABLE = {"grid_n": 41}

    def validate(self):
        mwg_config(self)
        if self.grid_n < 11:
            raise ConfigError("grid_n must be >= 11")
        for name in ("substrate", "scan_correlations", "noise_levels"):
            _number_tuple(self, name)
        _number_tuple(self, "p_range", 2)
        _number_tuple(self, "m_range", 2)
        _check_correlations("scan_correlations", self.scan_correlations)


@dataclass
class CokrigeConfig:
    seed: int = 0
    nx: int = 26
    ny: int = 13
    lx: float = 2.0
    ly: float = 1.0
    kernel_length: float = 0.3       # squared-exponential marginal for p
    nugget: float = 1e-8
    pde_a1: float = 1.5              # elliptic marginal for m
    pde_a2: float = 30.0
    pde_a3: float = 7.5
    c_true: float = -0.9
    fixed_correlations: tuple = (-0.9, 0.0, 0.9)
    p_obs_nx: int = 6                # grid of p observations in the right half
    p_obs_ny: int = 4
    m_obs_nx: int = 5                # grid of m observations in the top half
    m_obs_ny: int = 3
    noise_pct_p: float = 1.0         # percent of the observed range
    noise_pct_m: float = 1.0
    samples: int = 30000
    burn_in: int = 3000
    c_steps: int = 5
    n_chains: int = 1
    tracked_nodes: int = 6

    SCALABLE = {"nx": 4, "ny": 3, "p_obs_nx": 2, "p_obs_ny": 2, "m_obs_nx": 2,
                "m_obs_ny": 1}

    def validate(self):
        mwg_config(self)
        if min(self.nx, self.ny) < 2:
            raise ConfigError("lattice dimensions must be >= 2")
        if self.n_chains < 1:
            raise ConfigError("n_chains must be >= 1")
        _number_tuple(self, "fixed_correlations")
        _check_correlations("c_true", (self.c_true,))
        _check_correlations("fixed_correlations", self.fixed_correlations)


@dataclass
class DarcyConfig:
    seed: int = 0
    nx: int = 26
    ny: int = 13
    lx: float = 2.0
    ly: float = 1.0
    kernel_length: float = 0.3       # squared-exponential marginal for log-permeability
    nugget: float = 1e-8
    pde_a1: float = 1.5              # elliptic marginal for log-recharge
    pde_a2: float = 30.0
    pde_a3: float = 7.5
    c_true: tuple = (0.8, -0.9)      # per-subdomain correlations, split at split_x
    split_x: float = 1.0
    k_p: int = 20                    # truncation orders of the reduced bases
    k_m: int = 40
    u_obs_nx: int = 6                # head observations on a regular interior grid
    u_obs_ny: int = 4
    p_wells: int = 4                 # direct log-permeability observations along wells
    p_per_well: int = 5
    noise_pct_u: float = 5.0
    noise_pct_p: float = 2.0
    samples: int = 30000
    burn_in: int = 10000
    c_steps: int = 10                # centred correlation steps per iteration
    block_steps: int = 2             # one-block (c, s) moves per iteration
    n_chains: int = 1

    SCALABLE = {"nx": 4, "ny": 3, "k_p": 4, "k_m": 6, "u_obs_nx": 2, "u_obs_ny": 2,
                "p_wells": 1, "p_per_well": 2}

    def validate(self):
        mwg_config(self)
        if min(self.nx, self.ny) < 2:
            raise ConfigError("lattice dimensions must be >= 2")
        if self.k_p < 1 or self.k_m < 1:
            raise ConfigError("truncation orders must be >= 1")
        if self.n_chains < 1:
            raise ConfigError("n_chains must be >= 1")
        _number_tuple(self, "c_true", 2)
        _check_correlations("c_true", self.c_true)


@dataclass
class VerifyConfig:
    seed: int = 0

    SCALABLE = {}

    def validate(self):
        pass


def load_config(cls, path=None, overrides=None):
    """Build a config of type cls from an optional JSON file plus overrides.

    Unknown keys in the file are rejected; overrides (CLI flags) are applied
    after the file.
    """
    data = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    data.update(overrides or {})
    _check_types(cls, data)
    try:
        cfg = cls(**{k: v for k, v in data.items() if k in allowed})
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def apply_scale(cfg, factor):
    """Scale the resolution-like fields of a config by a positive factor."""
    if factor <= 0:
        raise ConfigError(f"scale factor must be positive, got {factor}")
    for name, minimum in type(cfg).SCALABLE.items():
        value = getattr(cfg, name)
        setattr(cfg, name, max(minimum, int(round(value * factor))))
    cfg.validate()
    return cfg


def config_dict(cfg):
    out = asdict(cfg)
    for key, value in out.items():
        if isinstance(value, tuple):
            out[key] = list(value)
    return out
