"""CSV / JSON output helpers shared by the experiment drivers.

All writers are deterministic: fixed float formatting, sorted JSON keys, no
timestamps, so reruns with the same seed produce byte-identical files.  JSON
output is strict (RFC 8259): a non-finite float is written as null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"


def _finite_or_null(x):
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return x


def write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return path


def save_matrix_csv(path, matrix, comment=""):
    """Row-major dense matrix with a dimension header line."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = f"rows={matrix.shape[0]} cols={matrix.shape[1]}"
    if comment:
        header += f" {comment}"
    np.savetxt(path, matrix, fmt=FLOAT_FMT, delimiter=",", header=header)
    return path


def save_table_csv(path, columns, header):
    """Named columns of equal length, comma separated with one header row."""
    arrays = [np.asarray(c, dtype=float) for c in columns]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    table = np.column_stack(arrays) if arrays else np.empty((0, 0))
    np.savetxt(path, table, fmt=FLOAT_FMT, delimiter=",", header=",".join(header),
               comments="")
    return path


def save_field_csv(path, mesh, fields: dict):
    """Nodal fields keyed by node index with coordinates."""
    names = list(fields)
    cols = [np.arange(mesh.n_nodes), mesh.nodes[:, 0], mesh.nodes[:, 1]]
    cols += [np.asarray(fields[name], dtype=float) for name in names]
    return save_table_csv(path, cols, ["node", "x", "y"] + names)


def save_mesh_csv(out_dir, mesh):
    """Node and triangle tables for a mesh."""
    out_dir = Path(out_dir)
    nodes = save_table_csv(
        out_dir / "mesh_nodes.csv",
        [np.arange(mesh.n_nodes), mesh.nodes[:, 0], mesh.nodes[:, 1]],
        ["node", "x", "y"],
    )
    triangles = save_table_csv(
        out_dir / "mesh_triangles.csv",
        [np.arange(mesh.n_triangles)] + [mesh.triangles[:, i] for i in range(3)],
        ["triangle", "v0", "v1", "v2"],
    )
    return nodes, triangles


def save_kl_basis_csv(path, basis):
    """Truncated basis: one row per node, one mode per column, with the
    scales and captured fraction recorded in the header comment."""
    scales = " ".join(FLOAT_FMT % s for s in basis.scales)
    return save_matrix_csv(
        path, basis.modes,
        comment=f"k={basis.k} captured_fraction={basis.captured_fraction!r} scales={scales}",
    )


def load_matrix_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)
