"""Deterministic report and table writers.

Reports serialize with sorted keys and repr-based float formatting so
that identical requests with identical seeds produce byte-identical
files; wall-clock metadata lives in a separate sidecar file.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from .exprmat import distinct_rows


def _encode(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_encode(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def write_json(path, data):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_encode(data), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_metadata(path, extra):
    return write_json(path, {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                             **extra})


SOLUTION_SCHEMA_VERSION = 1


def solution_field_header(field):
    cols = [f"x:{n}" for n in field.x_names]
    cols += [f"tau:{n}" for n in field.tau_names]
    cols += [f"u:{n}" for n in field.space.dependent]
    cols += ["residual_norm", "det_monitor", "newton_iters", "converged",
             "catastrophe"]
    return cols


def _cells(values, fmt):
    """``fmt`` of each value, called once per bitwise-distinct value."""
    col = np.asarray(values, dtype=float)
    first, inverse = distinct_rows(col[:, None])
    return np.array([*map(fmt, col[first].tolist())], dtype=object)[inverse]


def write_solution_field(path, field, residual_norms=None):
    """Tabular export: one row per grid point, stable column order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = solution_field_header(field)
    res = residual_norms if residual_norms is not None \
        else np.full(field.n, np.nan)
    floats = np.column_stack([field.x, field.tau, field.u,
                              np.asarray(res, dtype=float), field.det_monitor])
    cells = [_cells(c, repr) for c in floats.T]
    cells += [_cells(field.iters, lambda v: str(int(v))),
              _cells(field.converged, lambda v: str(bool(v))),
              _cells(field.catastrophe, lambda v: str(bool(v)))]
    with open(path, "w") as fh:
        fh.write("# solution-field v%d\n" % SOLUTION_SCHEMA_VERSION)
        fh.write(",".join(cols) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
    return path


def condition_report_payload(report, domain, labels, seed_label):
    data = report.as_dict()
    data["seed"] = seed_label
    data["domain"] = {n: [lo, hi] for n, lo, hi in domain.ranges}
    data["elements"] = list(labels)
    return data
