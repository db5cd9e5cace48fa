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


def write_metadata(path, extra=None):
    data = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if extra:
        data.update(extra)
    return write_json(path, data)


SOLUTION_SCHEMA_VERSION = 1


def solution_field_header(field):
    cols = [f"x:{n}" for n in field.x_names]
    cols += [f"tau:{n}" for n in field.tau_names]
    cols += [f"u:{n}" for n in field.space.dependent]
    cols += ["residual_norm", "det_monitor", "newton_iters", "converged",
             "catastrophe"]
    return cols


def write_solution_field(path, field, residual_norms=None):
    """Tabular export: one row per grid point, stable column order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = solution_field_header(field)
    res = residual_norms if residual_norms is not None \
        else np.full(field.n, np.nan)
    floats = np.column_stack([field.x, field.tau, field.u,
                              np.asarray(res, dtype=float), field.det_monitor])
    flags = zip(field.iters.tolist(), field.converged.tolist(),
                field.catastrophe.tolist())
    with open(path, "w") as fh:
        fh.write("# solution-field v%d\n" % SOLUTION_SCHEMA_VERSION)
        fh.write(",".join(cols) + "\n")
        fh.writelines(",".join([*map(repr, row), str(int(it)), str(bool(cv)),
                                str(bool(cat))]) + "\n"
                      for row, (it, cv, cat) in zip(floats.tolist(), flags))
    return path


def read_solution_field_table(path):
    rows = []
    with open(path) as fh:
        version = fh.readline()
        header = fh.readline().strip().split(",")
        for line in fh:
            rows.append(line.strip().split(","))
    return header, rows


def condition_report_payload(report, domain, labels, seed_label=None):
    data = report.as_dict()
    if seed_label is not None:
        data["seed"] = seed_label
    data["domain"] = {n: [lo, hi] for n, lo, hi in domain.ranges}
    data["elements"] = list(labels)
    return data
