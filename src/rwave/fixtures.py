"""Bundled systems and analysis presets used by the CLI and the test suite.

Each fixture is stored in the same dict schema as system definition files:
keys ``independent``, ``dependent``, ``parameters``, ``A`` (one matrix of
expression strings per independent variable) and ``b``.  Presets add
domain boxes, wave-covector ansatz lists, and solver settings whose
branch windows avoid the square-root and logarithm singularities.
"""

from __future__ import annotations

import copy

from .expr import VarSpace, parse
from .system import QuasilinearSystem

BROWNIAN = {
    "independent": ["t", "x"],
    "dependent": ["a", "c"],
    "parameters": ["beta"],
    "A": [
        [["0", "0"], ["0", "-1"]],
        [["0", "1+beta^2*x^2"], ["1", "0"]],
    ],
    "b": ["a", "0"],
}

TRAUTMAN = {
    "independent": ["t", "x"],
    "dependent": ["v0", "v1", "u"],
    "parameters": ["k"],
    "A": [
        [["1", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
        [["0", "-1", "0"], ["0", "0", "0"], ["0", "0", "1"]],
    ],
    "b": ["-k^2*u", "v0", "v1"],
}

EXAMPLE2 = {
    "independent": ["t", "x", "y"],
    "dependent": ["u1", "u2"],
    "parameters": [],
    "A": [
        [["1", "0"], ["0", "1"]],
        [["0", "x"], ["x*u2", "0"]],
        [["0", "y*u1"], ["y", "0"]],
    ],
    "b": ["0", "0"],
}

EXAMPLE3 = {
    "independent": ["t", "x", "y"],
    "dependent": ["u"],
    "parameters": ["m", "k"],
    "A": [
        [["1"]],
        [["x*u"]],
        [["y*u^2"]],
    ],
    "b": ["0"],
}

SYSTEMS = {
    "brownian": BROWNIAN,
    "trautman": TRAUTMAN,
    "example2": EXAMPLE2,
    "example3": EXAMPLE3,
}

# Analysis presets: sampling boxes stay on one branch of sqrt(u1) and
# ln|y| (u1 > 0, y > 0), wave covector ansatz, and the solver windows
# that select the Riemann-invariant branch carried by each fixture.
PRESETS = {
    "example2": {
        "domain": {"t": (1.0, 3.0), "x": (1.0, 3.0), "y": (0.2, 0.9),
                   "u1": (0.25, 4.0), "u2": (-2.0, 2.0)},
        "lambdas": [
            ["1", "0", "-(1/(y*sqrt(u1)))"],
            ["1", "0", "1/(y*sqrt(u1))"],
        ],
        "parameters": {},
        "solver": {
            "mu": [["3/4", "-(1/4)"], ["-(1/4)", "3/4"]],
            "tau_base": [3.0, 1.0],
            "u0": [1.0, 2.0],
            "axes": [[1.0, 1.0], [1.0, -1.0]],
            "axis_ranges": [[0.8, 3.4], [0.08, 1.8]],
            "grid_step": 0.02,
        },
        "grid": {"t": (1.0, 3.0, 20), "x": (1.0, 3.0, 20), "y": (0.2, 0.9, 20)},
    },
    "example3": {
        "domain": {"t": (0.1, 1.0), "x": (1.0, 3.0), "y": (1.0, 3.0),
                   "u": (-15.0, -0.5), "m": (1.0, 1.0), "k": (1.0, 1.0)},
        "lambdas": [["-(u*m+u^2*k)", "m/x", "k/y"]],
        "parameters": {"m": 1.0, "k": 1.0},
        "solver": {
            "gamma_scale": 1.0,
            "u0": [0.0],
            "s_range": [-25.0, 1.0],
            "s0": 0.0,
            "tau_window": [-24.0, -0.3],
            "root_select": "lowest",
            "initial_guess": [-2.0],
            "grid_step": 0.05,
        },
        "grid": {"t": (0.1, 1.0, 10), "x": (1.0, 3.0, 10), "y": (1.0, 3.0, 10)},
    },
    "brownian": {
        "domain": {"t": (0.0, 1.0), "x": (-1.0, 1.0), "a": (0.5, 2.0),
                   "c": (-1.0, 1.0), "beta": (0.5, 2.0), "y": (-0.4, 0.4)},
        "homogenize_var": "y",
    },
    "trautman": {
        "domain": {"t": (0.0, 1.0), "x": (-1.0, 1.0), "v0": (-1.0, 1.0),
                   "v1": (-1.0, 1.0), "u": (0.5, 2.0), "k": (0.5, 2.0),
                   "xhat": (-0.4, 0.4)},
        "homogenize_var": "xhat",
    },
}


def _strings(value, key, depth):
    """``value`` checked to be strings in lists nested ``depth`` deep."""
    if depth == 0 and not isinstance(value, str):
        raise ValueError(f"'{key}' holds {value!r}, not a string")
    if depth and not isinstance(value, (list, tuple)):
        raise ValueError(f"'{key}' holds {value!r}, not a list")
    return value if depth == 0 else [_strings(v, key, depth - 1) for v in value]


def system_from_dict(data: dict) -> QuasilinearSystem:
    if not isinstance(data, dict):
        raise ValueError("a system definition must be a JSON object")
    space = VarSpace(_strings(data["independent"], "independent", 1),
                     _strings(data["dependent"], "dependent", 1),
                     _strings(data.get("parameters", ()), "parameters", 1))
    coeffs = tuple(
        tuple(tuple(parse(e, space) for e in row) for row in A)
        for A in _strings(data["A"], "A", 3))
    source = tuple(parse(e, space) for e in _strings(data["b"], "b", 1))
    return QuasilinearSystem(space=space, coeffs=coeffs, source=source,
                             source_text=copy.deepcopy(data))


def system_to_dict(sys: QuasilinearSystem) -> dict:
    """File dict for a system; preserves original strings bit-exactly when
    the system was loaded from one."""
    if sys.source_text is not None:
        return copy.deepcopy(sys.source_text)
    return {
        "independent": list(sys.space.independent),
        "dependent": list(sys.space.dependent),
        "parameters": list(sys.space.parameters),
        "A": [[[str(e) for e in row] for row in A] for A in sys.coeffs],
        "b": [str(e) for e in sys.source],
    }


def load_fixture(name: str) -> QuasilinearSystem:
    try:
        return system_from_dict(SYSTEMS[name])
    except KeyError:
        raise KeyError(f"unknown fixture '{name}'; have {sorted(SYSTEMS)}")
