#!/usr/bin/env python3
"""Sweep the scalar hydrodynamic fixture across its breakdown locus.

At x = y = exp(-3/4) the square-root argument of the closed-form solution
crosses zero near t = 2 - sqrt(3); the scan shows the determinant monitor
shrinking toward the locus and the solve failing beyond it.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rwave.expr import Const, parse
from rwave.fixtures import load_fixture
from rwave.solver import ImplicitSolveConfig, integrate_characteristic, solve_implicit


def main():
    sys3 = load_fixture("example3")
    surf = integrate_characteristic((Const(1),), [0.0], (-25.0, 1.0),
                                    step=0.05, space=sys3.space, s0=0.0)
    pot = parse("-(t*(u*m+u^2*k)) + m*ln(|x|) + k*ln(|y|)", sys3.space)
    xv = math.exp(-0.75)
    ts = np.linspace(0.05, 0.6, 56)
    grid = {"t": ts, "x": np.full_like(ts, xv), "y": np.full_like(ts, xv)}
    cfg = ImplicitSolveConfig(initial_guess=np.array([-2.0]),
                              tau_window=(-24.0, -0.01), root_select="lowest")
    field = solve_implicit(surf, [pot], grid, cfg,
                           params={"m": 1.0, "k": 1.0}, space=sys3.space)
    t_crit = 2.0 - math.sqrt(3.0)
    print(f"breakdown of the closed form at t = {t_crit:.6f}")
    print(f"{'t':>8} {'converged':>10} {'|det|':>12} {'u':>12}")
    for i, t in enumerate(ts):
        det = abs(field.det_monitor[i]) if field.converged[i] else float("nan")
        uval = field.u[i, 0] if field.converged[i] else float("nan")
        print(f"{t:8.4f} {str(bool(field.converged[i])):>10} {det:12.4e} "
              f"{uval:12.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
