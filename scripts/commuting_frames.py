#!/usr/bin/env python3
"""Frame-rescaling demos: a symbolic pair, a pair whose bracket
coefficients depend on two variables, and a cyclic three-field frame that
exercises the numeric transport path.

Exits 1 when the two-variable pair's coefficients are not expressions or
its rescaled fields do not commute to 1e-6."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rwave.expr import Box, Const, parse
from rwave.frobenius import (
    commutation_residual,
    pair_bracket_coefficients,
    rescale_frame,
)


def main():
    names3 = ("x", "y", "z")
    box3 = Box.from_dict({n: (-0.8, 0.8) for n in names3})
    X1 = (Const(1), Const(0), Const(0))
    X2 = (Const(0), parse("exp(x)", names3), Const(0))
    rng = np.random.default_rng(0)
    res = rescale_frame([X1, X2], names3, box3, rng=rng)
    print("pair {d_x, e^x d_y}:")
    for i, f in enumerate(res.factors):
        print(f"  factor {i}: {f.expr}")
    worst = commutation_residual(res.scaled_fields(), box3, rng=rng)
    print(f"  commutation residual: {worst:.3e}")

    box2 = Box.from_dict({n: (-0.2, 0.2) for n in names3})
    Z1 = (parse("1+y^2", names3), Const(0), Const(0))
    Z2 = (Const(0), parse("1+x^2", names3), Const(0))
    pc = pair_bracket_coefficients(Z1, Z2, names3, box2, rng=3)
    res = rescale_frame([Z1, Z2], names3, box2, rng=4)
    pair_worst = commutation_residual(res.scaled_fields(), box2, rng=5)
    print("pair {(1+y^2) d_x, (1+x^2) d_y}:")
    print(f"  bracket coefficients: {pc.h_first.expr}, {pc.h_second.expr}")
    print(f"  commutation residual: {pair_worst:.3e}")
    status = 0
    if pc.h_first.expr is None or pc.h_second.expr is None:
        print("  a bracket coefficient is not an expression")
        status = 1
    if not pair_worst < 1e-6:
        print("  the rescaled pair does not commute to 1e-6")
        status = 1

    names4 = ("x", "y", "z", "w")
    box4 = Box.from_dict({n: (-0.7, 0.7) for n in names4})
    Y1 = (parse("exp(y)", names4), Const(0), Const(0), Const(0))
    Y2 = (Const(0), parse("exp(z)", names4), Const(0), Const(0))
    Y3 = (Const(0), Const(0), parse("exp(x)", names4), Const(0))
    res = rescale_frame([Y1, Y2, Y3], names4, box4, rng=1,
                        prefer_symbolic=False)
    worst = commutation_residual(res.scaled_fields(), box4, rng=2,
                                 n_samples=100)
    print("cyclic frame {e^y d_x, e^z d_y, e^x d_z} (numeric transports):")
    print(f"  stages: {', '.join(res.stages_run)}")
    print(f"  commutation residual at 100 samples: {worst:.3e}")
    return status


if __name__ == "__main__":
    sys.exit(main())
