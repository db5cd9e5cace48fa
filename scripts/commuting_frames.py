#!/usr/bin/env python3
"""Frame-rescaling demos: a symbolic pair, and a cyclic three-field frame
that exercises the numeric transport path."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rwave.expr import Box, Const, parse
from rwave.frobenius import commutation_residual, rescale_frame


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
