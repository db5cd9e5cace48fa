"""rwave: Riemann wave construction and verification for quasilinear
first-order hyperbolic systems with coefficients depending on both the
dependent and independent variables."""

from .expr import (
    Box,
    Const,
    DomainExhausted,
    EvalDomainError,
    Expr,
    ParseError,
    UnknownIdentifierError,
    Var,
    VarSpace,
    ZeroVerdict,
    is_zero,
    parse,
    simplify,
)
from .system import QuasilinearSystem, homogenize
from .geometry import (
    WaveElement,
    check_kwave_conditions,
    decompose_in_frame,
    find_potential,
    kernel_elements,
    lie_bracket,
)
from .frobenius import (
    compatibility_check,
    pair_bracket_coefficients,
    rescale_frame,
)
from .solver import (
    ImplicitSolveConfig,
    SolutionField,
    build_hodograph,
    double_wave_fixture,
    integrate_characteristic,
    solve_implicit,
)
from .verify import (
    constancy_along_kernel,
    recover_decomposition,
    residual_report,
)

__all__ = [
    "Box", "Const", "DomainExhausted", "EvalDomainError", "Expr",
    "ParseError", "UnknownIdentifierError", "Var", "VarSpace", "ZeroVerdict",
    "is_zero", "parse", "simplify",
    "QuasilinearSystem", "homogenize",
    "WaveElement", "check_kwave_conditions", "decompose_in_frame",
    "find_potential", "kernel_elements", "lie_bracket",
    "compatibility_check", "pair_bracket_coefficients", "rescale_frame",
    "ImplicitSolveConfig", "SolutionField", "build_hodograph",
    "double_wave_fixture", "integrate_characteristic", "solve_implicit",
    "constancy_along_kernel", "recover_decomposition",
    "residual_report",
]

__version__ = "0.1.0"
