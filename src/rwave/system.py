"""First-order quasilinear systems sum_i A^i(x,u) u_i = b(x,u).

Holds the coefficient matrices symbolically, evaluates pointwise
residuals against supplied jets, and reduces inhomogeneous systems to
homogeneous ones in one extra independent variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprmat
from .expr import (
    Bin,
    Box,
    Call,
    Const,
    ONE,
    Var,
    VarSpace,
    is_zero,
    simplify,
)


class SystemError(Exception):
    pass


@dataclass(frozen=True)
class QuasilinearSystem:
    """m equations, q dependent variables, p independent variables."""

    space: VarSpace
    coeffs: tuple          # p matrices, each m x q, of Expr
    source: tuple          # m Exprs
    source_text: dict | None = None  # raw file dict for bit-exact round trips

    def __post_init__(self):
        p = self.space.p
        if len(self.coeffs) != p:
            raise ValueError(f"expected {p} coefficient matrices, got {len(self.coeffs)}")
        m = len(self.coeffs[0])
        q = self.space.q
        for A in self.coeffs:
            if len(A) != m or any(len(row) != q for row in A):
                raise ValueError("coefficient matrices must share the m x q shape")
        if len(self.source) != m:
            raise ValueError("source vector length must match the equation count")
        declared = set(self.space.all_names)
        for A in self.coeffs:
            for row in A:
                for e in row:
                    undeclared = e.variables() - declared
                    if undeclared:
                        raise ValueError(f"undeclared variables {sorted(undeclared)} in {e}")
        for e in self.source:
            undeclared = e.variables() - declared
            if undeclared:
                raise ValueError(f"undeclared variables {sorted(undeclared)} in {e}")

    @property
    def p(self):
        return self.space.p

    @property
    def q(self):
        return self.space.q

    @property
    def m(self):
        return len(self.coeffs[0])

    @property
    def properly_determined(self):
        return self.m == self.q

    def is_homogeneous(self) -> bool:
        """Whether every source component simplifies to 0."""
        return all(simplify(e) == Const(0) for e in self.source)

    def residual_at(self, x_point, u_values, jacobian):
        """Evaluate sum_i A^i u_i - b at one point: the one-row case of
        ``residual_batch``.

        ``jacobian[beta, i]`` holds du^beta/dx^i in the declared variable
        orders.  Raises EvalDomainError naming the offending entry when a
        coefficient cannot be evaluated.
        """
        env = dict(x_point)
        if isinstance(u_values, dict):
            env.update(u_values)
        else:
            env.update(zip(self.space.dependent, np.asarray(u_values, dtype=float)))
        J = np.asarray(jacobian, dtype=float)
        if J.shape != (self.q, self.p):
            raise ValueError(f"jacobian must be q x p = {(self.q, self.p)}, got {J.shape}")
        env = {k: np.reshape(v, 1) for k, v in env.items()}
        return self.residual_batch(env, J[None])[0]

    def residual_batch(self, env, jacobians):
        """Vectorized residuals; ``jacobians`` has shape (n, q, p) and the
        values of ``env`` shape (n,)."""
        J = np.asarray(jacobians, dtype=float)
        res = np.zeros((J.shape[0], self.m))
        for i, A in enumerate(self.coeffs):
            res += np.einsum("nmq,nq->nm", exprmat.eval_matrix(A, env),
                             J[:, :, i])
        return res - exprmat.eval_vector(self.source, env)

    def wave_matrix(self, lam):
        """sum_i lambda_i A^i as an expression matrix."""
        if len(lam) != self.p:
            raise ValueError("covector length must equal the independent count")
        return tuple(tuple(exprmat.sum_exprs(Bin("*", lam_i, A[r][c])
                                             for lam_i, A in zip(lam, self.coeffs))
                           for c in range(self.q))
                     for r in range(self.m))


@dataclass(frozen=True)
class SubstitutionRecord:
    new_var: str
    shifted_dependent: str
    row_permutation: tuple


@dataclass(frozen=True)
class HomogenizationResult:
    system: QuasilinearSystem
    m_matrix: tuple
    substitution: SubstitutionRecord
    all_sources_zero: bool = False

    def transport_jet(self, jacobian):
        """Jet of u~ = u - x_new e1 from a jet of u: append du~/dx_new = -e1."""
        J = np.asarray(jacobian, dtype=float)
        extra = np.zeros((J.shape[0], 1))
        extra[0, 0] = -1.0
        return np.hstack([J, extra])


def homogenizing_variable(space, new_var=None):
    """The independent variable ``homogenize`` adds to a system on
    ``space``: ``new_var`` (default "xh"), with the first numeric suffix that
    makes it a new name."""
    base = name = new_var or "xh"
    k = 1
    while name in space.all_names:
        name = f"{base}{k}"
        k += 1
    return name


def homogenize(sys: QuasilinearSystem, box: Box | None = None, rng=None,
               new_var: str | None = None) -> HomogenizationResult:
    """Rewrite an inhomogeneous system as a homogeneous one in p+1
    independent variables.

    Left-multiplies by the invertible matrix M with M b = e1, then shifts
    the first dependent variable by the new independent variable.  The new
    system carries the identity as its last coefficient matrix.  A system
    with b identically zero is returned unchanged, flagged, with M = Id.
    """
    if not sys.properly_determined:
        raise SystemError("homogenization requires a properly determined system")
    q = sys.q
    zero_box = box
    src = [simplify(e) for e in sys.source]

    def source_is_zero(e):
        e = simplify(e)
        if e == Const(0):
            return True
        if zero_box is None:
            return False
        return bool(is_zero(e, zero_box, rng=rng))

    nonzero = [i for i, e in enumerate(src) if not source_is_zero(e)]
    if not nonzero:
        return HomogenizationResult(
            system=sys, m_matrix=exprmat.identity(q),
            substitution=SubstitutionRecord("", "", tuple(range(q))),
            all_sources_zero=True)

    perm = tuple(range(q))
    if 0 not in nonzero:
        first = nonzero[0]
        perm = (first,) + tuple(i for i in range(q) if i != first)
    rows = lambda M: tuple(M[i] for i in perm)
    A_perm = [rows(A) for A in sys.coeffs]
    b_perm = [src[i] for i in perm]

    b1 = b_perm[0]
    M = [[Const(0)] * q for _ in range(q)]
    M[0][0] = simplify(Bin("/", ONE, b1))
    for j in range(1, q):
        M[j][0] = simplify(Call("neg", Bin("/", b_perm[j], b1)))
        M[j][j] = ONE
    M = tuple(tuple(row) for row in M)

    curly = [exprmat.mat_mul(M, A) for A in A_perm]

    name = homogenizing_variable(sys.space, new_var)
    shifted = sys.space.dependent[0]
    sub = {shifted: Bin("+", Var(shifted), Var(name))}
    tilde = [tuple(tuple(simplify(e.substitute(sub)) for e in row) for row in A)
             for A in curly]
    tilde.append(exprmat.identity(q))

    new_space = VarSpace(sys.space.independent + (name,), sys.space.dependent,
                         sys.space.parameters)
    new_sys = QuasilinearSystem(space=new_space, coeffs=tuple(tilde),
                                source=exprmat.zeros_vector(q))
    return HomogenizationResult(
        system=new_sys, m_matrix=M,
        substitution=SubstitutionRecord(name, shifted, perm))


def check_m_property(result: HomogenizationResult, sys: QuasilinearSystem,
                     box: Box, rng=None, trials=32, threshold=1e-12):
    """Verify M b = e1 entrywise on the box (sampled)."""
    perm = result.substitution.row_permutation
    b_perm = tuple(sys.source[i] for i in perm)
    mb = exprmat.mat_vec(result.m_matrix, b_perm)
    target = (ONE,) + tuple(Const(0) for _ in range(len(mb) - 1))
    checks = []
    for got, want in zip(mb, target):
        checks.append(is_zero(simplify(Bin("-", got, want)), box, trials=trials,
                              threshold=threshold, rng=rng))
    return checks
