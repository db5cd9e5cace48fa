"""Small helpers for matrices and vectors of symbolic expressions, their
evaluation, and the stacked least squares their sampled values feed."""

from __future__ import annotations

import numpy as np

from .expr import Bin, Call, ONE, ZERO, _lanes, simplify


def identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zeros_vector(n):
    return tuple(ZERO for _ in range(n))


def mat_mul(A, B):
    m, inner, n = len(A), len(B), len(B[0])
    out = []
    for i in range(m):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(inner):
                acc = Bin("+", acc, Bin("*", A[i][k], B[k][j]))
            row.append(simplify(acc))
        out.append(tuple(row))
    return tuple(out)


def mat_vec(A, v):
    out = []
    for row in A:
        acc = ZERO
        for a, x in zip(row, v):
            acc = Bin("+", acc, Bin("*", a, x))
        out.append(simplify(acc))
    return tuple(out)


def det(A):
    n = len(A)
    if n == 1:
        return simplify(A[0][0])
    if n == 2:
        return simplify(Bin("-", Bin("*", A[0][0], A[1][1]),
                            Bin("*", A[0][1], A[1][0])))
    acc = ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        term = Bin("*", A[0][j], det(minor))
        acc = Bin("+", acc, term) if j % 2 == 0 else Bin("-", acc, term)
    return simplify(acc)


def adjugate(A):
    """Transposed cofactor matrix; columns of adj(A) span ker(A) when
    rank(A) = n-1."""
    n = len(A)
    if n == 1:
        return ((ONE,),)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(A) if k != j]
            c = det(minor)
            out[i][j] = simplify(c if (i + j) % 2 == 0 else Call("neg", c))
    return tuple(tuple(row) for row in out)


def _lead_shape(env):
    """() for a point env of scalars; (n,) when env holds arrays over n
    lanes (see ``expr._lanes``)."""
    if any(isinstance(v, np.ndarray) and v.ndim for v in env.values()):
        return (_lanes(env),)
    return ()


def eval_matrix(A, env, strict=True):
    """Evaluate an expression matrix: (m, q) at a point env of scalars,
    (n, m, q) over the n lanes of an env holding arrays, constant entries
    included."""
    out = np.empty(_lead_shape(env) + (len(A), len(A[0])))
    for i, row in enumerate(A):
        for j, e in enumerate(row):
            out[..., i, j] = e.evaluate(env, strict=strict)
    return out


def eval_vector(v, env, strict=True):
    """Evaluate an expression vector: (m,) at a point env of scalars,
    (n, m) over the n lanes of an env holding arrays, constant entries
    included."""
    out = np.empty(_lead_shape(env) + (len(v),))
    for j, e in enumerate(v):
        out[..., j] = e.evaluate(env, strict=strict)
    return out


def lstsq_stack(A, b, rtol):
    """Least-squares x[i] minimising |A[i] x[i] - b[i]| for a stack A of
    shape (n, m, k), m >= k, and b (n, m), from one stacked SVD.

    Returns (x, None), or (None, i) for the first matrix i whose columns
    are dependent: its smallest singular value is below
    ``rtol * max(1, largest)``.  That guard runs before any division.
    """
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    dependent = s[:, -1] < rtol * np.maximum(1.0, s[:, 0])
    if dependent.any():
        return None, int(np.argmax(dependent))
    coef = np.einsum("nij,ni->nj", U, b) / s
    return np.einsum("nji,nj->ni", Vt, coef), None


def simplify_matrix(A):
    return tuple(tuple(simplify(e) for e in row) for row in A)
