"""Small helpers for matrices and vectors of symbolic expressions."""

from __future__ import annotations

import numpy as np

from .expr import Bin, Call, ONE, ZERO, simplify


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


def vec_add(a, b):
    return tuple(simplify(Bin("+", x, y)) for x, y in zip(a, b))


def vec_scale(c, v):
    return tuple(simplify(Bin("*", c, x)) for x in v)


def lin_comb(coeffs, vectors):
    acc = zeros_vector(len(vectors[0]))
    for c, v in zip(coeffs, vectors):
        acc = vec_add(acc, vec_scale(c, v))
    return acc


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


def eval_matrix(A, env, strict=True):
    """Evaluate an expression matrix at an environment.

    Scalar env values give an (m, n) array; array values of shape (k,)
    give (k, m, n).
    """
    rows = [[np.asarray(e.evaluate(env, strict=strict), dtype=float) for e in row]
            for row in A]
    k = max((x.shape[0] for row in rows for x in row if x.shape), default=0)
    if k == 0:
        return np.array([[float(x) for x in row] for row in rows])
    out = np.empty((k, len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[:, i, j] = x
    return out


def eval_vector(v, env, strict=True):
    vals = [np.asarray(e.evaluate(env, strict=strict), dtype=float) for e in v]
    k = max((x.shape[0] for x in vals if x.shape), default=0)
    if k == 0:
        return np.array([float(x) for x in vals])
    out = np.empty((k, len(vals)))
    for j, x in enumerate(vals):
        out[:, j] = x
    return out


def simplify_matrix(A):
    return tuple(tuple(simplify(e) for e in row) for row in A)
