"""Small helpers for matrices and vectors of symbolic expressions, their
evaluation, and the stacked least squares their sampled values feed."""

from __future__ import annotations

import numpy as np

from .expr import Bin, Call, ONE, ZERO, _lanes, simplify


def rows_dot(v, w):
    """v @ w, rounded alike whatever the number of rows: numpy hands a
    one-row product to another BLAS routine than a longer one, which rounds
    otherwise, so a single row is padded to two."""
    if len(v) == 1:
        return (np.concatenate([v, v]) @ w)[:1]
    return v @ w


def identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zeros_vector(n):
    return tuple(ZERO for _ in range(n))


def sum_exprs(terms):
    """simplify(0 + t1 + t2 + ...), the sum folded from the left."""
    acc = ZERO
    for t in terms:
        acc = Bin("+", acc, t)
    return simplify(acc)


def mat_mul(A, B):
    return tuple(tuple(sum_exprs(Bin("*", a, B[k][j]) for k, a in enumerate(row))
                       for j in range(len(B[0])))
                 for row in A)


def mat_vec(A, v):
    return tuple(sum_exprs(Bin("*", a, x) for a, x in zip(row, v)) for row in A)


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
    """Evaluate an expression matrix over the n lanes of an env (see
    ``expr._lanes``; n = 1 for an env of scalars): (n, m, q), constant
    entries included."""
    out = np.empty((_lanes(env), len(A), len(A[0])))
    for i, row in enumerate(A):
        for j, e in enumerate(row):
            out[:, i, j] = e.evaluate(env, strict=strict)
    return out


def eval_vector(v, env, strict=True):
    """Evaluate an expression vector over the n lanes of an env (see
    ``expr._lanes``; n = 1 for an env of scalars): (n, m), constant
    entries included."""
    out = np.empty((_lanes(env), len(v)))
    for j, e in enumerate(v):
        out[:, j] = e.evaluate(env, strict=strict)
    return out


def distinct_rows(a):
    """The bitwise-distinct rows of a 2-D float array: ``first``, the index
    of each one's first appearance, ascending, and ``inverse``, the row of
    ``a[first]`` each row of ``a`` has the bits of.  Rows compare as bit
    patterns, so -0.0 and 0.0 (or two NaN payloads) stay apart; they sort
    by a lexsort of their int64 columns, far cheaper than a sort of rows."""
    cols = np.ascontiguousarray(a, dtype=float).view(np.int64).T
    n = cols.shape[1]
    order = np.lexsort(cols[::-1]) if len(cols) else np.arange(n)
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for col in cols:
        ranked = col.take(order)
        new[1:] |= ranked[1:] != ranked[:-1]
    # the sort is stable, so a group's first member is its lowest index
    heads = order[new]
    by_first = np.argsort(heads)
    label = np.empty(len(heads), dtype=np.intp)
    label[by_first] = np.arange(len(heads))
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = label[np.cumsum(new) - 1]
    return heads[by_first], inverse


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
