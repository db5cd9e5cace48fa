"""Not-a-knot cubic interpolating splines on grids, in one and two variables.

The 1-D spline is the not-a-knot cubic interpolant (the third derivative is
continuous at the second and the second-to-last node); the 2-D spline is its
tensor product, the interpolant with interior knots x[2:-2] on each axis
(de Boor, *A Practical Guide to Splines*, ch. IV and XVII).  The fit makes
one n x n collocation solve for the node slopes per axis and stores
power-form coefficients about each cell's lower corner.  A call finds every point's
cell with one ``searchsorted`` per axis and applies Horner's rule to the
gathered coefficients, so the value and the first partials come from one
interval search; the 2-D coefficients are lane-major, so every Horner step
runs over whole lanes.  Every operation on the points is elementwise: a
point's result does not depend on which other points share the call.

Outside the grid the 1-D spline extrapolates with its end cubic, and the
2-D spline clamps each coordinate to its range (infinities too).  NaN in
gives NaN out.
"""

from __future__ import annotations

import numpy as np


def _checked(y, *grids):
    """The grids and samples as float arrays, once they describe a spline:
    each grid finite, strictly increasing and of at least 4 points, and y
    finite, with one axis per grid plus one for the components."""
    grids = [np.asarray(x, dtype=float) for x in grids]
    y = np.asarray(y, dtype=float)
    for x in grids:
        if x.ndim != 1 or len(x) < 4:
            raise ValueError("a cubic spline needs at least 4 points per axis")
        if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
            raise ValueError("spline grid must be finite and strictly increasing")
    if y.shape[:-1] != tuple(len(x) for x in grids):
        raise ValueError("spline samples must have one row per grid point")
    if not np.all(np.isfinite(y)):
        raise ValueError("spline samples must be finite")
    return (*grids, y)


def _slopes(x, y):
    """Node slopes of the not-a-knot cubic spline through (x, y[:, j]) for
    each column j of y: one n x n tridiagonal collocation solve, with the
    equations of scipy's CubicSpline."""
    n = len(x)
    dx = np.diff(x)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    A = np.zeros((n, n))
    i = np.arange(1, n - 1)
    A[i, i - 1] = dx[1:]
    A[i, i] = 2 * (dx[:-1] + dx[1:])
    A[i, i + 1] = dx[:-1]
    A[0, :2] = dx[1], d0
    A[-1, -2:] = d1, dx[-2]

    def rhs(v):
        slope = np.diff(v, axis=0) / dx[:, None]
        b = np.empty_like(v)
        b[1:-1] = 3 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
        b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
        b[-1] = (dx[-1] ** 2 * slope[-2]
                 + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        return b

    # LAPACK's triangular solves are slow with many right-hand sides, so a
    # y wider than it is long goes through the slope operator, an n x n solve
    if y.shape[1] > n:
        return np.linalg.solve(A, rhs(np.eye(n))) @ y
    return np.linalg.solve(A, rhs(y))


def _cell_coefficients(x, y, out=None):
    """Power-form coefficients of the spline through y along its first
    axis, (n-1, 4) + y.shape[1:], in ``out`` (any strides) if given: [i, a]
    multiplies (s - x[i])**a on cell i (scipy's cubic Hermite form)."""
    v = y.reshape(len(x), -1)       # 2-D for the slope solve
    v, m = v.reshape(y.shape), _slopes(x, v).reshape(y.shape)
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    # in place where it keeps the rounding: a 2-D fit's time is memory traffic
    c = np.empty((len(x) - 1, 4) + y.shape[1:]) if out is None else out
    c[:, 0], c[:, 1] = v[:-1], m[:-1]
    slope = np.subtract(v[1:], v[:-1])
    slope /= h
    t = np.add(m[:-1], m[1:])
    t -= 2 * slope
    t /= h
    np.subtract(slope, m[:-1], out=c[:, 2])
    c[:, 2] /= h
    c[:, 2] -= t
    np.divide(t, h, out=c[:, 3])
    return c


def _cells(x, s):
    """Cell index of each s (the end cells take everything beyond them) and
    the offset from the cell's lower node."""
    i = np.searchsorted(x[1:-1], s, side="right")
    return i, s - x.take(i)


class Spline1D:
    """Cubic spline through (x, y[:, j]) for each column j of y, (n, q)."""

    def __init__(self, x, y):
        self.x, y = _checked(y, x)
        self.c = _cell_coefficients(self.x, y)      # (n-1, 4, q)

    def __call__(self, s, grad=False):
        """Values (m, q) at the points s (m,); with ``grad``, also d/ds."""
        i, t = _cells(self.x, np.asarray(s, dtype=float))
        c = self.c.take(i, axis=0)
        t = t[:, None]
        value = ((c[:, 3] * t + c[:, 2]) * t + c[:, 1]) * t + c[:, 0]
        if not grad:
            return value
        return value, (3 * c[:, 3] * t + 2 * c[:, 2]) * t + c[:, 1]


class Spline2D:
    """Tensor-product cubic spline through (x1[i], x2[j], z[i, j, :]) for
    z (n1, n2, q); c[a, b, :, i*(n2-1)+j] has (s1-x1[i])**a (s2-x2[j])**b."""

    def __init__(self, x1, x2, z):
        self.x1, self.x2, z = _checked(z, x1, x2)
        # along x2 at every x1 node, then along x1 into (a, b, q, i, j)
        c2 = _cell_coefficients(self.x2, np.swapaxes(z, 0, 1))  # (j, b, i, q)
        c = np.empty((4, 4, z.shape[2], len(self.x1) - 1, len(self.x2) - 1))
        _cell_coefficients(self.x1, c2.transpose(2, 1, 3, 0),
                           out=c.transpose(3, 0, 1, 2, 4))
        self.c = c.reshape(4, 4, z.shape[2], -1)

    def __call__(self, s1, s2, grad=False):
        """Values (m, q) at the points (s1, s2); with ``grad``, also the
        partials d/ds1 and d/ds2."""
        i, t = _cells(self.x1, np.clip(s1, self.x1[0], self.x1[-1]))
        j, w = _cells(self.x2, np.clip(s2, self.x2[0], self.x2[-1]))
        c = self.c.take(i * (len(self.x2) - 1) + j, axis=3)   # (4, 4, q, m)
        # the cubic in s2 of each power of s1, then the cubic in s1
        r = ((c[:, 3] * w + c[:, 2]) * w + c[:, 1]) * w + c[:, 0]
        value = ((r[3] * t + r[2]) * t + r[1]) * t + r[0]
        if not grad:
            return value.T
        d1 = (3 * r[3] * t + 2 * r[2]) * t + r[1]
        rw = (3 * c[:, 3] * w + 2 * c[:, 2]) * w + c[:, 1]
        d2 = ((rw[3] * t + rw[2]) * t + rw[1]) * t + rw[0]
        return value.T, d1.T, d2.T
