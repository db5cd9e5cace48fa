"""Fixed-step RK4 with halving-based error control, batched over lanes.

The integrators accept right-hand sides f(t, y) where y has shape (d,)
for one trajectory (a characteristic curve, the first sweep of a sheet)
or (n, d) for n lanes, and return arrays of the same shape.
"""

from __future__ import annotations

import numpy as np

_MIN_STEP = 1e-12  # |h| below which rk4 gives up with StiffnessAbort


class BlowUp(Exception):
    """A batched flow became non-finite."""


class StiffnessAbort(Exception):
    """Step size underflowed while controlling the local error."""


def _rk4_step(f, t, y, h, k1=None):
    if k1 is None:
        k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4(f, y0, t0, t1, max_step, tol=1e-10):
    """Integrate from t0 to t1 (either direction).

    Each step is checked by comparing one full step against two half
    steps; the step halves until the discrepancy is below ``tol`` and the
    doubly-halved result (local extrapolation) is kept.

    Cost in right-hand-side evaluations: f(t, y) once per accepted step,
    shared by the full and the first half step of every attempt, plus 10
    per attempt; a retry reuses the rejected first half step as its full
    step, so each rejection saves 3 of those 10.
    """
    y = np.array(y0, dtype=float)
    t = float(t0)
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    if span == 0.0:
        return y
    h = min(max_step, span) * direction
    while (t1 - t) * direction > 1e-14 * max(1.0, span):
        if abs(h) > abs(t1 - t):
            h = t1 - t
        with np.errstate(all="ignore"):
            k1 = f(t, y)
            full = _rk4_step(f, t, y, h, k1)
        while True:
            with np.errstate(all="ignore"):
                first = _rk4_step(f, t, y, 0.5 * h, k1)
                half = _rk4_step(f, t + 0.5 * h, first, 0.5 * h)
            if np.all(np.isfinite(half)) and np.all(np.isfinite(full)):
                err = np.max(np.abs(full - half))
                scale = 1.0 + np.max(np.abs(half))
                if err <= tol * scale:
                    break
            else:
                err, scale = np.inf, 1.0  # stage left the domain; shrink
            h *= 0.5
            if abs(h) < _MIN_STEP:
                raise StiffnessAbort(f"step underflow at t={t}")
            full = first  # a full step of the halved h, bit for bit
        y = half + (half - full) / 15.0  # one Richardson extrapolation
        t += h
        if err < 0.25 * tol * scale and abs(h) < max_step:
            h = direction * min(abs(h) * 2.0, max_step)
    return y


def rk4_dense(f, y0, t0, ts, max_step, tol=1e-10):
    """Integrate through the sorted output times ``ts`` (monotone away
    from t0); returns an array of states of shape (len(ts),) + y0.shape."""
    out = np.empty((len(ts),) + np.shape(y0))
    y = np.array(y0, dtype=float)
    t = float(t0)
    for i, tnext in enumerate(ts):
        y = rk4(f, y, t, float(tnext), max_step, tol=tol)
        t = float(tnext)
        out[i] = y
    return out


def rk4_lanes(f, y0, dt, n_steps):
    """March lane i ``n_steps[i]`` RK4 steps of size dt[i] / n_steps[i].

    ``f(s, y)`` receives the per-lane pseudo-time s of shape (m,) and the
    states of the m lanes that still have steps left; used for batched
    flows whose lanes integrate over different spans.  Each step advances
    only those lanes, so a lane's arithmetic depends on its own span and
    count alone, never on which other lanes share the march, provided
    ``f`` computes every row of its result on its own.
    """
    y0 = np.asarray(y0, dtype=float)
    dt = np.asarray(dt, dtype=float)
    n_steps = np.asarray(n_steps)
    # lanes by descending count, so that those with steps left are a prefix
    order = np.argsort(-n_steps, kind="stable")
    counts = n_steps[order]
    y = y0[order]
    h = dt[order] / counts
    s = np.zeros_like(h)
    hcol = h[:, None] if y.ndim == 2 else h
    for k in range(int(counts.max(initial=0))):
        m = np.count_nonzero(counts > k)
        ym, sm, hm, hc = y[:m], s[:m], h[:m], hcol[:m]
        k1 = f(sm, ym)
        k2 = f(sm + 0.5 * hm, ym + 0.5 * hc * k1)
        k3 = f(sm + 0.5 * hm, ym + 0.5 * hc * k2)
        k4 = f(sm + hm, ym + hc * k3)
        # new arrays, not in-place updates: f may keep the rows it was given
        y = np.concatenate([ym + (hc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                            y[m:]])
        s = np.concatenate([sm + hm, s[m:]])
    if not np.all(np.isfinite(y)):
        raise BlowUp("non-finite state in batched flow")
    out = np.empty_like(y)
    out[order] = y
    return out
