import numpy as np
import pytest

from rwave import ode


def reference_rk4(f, y0, t0, t1, max_step, tol=1e-10, min_step=1e-12):
    """The step-doubling loop before stages were shared: every attempt
    evaluates one full and two half steps from scratch.  Returns the end
    state with the accepted steps and the attempts made."""

    def step(t, y, h):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    y = np.array(y0, dtype=float)
    t = float(t0)
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    accepted = attempts = 0
    h = min(max_step, span) * direction
    while (t1 - t) * direction > 1e-14 * max(1.0, span):
        if abs(h) > abs(t1 - t):
            h = t1 - t
        while True:
            attempts += 1
            with np.errstate(all="ignore"):
                full = step(t, y, h)
                half = step(t, y, 0.5 * h)
                half = step(t + 0.5 * h, half, 0.5 * h)
            if np.all(np.isfinite(half)) and np.all(np.isfinite(full)):
                err = np.max(np.abs(full - half))
                scale = 1.0 + np.max(np.abs(half))
                if err <= tol * scale:
                    break
            else:
                err, scale = np.inf, 1.0
            h *= 0.5
            assert abs(h) >= min_step
        accepted += 1
        y = half + (half - full) / 15.0
        t += h
        if err < 0.25 * tol * scale and abs(h) < max_step:
            h = direction * min(abs(h) * 2.0, max_step)
    return y, accepted, attempts


def decay(t, y):
    return -50.0 * y


def rotation(t, y):
    return np.cos(t) * np.stack([-y[:, 1], y[:, 0]], axis=1)


def sqrt_drain(t, y):
    return -3.0 * np.sqrt(y)   # a large step drives y negative: NaN stages


PROBLEMS = {
    # f, y0, t0, t1, max_step, tol
    "stiff decay, lanes": (decay, [[1.0], [2.0], [-0.5]], 0.0, 1.0, 1.0, 1e-12),
    "backward rotation": (rotation, [[1.0, 0.0], [0.3, -2.0]], 3.0, 0.0, 2.0,
                          1e-12),
    "non-finite stages": (sqrt_drain, [[1.0]], 0.0, 0.6, 1.0, 1e-10),
}


@pytest.mark.parametrize("name", PROBLEMS)
def test_rk4_shares_stages_bitwise(name):
    f, y0, t0, t1, max_step, tol = PROBLEMS[name]
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        return f(t, y)

    got = ode.rk4(counted, y0, t0, t1, max_step, tol=tol)
    want, accepted, attempts = reference_rk4(f, y0, t0, t1, max_step, tol=tol)
    rejected = attempts - accepted
    assert rejected > 0
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # f(t, y) once per accepted step, 10 per attempt, 3 fewer per retry
    assert calls == accepted + 10 * attempts - 3 * rejected
