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


def reference_rk4_lanes(f, y0, dt, n_steps):
    """The batched march before step counts were per lane: every lane
    takes the same n_steps steps."""
    y = np.array(y0, dtype=float)
    dt = np.asarray(dt, dtype=float)
    h = dt / n_steps
    s = np.zeros_like(dt)
    hcol = h[:, None] if y.ndim == 2 else h
    for _ in range(n_steps):
        k1 = f(s, y)
        k2 = f(s + 0.5 * h, y + 0.5 * hcol * k1)
        k3 = f(s + 0.5 * h, y + 0.5 * hcol * k2)
        k4 = f(s + h, y + hcol * k3)
        y = y + (hcol / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = s + h
    return y


DIRECTION = np.array([0.6, -0.8])


def sheared_rotation(s, y):
    # the row-by-row matmul stands for the section distance of the
    # transport flows: gemv rounds each row alike for two or more rows
    tilt = y @ DIRECTION
    return np.cos(s)[:, None] * np.stack([-y[:, 1], y[:, 0]], axis=1) \
        + np.sin(tilt)[:, None]


def scalar_decay(s, y):
    return -(1.0 + s) * y


def lanes(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (n, d)), rng.uniform(-1.5, 1.5, n)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n_steps", [1, 7, 60])
def test_rk4_lanes_equal_counts_match_reference_loop(n_steps):
    y0, dt = lanes(9, 2, n_steps)
    got = ode.rk4_lanes(sheared_rotation, y0, dt, np.full(9, n_steps))
    want = reference_rk4_lanes(sheared_rotation, y0, dt, n_steps)
    assert np.array_equal(bits(got), bits(want))
    got = ode.rk4_lanes(scalar_decay, y0[:, 0], dt, np.full(9, n_steps))
    want = reference_rk4_lanes(scalar_decay, y0[:, 0], dt, n_steps)
    assert np.array_equal(bits(got), bits(want))


def test_rk4_lanes_mixed_counts_are_lane_local():
    # blocks of two or more lanes sharing a count, interleaved in the batch
    counts = np.array([5, 12, 3, 5, 12, 3, 40, 12, 40, 5])
    y0, dt = lanes(len(counts), 2, 3)
    seen = []

    def recorded(s, y):
        seen.append((y, y.copy()))
        return sheared_rotation(s, y)

    got = ode.rk4_lanes(recorded, y0, dt, counts)
    # each step hands f only the lanes with steps left, four times a step,
    # and never writes to the rows it handed over
    want_rows = [int(np.sum(counts > k)) for k in range(counts.max())]
    assert [len(y) for y, _ in seen] == [m for m in want_rows for _ in range(4)]
    assert all(np.array_equal(y, kept) for y, kept in seen)
    for c in np.unique(counts):
        block = np.flatnonzero(counts == c)
        alone = ode.rk4_lanes(sheared_rotation, y0[block], dt[block],
                              counts[block])
        assert np.array_equal(bits(got[block]), bits(alone))
        want = reference_rk4_lanes(sheared_rotation, y0[block], dt[block], c)
        assert np.array_equal(bits(alone), bits(want))


def test_rk4_lanes_empty_batch_and_blow_up():
    out = ode.rk4_lanes(sheared_rotation, np.zeros((0, 2)), np.zeros(0),
                        np.zeros(0, dtype=int))
    assert out.shape == (0, 2)
    with pytest.raises(ode.BlowUp), np.errstate(all="ignore"):
        ode.rk4_lanes(lambda s, y: 1.0 / (1.0 - y), np.array([0.0, 0.5]),
                      np.array([2.0, 2.0]), np.array([4, 8]))
