import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwave import ode


def rounding(row):
    # the error of a sum of coefficients rounded to doubles
    return 4 * np.finfo(float).eps * math.fsum(map(abs, row.values()))


def test_tableau_is_consistent():
    # row sums are the nodes c, the weights b (row 12) sum to 1, and the
    # two error estimates are differences of weights that each sum to 1
    for s in range(1, 16):
        assert abs(math.fsum(ode._A[s].values()) - ode._C[s]) \
            <= rounding(ode._A[s])
    assert ode._C[12] == 1.0
    for row in (ode._E5, ode._E3):
        assert abs(math.fsum(row.values())) <= rounding(row)
    # explicit: stage s reads only the stages before it
    assert all(max(row, default=-1) < s for s, row in enumerate(ode._A))


def growth(t, y):
    return y


def rotation(t, y):
    # y' = cos(t) J y turns y by sin(t) - sin(t0)
    return np.cos(t)[:, None] * np.stack([-y[:, 1], y[:, 0]], axis=1)


def growth_exact(y0, t0, ts):
    return np.exp(ts - t0).reshape((-1,) + (1,) * np.ndim(y0)) * y0


def rotation_exact(y0, t0, ts):
    th = (np.sin(ts) - np.sin(t0)).reshape((-1,) + (1,) * (np.ndim(y0) - 1))
    y0 = np.asarray(y0)
    return np.stack([np.cos(th) * y0[..., 0] - np.sin(th) * y0[..., 1],
                     np.sin(th) * y0[..., 0] + np.cos(th) * y0[..., 1]],
                    axis=-1)


@pytest.mark.parametrize("f, exact", [(growth, growth_exact),
                                      (rotation, rotation_exact)])
@pytest.mark.parametrize("ts", [np.linspace(0.3, 1.3, 41),
                                np.linspace(0.3, -1.2, 23)])
@pytest.mark.parametrize("y0", [[[0.4, -0.7]],
                                [[0.4, -0.7], [1.0, 0.0], [-0.2, 0.5]]])
def test_flow_matches_closed_forms_at_dense_outputs(f, exact, ts, y0):
    y0 = np.asarray(y0)
    # at tol 1e-12 the interpolant strays by up to 2e-12 on growth
    got = ode.flow(f, y0, 0.3, ts, tol=1e-13, first_step=0.05)
    assert got.shape == (len(ts),) + y0.shape
    # an output at t0 is the anchor itself
    assert np.array_equal(got[0], y0)
    assert np.max(np.abs(got - exact(y0, 0.3, ts))) < 1e-12


def damped_turn(s, y):
    # a per-lane rate y[:, 2] makes lanes reject and accept steps apart
    rate = y[:, 2]
    return np.stack([-rate * y[:, 0] + np.cos(s) * y[:, 1],
                     -np.sin(s) * y[:, 0], 0.0 * rate], axis=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=7), st.booleans())
def test_flow_lane_subsets_match_full_call_bitwise(seed, n, backward):
    rng = np.random.default_rng(seed)
    sign = -1.0 if backward else 1.0      # damped in the direction of travel
    y0 = np.concatenate([rng.uniform(-1.0, 1.0, (n, 2)),
                         sign * rng.uniform(0.0, 80.0, (n, 1))], axis=1)
    first = rng.uniform(0.01, 0.5, n)
    ts = sign * np.sort(rng.uniform(0.0, 2.0, 5))
    full = ode.flow(damped_turn, y0, 0.0, ts, tol=1e-10, first_step=first)
    rows = np.flatnonzero(rng.random(n) < 0.5)
    if rows.size == 0:
        rows = np.array([int(rng.integers(n))])
    part = ode.flow(damped_turn, y0[rows], 0.0, ts, tol=1e-10,
                    first_step=first[rows])
    assert np.array_equal(part.view(np.uint64), full[:, rows].view(np.uint64))


@pytest.mark.parametrize("y0", [[[0.0]], [[0.0], [1.0]]])
def test_flow_into_a_nan_region_aborts(y0):
    def root(t, y):
        # NaN beyond t = 0.5
        return np.sqrt(0.5 - np.reshape(t, (-1, 1))) + 0.0 * y

    with pytest.raises(ode.StiffnessAbort, match="^step underflow at t="):
        ode.flow(root, np.asarray(y0), 0.0, [0.2, 1.0], tol=1e-12,
                 first_step=0.1)


@pytest.mark.parametrize("first_step", [0.0, -0.1, np.nan, [0.1, 0.0]])
def test_flow_rejects_a_first_step_that_is_not_positive(first_step):
    with pytest.raises(ValueError, match="first_step must be positive"):
        ode.flow(growth, np.ones((2, 1)), 0.0, [1.0], first_step=first_step)


def test_flow_recovers_from_non_finite_stages():
    # a long first step drives y negative: NaN stages, then smaller steps
    got = ode.flow(lambda t, y: -3.0 * np.sqrt(y), np.array([[1.0]]), 0.0,
                   [0.3, 0.6], tol=1e-12, first_step=1.0)
    want = (1.0 - 1.5 * np.array([0.3, 0.6])) ** 2
    assert np.max(np.abs(got[:, 0, 0] - want)) < 1e-12


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
