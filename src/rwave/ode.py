"""Integrators batched over lanes: an embedded Runge-Kutta pair with
per-lane step control and dense output, and a fixed-step RK4 march.

The right-hand sides f(t, y) take the per-lane times t of shape (n,) and
the states y of shape (n, q) of n lanes, one lane for a single trajectory
(a characteristic curve, the first sweep of a sheet), and 2n lanes when a
flow integrates down and up from its anchor in one march, and return an
array of the same shape as y.
"""

from __future__ import annotations

import numpy as np

_MIN_STEP = 1e-12  # |h| below which flow gives up with StiffnessAbort
_TOL = 1e-12       # absolute and relative tolerance of flow's error control


class BlowUp(Exception):
    """A batched flow became non-finite."""


class StiffnessAbort(Exception):
    """Step size underflowed while controlling the local error."""


# Dormand-Prince 8(5,3): the 12-stage 8th-order method with its 5th- and
# 3rd-order error estimates and the three extra stages of its 7th-order
# dense output.  P. J. Prince and J. R. Dormand, J. Comput. Appl. Math. 7
# (1981); E. Hairer, S. P. Norsett and G. Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., sections II.4-II.6.  The coefficients
# are those of Hairer's DOP853 code rounded to doubles (the same doubles as
# scipy's integrate/_ivp/dop853_coefficients.py).
# Row s of _A holds the nonzero a_sj; row 12 is the weights b of the 8th-
# order solution, so stage 12 is f at the step's end, the next step's first
# stage.  Rows 13-15 are the extra stages of the dense output.

_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778)
_A = (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456,
     13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
)
_E5 = {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
       7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
       10: 0.08192320648511571, 11: -0.022355307863886294}
_E3 = {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
       7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
       10: 0.20136540080403034, 11: 0.02265179219836082}
_D = (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
)


_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _combine(coeffs, K):
    """sum_j c_j K[j] over the nonzero c_j, term by term in a fixed order,
    so that every element is rounded alike whatever the number of lanes."""
    terms = iter(coeffs.items())
    j, c = next(terms)
    acc = c * K[j]
    for j, c in terms:
        acc += c * K[j]
    return acc


def flow(f, y0, t0, ts, first_step):
    """States at the output times ``ts`` of y' = f(t, y) with y(t0) = y0
    of shape (n, q); shape (len(ts), n, q), in the order of ``ts``, and
    the anchor itself at outputs at t0.

    Each lane keeps its own direction, end time, t, step size and
    accept/reject, and f receives every lane at every stage with t of
    shape (n,); a lane that has reached its last output time takes steps
    of size 0.  When ``ts`` lies on both sides of t0, one march
    integrates down and up: f receives the n lanes going down followed by
    the same n going up.  So, provided f computes every row of its result
    on its own, a lane's result does not depend on which other lanes share
    the call, nor on whether the march is one- or two-sided.

    A step is accepted when the RMS over a lane's components of the
    scaled error estimate is below 1, with absolute and relative
    tolerance ``_TOL``; ``first_step`` (positive, a scalar or one per lane)
    is the size of the first trial step, on both sides.  A step with a
    non-finite stage or error estimate is rejected and h halves; below
    ``_MIN_STEP`` that raises StiffnessAbort.  Output times inside a step
    are read from the 7th-order interpolant; one that a step ends on takes
    the step's state.
    """
    y0 = np.asarray(y0, dtype=float)
    ts = np.asarray(ts, dtype=float)
    n, q = y0.shape
    first = np.broadcast_to(np.asarray(first_step, dtype=float), (n,))
    if not np.all(first > 0.0):
        raise ValueError("first_step must be positive")
    out = np.empty((len(ts), n, q))
    out[ts == t0] = y0
    # per side of t0 that has outputs, a block of n lanes; the side's
    # outputs are slots lo[s]:lo[s + 1], in the order the side reaches them
    sides = [(d, idx[np.argsort(d * ts[idx], kind="stable")])
             for d in (-1.0, 1.0)
             for idx in [np.flatnonzero(d * (ts - t0) > 0)] if idx.size]
    if not sides:
        return out
    seq = np.concatenate([idx for _, idx in sides])  # the output of a slot
    keys = [(d, d * ts[idx]) for d, idx in sides]    # ascending
    lo = np.cumsum([0] + [len(idx) for _, idx in sides])
    direction = np.repeat([d for d, _ in sides], n)
    t_end = np.repeat([ts[idx[-1]] for _, idx in sides], n)
    y = np.tile(y0, (len(sides), 1))
    t = np.full(len(y), float(t0))
    h = direction * np.tile(first, len(sides))
    nxt = np.repeat(lo[:-1], n)
    got, ts_seq = np.empty((len(seq), n, q)), ts[seq]
    rejected = np.zeros(len(y), dtype=bool)
    live = t != t_end
    k_first = f(t, y)
    with np.errstate(all="ignore"):
        while live.any():
            t_new = np.where(live, t + h, t)
            t_new = np.where(direction * (t_new - t_end) > 0, t_end, t_new)
            hs = t_new - t
            hc = hs[:, None]
            K = [k_first]
            ok = np.isfinite(k_first).all(axis=1)
            for s in range(1, 13):
                y_new = y + _combine(_A[s], K) * hc
                K.append(f(t + _C[s] * hs, y_new))
                ok &= np.isfinite(K[s]).all(axis=1)
            # stage 12 is f at the 8th-order solution: y_new is its state
            ok &= np.isfinite(y_new).all(axis=1)
            scale = _TOL + np.maximum(np.abs(y), np.abs(y_new)) * _TOL
            e5 = np.sum((_combine(_E5, K) / scale) ** 2, axis=1)
            e3 = np.sum((_combine(_E3, K) / scale) ** 2, axis=1)
            denom = e5 + 0.01 * e3
            err = np.where(denom > 0, np.abs(hs) * e5 / np.sqrt(denom * q),
                           0.0)
            ok &= np.isfinite(err)
            accept = live & ok & (err < 1.0)
            retry = live & ~accept
            factor = _SAFETY * err ** -0.125
            grow = np.where(err == 0, _MAX_FACTOR,
                            np.minimum(_MAX_FACTOR, factor))
            grow = np.where(rejected, np.minimum(1.0, grow), grow)
            shrink = np.where(ok, np.maximum(_MIN_FACTOR, factor), 0.5)
            h = np.where(accept, hs * grow, np.where(retry, hs * shrink, h))
            small = retry & (np.abs(h) < _MIN_STEP)
            if small.any():
                lane = int(np.argmax(small))
                raise StiffnessAbort(f"step underflow at t={float(t[lane])}")
            reach = np.concatenate([lo[s] + np.searchsorted(
                key, d * t_new[s * n:(s + 1) * n], side="right")
                for s, (d, key) in enumerate(keys)])
            stop = np.where(accept, reach, nxt)
            _dense(f, got, ts_seq, t, t_new, y, y_new, K, nxt, stop)
            y = np.where(accept[:, None], y_new, y)
            k_first = np.where(accept[:, None], K[12], k_first)
            t = np.where(accept, t_new, t)
            nxt = stop
            rejected = retry
            live = t != t_end
    out[seq] = got
    return out


def _dense(rhs, out, ts, t, t_new, y, y_new, K, first, stop):
    """Fill out[j, i % n] for the output slots first[i] <= j < stop[i],
    at the times ts[j], that lane i's step from t to t_new covers, with n
    = out.shape[1]: y_new where the step ends on ts[j], else the dense
    output, whose extra stages run only if some lane needs them."""
    count = stop - first
    if not count.any():
        return
    # one (lane, output) pair per output a lane's step covers
    lanes = np.repeat(np.arange(len(t)), count)
    offsets = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count,
                                                 count)
    js = np.repeat(first, count) + offsets
    cols = lanes % out.shape[1]
    ends = ts[js] == t_new[lanes]
    inside = ~ends
    if inside.any():
        hs = t_new - t
        hc = hs[:, None]
        for s in range(13, 16):
            K.append(rhs(t + _C[s] * hs, y + _combine(_A[s], K) * hc))
        dy = y_new - y
        F = [dy, hc * K[0] - dy, 2.0 * dy - hc * (K[12] + K[0])]
        F += [hc * _combine(row, K) for row in _D]
        li = lanes[inside]
        x = ((ts[js[inside]] - t[li]) / hs[li])[:, None]
        acc = np.zeros((len(li), y.shape[1]))
        for i, coeff in enumerate(reversed(F)):
            acc += coeff[li]
            acc *= x if i % 2 == 0 else 1.0 - x
        out[js[inside], cols[inside]] = acc + y[li]
    out[js[ends], cols[ends]] = y_new[lanes[ends]]


rk4 = flow  # the name the per-layer probes wrap


# kept only as a probe target; ROADMAP item 1 deletes it together with BlowUp
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
