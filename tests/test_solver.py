import dataclasses
import functools
import gc
import math
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwave import exprmat, geometry, ode, solver, spline
from rwave.expr import (
    Bin,
    Box,
    Call,
    Const,
    Expr,
    MissingVariableError,
    VarSpace,
    parse,
    simplify,
)
from rwave.fixtures import PRESETS, load_fixture
from rwave.geometry import WaveElement, find_potential
from rwave.solver import (
    ImplicitSolveConfig,
    NonIntegrable,
    SolveFailed,
    Surface2D,
    build_hodograph,
    double_wave_fixture,
    integrate_characteristic,
    solve_implicit,
    surface_tangency_residual,
)
from rwave.spline import Spline1D, Spline2D

from .strategies import point_env

EX2 = load_fixture("example2")
SP2 = EX2.space
EX3 = load_fixture("example3")
SP3 = EX3.space


def tau_pm_closed_form(t, y, sign, tau0=0.0):
    # sign +1 gives the plus-wave invariant, -1 the minus-wave invariant
    return (t + sign * tau0
            - math.sqrt((t - sign * tau0) ** 2 - 8 * math.log(abs(y)))) / 2.0


def ex2_potentials():
    plus = parse("t - ln(|y|)/sqrt(u1)", SP2)
    minus = parse("t + ln(|y|)/sqrt(u1)", SP2)
    return plus, minus


def test_integrate_characteristic_linear_exact():
    space = VarSpace((), ("u",))
    surf = integrate_characteristic((Const(1),), [0.0], (0.0, 1.0),
                                    step=0.05, space=space)
    s = np.linspace(0.0, 1.0, 7)
    assert np.allclose(surf.value(s)[:, 0], s, atol=1e-13)


def test_integrate_characteristic_zero_gamma_constant():
    space = VarSpace((), ("u1", "u2"))
    surf = integrate_characteristic((Const(0), Const(0)), [2.0, -1.0],
                                    (0.0, 1.0), step=0.1, space=space)
    vals = surf.value(np.linspace(0, 1, 5))
    assert np.allclose(vals, [2.0, -1.0], atol=1e-14)


@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_integrate_characteristic_ex2_closed_form(sign):
    # du1/ds = sign*sqrt(u1), du2/ds = 1 has u1 = (s/2)^2 (sign*s > 0), u2 = s
    gamma = (parse("sqrt(u1)" if sign > 0 else "-sqrt(u1)", SP2), Const(1))
    space = VarSpace((), ("u1", "u2"))
    gamma = (parse("sqrt(u1)" if sign > 0 else "-sqrt(u1)", space), Const(1))
    if sign > 0:
        s_range, u0 = (0.05, 1.2), [0.05 ** 2 / 4.0, 0.05]
    else:
        s_range, u0 = (-2.6, -0.05), [2.6 ** 2 / 4.0, -2.6]
    surf = integrate_characteristic(gamma, u0, s_range, step=0.004,
                                    space=space)
    s = np.linspace(s_range[0], s_range[1], 9)
    vals = surf.value(s)
    assert np.allclose(vals[:, 0], (s / 2.0) ** 2, atol=1e-9)
    assert np.allclose(vals[:, 1], s, atol=1e-10)


def sheet(points, *args, **kwargs):
    """``build_hodograph`` with ``points`` grid points along each axis."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_SHEET_POINTS", points)
        return build_hodograph(*args, **kwargs)


def ex2_two_wave_surface():
    gam_p = (parse("sqrt(u1)", SP2), Const(1))
    gam_m = (parse("-sqrt(u1)", SP2), Const(1))
    cfg = PRESETS["example2"]["solver"]
    mu = [[parse(e, VarSpace((), (), ("taup", "taum"))) for e in row]
          for row in cfg["mu"]]
    return sheet(
        121, [gam_p, gam_m], mu, cfg["u0"], cfg["tau_base"],
        cfg["axis_ranges"], step=cfg["grid_step"], space=SP2,
        tau_names=("taup", "taum"), axes=cfg["axes"])


def test_build_hodograph_two_wave_matches_closed_form():
    surf = ex2_two_wave_surface()
    assert isinstance(surf, Surface2D)
    rng = np.random.default_rng(0)
    s1 = rng.uniform(1.2, 3.0, 30)
    s2 = rng.uniform(0.4, 1.4, 30)
    tau = surf.from_internal(np.stack([s1, s2], axis=1))
    vals = surf.value(tau)
    tp, tm = tau[:, 0], tau[:, 1]
    # f = (((tau+ - tau-)/2)^2, (tau+ + tau-)/2) anchored at u0=(1,2)
    assert np.max(np.abs(vals[:, 0] - ((tp - tm) / 2.0) ** 2)) < 1e-8
    assert np.max(np.abs(vals[:, 1] - (tp + tm) / 2.0)) < 1e-9
    gam_p = (parse("sqrt(u1)", SP2), Const(1))
    gam_m = (parse("-sqrt(u1)", SP2), Const(1))
    cfg = PRESETS["example2"]["solver"]
    mu = [[parse(e, VarSpace((), (), ("taup", "taum"))) for e in row]
          for row in cfg["mu"]]
    assert surface_tangency_residual(surf, [gam_p, gam_m], mu, rng=1) < 1e-8


def ex2_frame():
    gam_p = (parse("sqrt(u1)", SP2), Const(1))
    gam_m = (parse("-sqrt(u1)", SP2), Const(1))
    mu = [[parse(e, VarSpace((), (), ("taup", "taum"))) for e in row]
          for row in PRESETS["example2"]["solver"]["mu"]]
    return ex2_two_wave_surface(), [gam_p, gam_m], mu


def tau_weighted_frame():
    # weights depend on tau and the axes are rotated, so every flow also
    # depends on the coordinate held fixed: f = (tau1^2/2, tau2^2/2) + c
    space = VarSpace((), ("u1", "u2"))
    tau_space = VarSpace((), (), ("tau1", "tau2"))
    gammas = [(Const(1), Const(0)), (Const(0), Const(1))]
    mu = [[parse("tau1", tau_space), Const(0)],
          [Const(0), parse("tau2", tau_space)]]
    surf = sheet(21, gammas, mu, [0.0, 0.0], [1.0, 1.0],
                 [[1.0, 2.0], [-0.5, 0.5]], step=0.02, space=space,
                 tau_names=("tau1", "tau2"), axes=[[1.0, 1.0], [1.0, -1.0]])
    return surf, gammas, mu


@pytest.mark.parametrize("frame", [ex2_frame, tau_weighted_frame])
def test_swap_order_lanes_match_serial_probes(frame):
    surf, gammas, mu = frame()
    field = solver._gamma_field(gammas, mu, surf.axes, surf.space,
                                surf.tau_names)
    s_base = np.linalg.solve(surf.axes, np.asarray(surf.provenance.tau_base))
    u0 = np.asarray(surf.provenance.u0)
    step = 0.02
    rng = np.random.default_rng(1)
    (l1, h1), (l2, h2) = surf.tau_ranges
    probes = np.stack([rng.uniform(l1, h1, 5), rng.uniform(l2, h2, 5)], axis=1)
    a, b = solver._flow_both_orders(field, s_base, u0, probes, step)

    def serial(rhs, y0, start, end):
        return ode.flow(rhs, y0[None], start, [end], first_step=step)[0, 0]

    for i, (s1, s2) in enumerate(probes):
        # reference: one single-lane integration per leg and probe
        want_a = serial(field(0, [None, s_base[1]]), u0, s_base[0], s1)
        want_a = serial(field(1, [s1, None]), want_a, s_base[1], s2)
        want_b = serial(field(1, [s_base[0], None]), u0, s_base[1], s2)
        want_b = serial(field(0, [None, s2]), want_b, s_base[0], s1)
        assert np.max(np.abs(a[i] - want_a)) < 1e-12
        assert np.max(np.abs(b[i] - want_b)) < 1e-12


def assert_bitwise(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == float
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("frame", [ex2_frame, tau_weighted_frame])
def test_paired_swap_legs_match_one_lane_legs_bitwise(frame):
    # the first legs of both orders share one march, then the second legs:
    # each probe's end states have the bits of one-lane legs in the same
    # sigma form
    surf, gammas, mu = frame()
    field = solver._gamma_field(gammas, mu, surf.axes, surf.space,
                                surf.tau_names)
    s_base = np.linalg.solve(surf.axes, np.asarray(surf.provenance.tau_base))
    u0 = np.asarray(surf.provenance.u0)
    step = 0.02
    rng = np.random.default_rng(2)
    (l1, h1), (l2, h2) = surf.tau_ranges
    probes = np.stack([rng.uniform(l1, h1, 5), rng.uniform(l2, h2, 5)], axis=1)
    a, b = solver._flow_both_orders(field, s_base, u0, probes, step)

    def leg(axis, fixed, y, start, end):
        span = np.array([end - start])
        rhs = field(axis, fixed)

        def f(sigma, u):
            return span[:, None] * rhs(start + sigma * span, u)

        return ode.flow(f, y[None], 0.0, [1.0],
                        first_step=step / np.maximum(np.abs(span), step))[0, 0]

    for i, (s1, s2) in enumerate(probes):
        want_a = leg(0, [None, s_base[1]], u0, s_base[0], s1)
        want_a = leg(1, [s1, None], want_a, s_base[1], s2)
        want_b = leg(1, [s_base[0], None], u0, s_base[1], s2)
        want_b = leg(0, [None, s2], want_b, s_base[0], s1)
        assert_bitwise(a[i], want_a)
        assert_bitwise(b[i], want_b)


def tree_walk_gamma_rhs(gammas, mu, surf, axis_idx, s_mat, u):
    """The weighted frame along one internal axis, tree-walking every gamma
    and mu entry per call."""
    k = len(gammas)
    tau = s_mat @ surf.axes.T
    env = {name: tau[:, a] for a, name in enumerate(surf.tau_names)}
    env.update({name: u[:, b] for b, name in enumerate(surf.space.dependent)})
    out = np.zeros_like(u)
    for a in range(k):
        coeff = surf.axes[a][axis_idx]
        if coeff == 0.0:
            continue
        acc = np.zeros_like(u)
        for ap in range(k):
            m = np.asarray(mu[ap][a].evaluate(env, strict=False), dtype=float)
            g = exprmat.eval_vector(gammas[ap], env, strict=False)
            acc += np.broadcast_to(m, (len(u),))[:, None] * g
        out += coeff * acc
    return out


@pytest.mark.parametrize("frame", [ex2_frame, tau_weighted_frame])
def test_gamma_field_kernel_matches_tree_walk_bitwise(frame):
    surf, gammas, mu = frame()
    field = solver._gamma_field(gammas, mu, surf.axes, surf.space,
                                surf.tau_names)
    rng = np.random.default_rng(3)
    (l1, h1), (l2, h2) = surf.tau_ranges
    s = np.stack([rng.uniform(l1, h1, 9), rng.uniform(l2, h2, 9)], axis=1)
    u = surf.value(surf.from_internal(s))
    for axis in (0, 1):
        fixed = [s[:, 0], s[:, 1]]
        fixed[axis] = None
        assert_bitwise(field(axis, fixed)(s[:, axis], u),
                       tree_walk_gamma_rhs(gammas, mu, surf, axis, s, u))
    # one lane and a scalar fixed coordinate, as in the sweep from the anchor
    got = field(1, [s[0, 0], None])(s[:1, 1], u[:1])
    assert_bitwise(got, tree_walk_gamma_rhs(gammas, mu, surf, 1, s[:1],
                                            u[:1]))


@pytest.mark.parametrize("phi", [*ex2_potentials(), parse("t + 2*u1", SP2)])
def test_potential_fn_kernel_matches_tree_walk_bitwise(phi):
    rng = np.random.default_rng(4)
    n = 11
    env = {"t": rng.uniform(1, 3, n), "x": rng.uniform(1, 3, n),
           "y": rng.uniform(0.2, 0.9, n), "u1": rng.uniform(0.25, 4, n),
           "u2": rng.uniform(1, 3, n)}
    pot = solver.PotentialFn(phi, SP2).bind(env)
    assert_bitwise(pot.value(env),
                   np.asarray(phi.evaluate(env, strict=False), dtype=float))
    want_du = np.stack([np.broadcast_to(np.asarray(
        simplify(phi.diff(nm)).evaluate(env, strict=False), dtype=float), (n,))
        for nm in SP2.dependent], axis=1)
    assert_bitwise(pot.du(env), want_du)


def test_build_hodograph_half_weights_quarter_form():
    # diagonal weights 1/2 reproduce the (tau+ - tau-)/4 square parametrization
    gam_p = (parse("sqrt(u1)", SP2), Const(1))
    gam_m = (parse("-sqrt(u1)", SP2), Const(1))
    tau_space = VarSpace((), (), ("taup", "taum"))
    half = parse("1/2", tau_space)
    zero = parse("0", tau_space)
    mu = [[half, zero], [zero, half]]
    # anchor on that surface: u = (((tp-tm)/4)^2, (tp+tm)/2) at (2, -2) -> (1, 0)
    surf = sheet(81, [gam_p, gam_m], mu, [1.0, 0.0], [2.0, -2.0],
                 [[-0.5, 0.5], [1.0, 3.0]], step=0.02, space=SP2,
                 tau_names=("taup", "taum"), axes=[[1.0, 1.0], [1.0, -1.0]])
    rng = np.random.default_rng(2)
    s = np.stack([rng.uniform(-0.4, 0.4, 20), rng.uniform(1.1, 2.9, 20)], axis=1)
    tau = surf.from_internal(s)
    vals = surf.value(tau)
    tp, tm = tau[:, 0], tau[:, 1]
    assert np.max(np.abs(vals[:, 0] - ((tp - tm) / 4.0) ** 2)) < 1e-8
    assert np.max(np.abs(vals[:, 1] - (tp + tm) / 2.0)) < 1e-9


def test_build_hodograph_noncommuting_raises():
    space = VarSpace((), ("u1", "u2"))
    g1 = (Const(1), Const(0))          # d_u1
    g2 = (Const(0), parse("u1", space))  # u1 d_u2
    mu = [[Const(1), Const(0)], [Const(0), Const(1)]]
    with pytest.raises(NonIntegrable):
        sheet(21, [g1, g2], mu, [0.0, 0.0], [0.0, 0.0],
              [[-1.0, 1.0], [-1.0, 1.0]], step=0.05, space=space)


@pytest.mark.parametrize("sign,box", [
    (-1.0, {"t": (1.0, 3.0), "y": (0.2, 0.9)}),
    (+1.0, {"t": (4.0, 6.0), "y": (1.1, 2.0)}),
])
def test_solve_implicit_simple_wave_matches_closed_form(sign, box):
    space = VarSpace((), ("u1", "u2"))
    gamma = (parse("sqrt(u1)" if sign > 0 else "-sqrt(u1)", space), Const(1))
    if sign > 0:
        s_range, u0 = (0.01, 1.0), [0.01 ** 2 / 4.0, 0.01]
        window = None
    else:
        s_range, u0 = (-2.6, -0.03), [2.6 ** 2 / 4.0, -2.6]
        window = None
    surf = integrate_characteristic(gamma, u0, s_range, step=0.003,
                                    space=SP2)
    pot = parse("t - ln(|y|)/sqrt(u1)" if sign > 0 else "t + ln(|y|)/sqrt(u1)",
                SP2)
    rng = np.random.default_rng(3)
    n = 200
    grid = {"t": rng.uniform(*box["t"], n), "x": rng.uniform(1, 3, n),
            "y": rng.uniform(*box["y"], n)}
    cfg = ImplicitSolveConfig(initial_guess="potential_at_base",
                              root_select="lowest", tau_window=window)
    field = solve_implicit(surf, [pot], grid, cfg, params={}, space=SP2)
    assert field.converged.all()
    want_tau = np.array([tau_pm_closed_form(t, y, sign)
                         for t, y in zip(grid["t"], grid["y"])])
    assert np.max(np.abs(field.tau[:, 0] - want_tau)) < 1e-8
    assert np.max(np.abs(field.u[:, 0] - (want_tau / 2.0) ** 2)) < 1e-8
    assert np.max(np.abs(field.u[:, 1] - want_tau)) < 1e-8


def example3_closed_form(t, x, y, c=1.0, m=1.0, k=1.0):
    L = math.log(x ** m * y ** k)
    disc = 4 * c * c * k * t * L + (c * m * t + 1) ** 2
    return -(math.sqrt(disc) + c * t * m + 1) / (2 * c * k * t)


def example3_surface():
    space = VarSpace((), ("u",))
    pre = PRESETS["example3"]["solver"]
    return integrate_characteristic((Const(1),), [0.0],
                                    pre["s_range"], step=0.05, space=space,
                                    s0=0.0)


def test_solve_implicit_example3_matches_closed_form():
    surf = example3_surface()
    rng = np.random.default_rng(4)
    pot = parse("-(t*(u*m+u^2*k)) + m*ln(|x|) + k*ln(|y|)", SP3)
    n = 200
    grid = {"t": rng.uniform(0.1, 1.0, n), "x": rng.uniform(1, 3, n),
            "y": rng.uniform(1, 3, n)}
    pre = PRESETS["example3"]["solver"]
    cfg = ImplicitSolveConfig(initial_guess=np.array([-2.0]),
                              tau_window=tuple(pre["tau_window"]),
                              root_select="lowest")
    field = solve_implicit(surf, [pot], grid, cfg, params={"m": 1.0, "k": 1.0},
                           space=SP3)
    assert field.converged.all()
    want = np.array([example3_closed_form(t, x, y)
                     for t, x, y in zip(grid["t"], grid["x"], grid["y"])])
    assert np.max(np.abs(field.u[:, 0] - want)) < 1e-7


def test_solve_implicit_example3_small_t_regular_branch():
    # the branch continuous through t = 0 follows u -> ln(x^m y^k)
    space = VarSpace((), ("u",))
    surf = integrate_characteristic((Const(1),), [0.0], (-2.0, 3.0),
                                    step=0.05, space=space, s0=0.0)
    pot = parse("-(t*(u*m+u^2*k)) + m*ln(|x|) + k*ln(|y|)", SP3)
    cfg = ImplicitSolveConfig(initial_guess="potential_at_base",
                              tau_window=(0.01, 2.9), root_select="nearest")
    x, y = 2.0, 3.0
    L = math.log(x * y)
    oracle = []
    for t in (1e-4, 1e-5, 1e-6):
        field = solve_implicit(surf, [pot], {"t": np.array([t]),
                                             "x": np.array([x]),
                                             "y": np.array([y])},
                               cfg, params={"m": 1.0, "k": 1.0}, space=SP3)
        assert field.converged.all()
        # high root of t k c^2 R^2 + (1 + t c m) R - L = 0
        closed = (-(1 + t) + math.sqrt((1 + t) ** 2 + 4 * t * L)) / (2 * t)
        assert field.u[0, 0] == pytest.approx(closed, abs=1e-9)
        oracle.append(field.u[0, 0])
    assert oracle[-1] == pytest.approx(L, abs=1e-4)


def test_solve_implicit_two_wave_grid():
    surf = ex2_two_wave_surface()
    pots = ex2_potentials()
    t = np.linspace(1.0, 3.0, 8)
    x = np.linspace(1.0, 3.0, 3)
    y = np.linspace(0.2, 0.9, 8)
    T, X, Y = np.meshgrid(t, x, y, indexing="ij")
    grid = {"t": T.ravel(), "x": X.ravel(), "y": Y.ravel()}
    cfg = ImplicitSolveConfig()
    field = solve_implicit(surf, list(pots), grid, cfg, params={}, space=SP2)
    assert field.converged.all()
    want_u1 = -np.log(grid["y"])
    assert np.max(np.abs(field.u[:, 0] - want_u1)) < 1e-8
    assert np.max(np.abs(field.u[:, 1] - grid["t"])) < 1e-8
    root = np.sqrt(-np.log(grid["y"]))
    assert np.max(np.abs(field.tau[:, 0] - (grid["t"] + root))) < 1e-8
    assert np.max(np.abs(field.tau[:, 1] - (grid["t"] - root))) < 1e-8
    assert np.min(np.abs(field.det_monitor)) > 1.0  # far from catastrophe
    # converged points satisfy |tau - phi(x, f(tau))| below the tolerance
    env = {"t": grid["t"], "x": grid["x"], "y": grid["y"],
           "u1": field.u[:, 0], "u2": field.u[:, 1]}
    for alpha, pot in enumerate(pots):
        G = field.tau[:, alpha] - pot.evaluate(env, strict=False)
        assert np.max(np.abs(G)) < cfg.newton_tol


def test_catastrophe_monitor_tracks_discriminant():
    # with x = y = exp(-0.75): L = -1.5, discriminant root at t = 2 - sqrt(3)
    surf = example3_surface()
    pot = parse("-(t*(u*m+u^2*k)) + m*ln(|x|) + k*ln(|y|)", SP3)
    xv = math.exp(-0.75)
    ts = np.linspace(0.05, 0.6, 111)
    grid = {"t": ts, "x": np.full_like(ts, xv), "y": np.full_like(ts, xv)}
    cfg = ImplicitSolveConfig(initial_guess=np.array([-2.0]),
                              tau_window=(-24.0, -0.01), root_select="lowest")
    field = solve_implicit(surf, [pot], grid, cfg, params={"m": 1.0, "k": 1.0},
                           space=SP3)
    t_crit = 2.0 - math.sqrt(3.0)
    conv = field.converged
    # converged exactly on t < t_crit side, diverged beyond, within one cell
    cell = ts[1] - ts[0]
    last_conv = ts[conv].max()
    first_fail = ts[~conv].min()
    assert last_conv < t_crit + cell
    assert first_fail > t_crit - cell
    assert first_fail - last_conv <= cell + 1e-12
    # |det| matches sqrt(discriminant) at converged points
    L = 2 * math.log(xv)
    disc = (ts + 1.0) ** 2 + 4 * ts * L
    good = conv & (disc > 0)
    assert np.allclose(np.abs(field.det_monitor[good]), np.sqrt(disc[good]),
                       atol=1e-7)


def test_solve_failed_when_no_roots():
    space = VarSpace((), ("u",))
    surf = integrate_characteristic((Const(1),), [0.0], (0.0, 1.0),
                                    step=0.05, space=space)
    # phi = t with window shifted away from any root
    pot = parse("t", VarSpace(("t",), ("u",)))
    cfg = ImplicitSolveConfig(initial_guess=np.array([0.5]),
                              tau_window=(0.0, 1.0))
    # no Newton iteration runs in a scalar solve, so the message says why
    with pytest.raises(SolveFailed, match="^no grid point has a sign change "
                       "of tau - phi in the scan window$"):
        solve_implicit(surf, [pot], {"t": np.array([5.0])}, cfg, params={},
                       space=VarSpace(("t",), ("u",)))


def test_double_wave_fixture_values():
    field = double_wave_fixture()
    assert field.n == 8000
    i = np.argmin(np.abs(field.x[:, 0] - 2.0) + np.abs(field.x[:, 1] - 5.0)
                  + np.abs(field.x[:, 2] - 0.5))
    # u1 = -ln|y|, u2 = t on the whole grid
    assert np.allclose(field.u[:, 0], -np.log(field.x[:, 2]), atol=1e-14)
    assert np.allclose(field.u[:, 1], field.x[:, 0], atol=1e-14)
    sub = field.resolve({"t": np.array([2.0]), "x": np.array([5.0]),
                         "y": np.array([0.5])}, None, np.array([0]))
    assert sub.u[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert sub.u[0, 1] == 2.0
    # central differences of the re-solve match the closed-form Jacobian
    # of u = (-ln|y|, t), [[0, 0, -1/y], [1, 0, 0]]
    J = np.array([[0.0, 0.0, -1.0 / 0.5], [1.0, 0.0, 0.0]])
    h = 1e-6
    pts = np.array([2.0, 5.0, 0.5]) + np.repeat(np.eye(3), 2, axis=0) \
        * np.tile([h, -h], 3)[:, None]
    moved = field.resolve({nm: pts[:, k] for k, nm in enumerate("txy")},
                          None, np.zeros(6, dtype=int))
    assert np.allclose(((moved.u[0::2] - moved.u[1::2]) / (2 * h)).T, J)


def test_double_wave_fixture_residual_zero():
    sys = load_fixture("example2")
    field = double_wave_fixture()
    rng = np.random.default_rng(5)
    idx = rng.choice(field.n, 100, replace=False)
    for i in idx:
        pt = point_env(field, i)
        y = pt["y"]
        J = np.array([[0.0, 0.0, -1.0 / y], [1.0, 0.0, 0.0]])
        res = sys.residual_at(pt, field.u[i], J)
        assert np.max(np.abs(res)) < 1e-14


# ---------------------------------------------------------------------------
# Newton accounting: each (lane, point) pair is evaluated once, with one
# surface lookup for u and df/dtau together, and only while the lane still
# iterates; results stay bitwise those of the loop that evaluated every
# lane at every call, with separate value and Jacobian calls, kept here as
# the reference

class LaneLog:
    """Surface wrapper recording the tau points the lookups (``value`` or
    ``value_and_jac``) see, as a Counter of their bytes, the number of
    points in each lookup, and how many lanes ``jac`` sees."""

    def __init__(self, surface):
        self._surface = surface
        self.points = Counter()
        self.sizes = []
        self.jac_lanes = 0

    def __getattr__(self, name):
        return getattr(self._surface, name)

    @property
    def lookups(self):
        return len(self.sizes)

    def _look(self, tau):
        self.points.update(row.tobytes() for row in tau)
        self.sizes.append(len(tau))

    def value(self, tau):
        self._look(tau)
        return self._surface.value(tau)

    def value_and_jac(self, tau):
        self._look(tau)
        return self._surface.value_and_jac(tau)

    def jac(self, tau):
        self.jac_lanes += len(tau)
        return self._surface.jac(tau)


def reference_newton(surface, phi_all, jacobian, tau0, cfg, n, only, need):
    # the loop before evaluations were shared, plus ``need`` calls naming
    # the points the lanes still iterating (or still halving) use
    tau = np.array(tau0, dtype=float)
    iters = np.zeros(n, dtype=int)
    conv = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    if only is not None:
        active[:] = False
        active[only] = True
    tau = surface.clip(tau)
    need("run", tau, active)
    for it in range(solver._MAX_ITER):
        phi_vals, u, env = phi_all(tau)
        need("value", tau, active)
        G = tau - phi_vals
        Gn = np.nanmax(np.abs(G), axis=1)
        newly = active & (Gn < cfg.newton_tol)
        conv |= newly
        active &= ~newly
        if not active.any():
            break
        J = jacobian(tau, env)
        need("jac", tau, active)
        delta = np.full_like(tau, np.nan)
        ok = np.all(np.isfinite(J), axis=(1, 2)) & np.all(np.isfinite(G), axis=1)
        solvable = ok & (np.abs(np.linalg.det(np.where(ok[:, None, None], J,
                                                       np.eye(tau.shape[1])))) > 1e-14)
        if solvable.any():
            delta[solvable] = np.linalg.solve(J[solvable],
                                              G[solvable][..., None])[..., 0]
        step = np.where((active & solvable)[:, None], delta, 0.0)
        scale = np.ones(n)
        trial = surface.clip(tau - scale[:, None] * step)
        halving = active
        for _ in range(solver._DAMPING_STEPS):
            phi_t, _, _ = phi_all(trial)
            need("value", trial, halving)
            need("halving", trial, halving)
            Gt = np.nanmax(np.abs(trial - phi_t), axis=1)
            worse = active & ~(Gt <= Gn * (1 - 1e-4) + cfg.newton_tol)
            if not worse.any():
                break
            scale[worse] *= 0.5
            trial = surface.clip(tau - scale[:, None] * step)
            halving = worse
        tau = np.where(active[:, None], trial, tau)
        iters[active] += 1
    return tau, iters, conv


def configured_guess(cfg, bound, surface, n, k):
    """The initial guess of each lane, taken as solve_implicit takes it."""
    guess = solver._lane_guess(cfg, n, k)
    if guess is None:
        guess = solver._initial_guess(cfg, bound, surface, n, k)
    return guess


def reference_solve(surface, potentials, grid, cfg, need):
    """solve_implicit's k = 2 path as it was when every call covered every
    lane; returns tau, u, iterations, convergence and the determinant."""
    pots = [solver.PotentialFn(p, SP2) for p in potentials]
    env_x, n = solver._env_from_grid(SP2.independent, grid, {})

    def phi_all(tau):
        u = surface.value(tau)
        env = dict(env_x)
        for j, name in enumerate(SP2.dependent):
            env[name] = u[:, j]
        return (np.stack([p.bind(env).value(env) for p in pots], axis=1), u,
                env)

    def jacobian(tau, env):
        dphi = np.stack([p.bind(env).du(env) for p in pots], axis=1)
        return np.eye(2)[None] - dphi @ surface.jac(tau)

    tau0 = configured_guess(cfg, [p.bind(env_x) for p in pots], surface,
                            n, 2)
    tau, iters, conv = reference_newton(surface, phi_all, jacobian, tau0, cfg,
                                        n, None, need)
    if (~conv).any() and conv.any():
        bad = np.where(~conv)[0]
        good = np.where(conv)[0]
        guess = tau.copy()
        for b in bad:
            guess[b] = tau[good[np.argmin(np.abs(good - b))]]
        tau2, it2, conv2 = reference_newton(surface, phi_all, jacobian, guess,
                                            cfg, n, bad, need)
        tau[bad] = tau2[bad]
        iters[bad] += it2[bad]
        conv[bad] = conv2[bad]
    _, u, env = phi_all(tau)
    need("value", tau, np.ones(n, dtype=bool))
    with np.errstate(invalid="ignore"):
        det = np.linalg.det(jacobian(tau, env))
    return tau, u, iters, conv, det


class CallCount:
    """A callable's wrapper counting its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class Needs:
    """Per Newton run and lane, the points a reference solve needs
    ``value`` at, plus the lanes ``jac`` needs and the damping trials
    taken.  Within one run each point counts once however often in a row
    the reference asks; a warm-start retry starts a new run, which
    evaluates its first point even where a lane stopped at that very
    point.  The final read of every lane belongs to its last run."""

    def __init__(self):
        self.runs = []            # per run, lane -> its points
        self.jac_lanes = 0
        self.trials = 0

    def __call__(self, kind, tau, lanes):
        if kind == "jac":
            self.jac_lanes += int(lanes.sum())
        elif kind == "halving":
            self.trials += int(lanes.sum())
        elif kind == "run":
            self.runs.append({i: [] for i in np.where(lanes)[0].tolist()})
        else:
            for i in np.where(lanes)[0].tolist():
                seq = next(run[i] for run in reversed(self.runs) if i in run)
                if not seq or seq[-1] != tau[i].tobytes():
                    seq.append(tau[i].tobytes())

    def points(self, first):
        """The points a solve looks up that runs the first Newton run over
        the lanes ``first`` only, one per distinct equation, and a retry
        over every lane it restarts."""
        return Counter(p for r, run in enumerate(self.runs)
                       for i, seq in run.items() if r or i in first
                       for p in seq)


def ex2_grid(nt=8, nx=3, ny=8):
    t = np.linspace(1.0, 3.0, nt)
    x = np.linspace(1.0, 3.0, nx)
    y = np.linspace(0.2, 0.9, ny)
    T, X, Y = np.meshgrid(t, x, y, indexing="ij")
    return {"t": T.ravel(), "x": X.ravel(), "y": Y.ravel()}


def wavy_potentials():
    # the example2 pair with a ripple in u1: full Newton steps overshoot,
    # so the iteration halves its steps and some points need the retry
    plus, minus = ex2_potentials()
    return plus, simplify(minus + parse("0.5*sin(4*u1)", SP2))


# each case's potentials, and the values of the solver's Newton constants
# it sets
NEWTON_CASES = {
    "example2": (ex2_potentials, {}),
    "halvings and retry": (wavy_potentials, {}),
    "damping runs out": (wavy_potentials, {"_DAMPING_STEPS": 3}),
    "no damping": (wavy_potentials, {"_DAMPING_STEPS": 0, "_MAX_ITER": 8}),
}


def set_constants(mp, constants):
    for name, value in constants.items():
        mp.setattr(solver, name, value)


@pytest.mark.parametrize("case", NEWTON_CASES)
def test_newton_evaluates_each_point_once_bitwise(case, monkeypatch):
    make_pots, constants = NEWTON_CASES[case]
    set_constants(monkeypatch, constants)
    surf = ex2_two_wave_surface()
    pots = list(make_pots())
    grid = ex2_grid()
    cfg = ImplicitSolveConfig()
    need = Needs()
    tau, u, iters, conv, det = reference_solve(surf, pots, grid, cfg, need)
    counted = surf._spline = CallCount(surf._spline)
    log = LaneLog(surf)
    field = solve_implicit(log, pots, grid, cfg, params={}, space=SP2)

    if case == "halvings and retry":
        assert need.trials > need.jac_lanes           # some steps halved
        assert (iters > solver._MAX_ITER).any()       # some lanes retried
    assert_bitwise(field.tau, tau)
    assert_bitwise(field.u, u)
    assert np.array_equal(field.iters, iters)
    assert np.array_equal(field.converged, conv)
    # the lookups see each lane only at the points it still needs, and
    # give u and df/dtau together: Newton never calls jac, and each
    # lookup is one spline call
    # the first run solves each distinct equation once: the grid's x axis
    # is read by no potential, so lanes repeat over it
    first, _ = exprmat.distinct_rows(np.column_stack([grid["t"], grid["y"]]))
    assert len(first) < field.n
    assert log.points == need.points(set(first.tolist()))
    assert log.jac_lanes == 0
    assert counted.calls == log.lookups
    # the determinant costs one jac call, when first read, over the distinct
    # lanes, or over every lane once a retry has run on the grid's lanes
    assert_bitwise(field.det_monitor, det)
    assert np.array_equal(field.catastrophe,
                          (np.abs(det) < solver._CATASTROPHE) & conv)
    assert log.jac_lanes == (field.n if len(need.runs) > 1 else len(first))
    assert counted.calls == log.lookups + 1


def test_resolve_leaves_determinant_until_read():
    surf = LaneLog(ex2_two_wave_surface())
    pots = list(ex2_potentials())
    field = solve_implicit(surf, pots, ex2_grid(), ImplicitSolveConfig(),
                           params={}, space=SP2)
    again = field.resolve(ex2_grid(3, 2, 3), None, np.arange(18))
    assert surf.jac_lanes == 0       # Newton reads df/dtau from its lookups
    again.catastrophe
    # one lane per distinct (t, y): no potential reads x
    assert surf.jac_lanes == 9 < again.n

    # the scalar solve takes no Jacobian at all
    line = LaneLog(example3_surface())
    pot = parse("-(t*(u*m+u^2*k)) + m*ln(|x|) + k*ln(|y|)", SP3)
    cfg = ImplicitSolveConfig(initial_guess=np.array([-2.0]),
                              tau_window=(-24.0, -0.01), root_select="lowest")
    grid = {"t": np.linspace(0.1, 1.0, 5), "x": np.full(5, 2.0),
            "y": np.full(5, 1.5)}
    field = solve_implicit(line, [pot], grid, cfg, params={"m": 1.0, "k": 1.0},
                           space=SP3)
    field.resolve(grid, None, np.arange(5))
    assert line.jac_lanes == 0
    field.det_monitor
    assert line.jac_lanes == field.n


def displaced_grids(grid, h=1e-5):
    """The 12 grids a Richardson finite-difference Jacobian re-solves on:
    each axis moved by +-h and +-h/2."""
    return [{**grid, name: grid[name] + sign * step}
            for step in (h, h / 2) for name in grid for sign in (1.0, -1.0)]


def counting_sorts(monkeypatch):
    """The number of lexsorts made from here on, as a one-item list."""
    sorts = [0]
    lexsort = np.lexsort

    def counted(keys):
        sorts[0] += 1
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", counted)
    return sorts


def assert_fields_bitwise(got, want):
    for name in ("tau", "u"):
        assert_bitwise(getattr(got, name), getattr(want, name))
    for name in ("iters", "converged"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("case", ["example2", "halvings and retry"])
def test_resolves_match_fresh_solves_bitwise(case, monkeypatch):
    # warm-started re-solves on displaced grids: after a solve without a
    # retry each takes the base solve's lane plan and sorts nothing; after
    # the retry none is offered, and each sorts its own lanes.  Either way
    # a re-solve has the bits of a fresh solve on its grid
    surf = ex2_two_wave_surface()
    pots = list(NEWTON_CASES[case][0]())
    cfg = ImplicitSolveConfig()
    grid = ex2_grid()
    field = solve_implicit(surf, pots, grid, cfg, params={}, space=SP2)
    retried = (field.iters > solver._MAX_ITER).any()
    assert retried == (case == "halvings and retry")
    # the resolver warm-starts only a field whose every lane converged
    warm = (dataclasses.replace(cfg, initial_guess=field.tau)
            if field.converged.all() else cfg)
    # a solve with a retry is slow, so it re-solves on one grid only
    for moved in displaced_grids(grid)[:1 if retried else None]:
        sorts = counting_sorts(monkeypatch)
        again = field.resolve(moved, field.tau, np.arange(field.n))
        assert sorts[0] == (1 if retried else 0)
        assert_fields_bitwise(again, solve_implicit(surf, pots, moved, warm,
                                                    params={}, space=SP2))
        monkeypatch.undo()


def test_resolve_with_a_signed_zero_warm_start_sorts_afresh(monkeypatch):
    # one lane's warm start differs from the rest of its base group only in
    # the sign of a zero: the plan does not hold, so the re-solve sorts, and
    # that lane is its own equation
    surf = ex2_two_wave_surface()
    pots = list(ex2_potentials())
    grid = ex2_grid()
    field = solve_implicit(surf, pots, grid, ImplicitSolveConfig(), params={},
                           space=SP2)
    group = np.flatnonzero((grid["t"] == grid["t"][0])
                           & (grid["y"] == grid["y"][0]))
    assert len(group) == 3
    guess = field.tau.copy()
    guess[group, 1] = 0.0
    guess[group[1], 1] = -0.0
    sorts = counting_sorts(monkeypatch)
    lanes = np.arange(field.n)
    again = field.resolve(grid, guess, lanes)
    assert sorts[0] == 1
    monkeypatch.undo()
    fresh = solve_implicit(surf, pots, grid,
                           ImplicitSolveConfig(initial_guess=guess),
                           params={}, space=SP2)
    assert_fields_bitwise(again, fresh)
    # the fresh solve's own plan holds for the same warm start
    sorts = counting_sorts(monkeypatch)
    assert_fields_bitwise(fresh.resolve(grid, guess, lanes), fresh)
    assert sorts[0] == 0


def test_warm_start_from_converged_lanes_looks_up_once():
    # a re-solve started where every lane has converged keeps no lane
    # iterating: one lookup over the distinct lanes, keyed on (t, y) and
    # the warm start, and no stale u to look up
    surf = LaneLog(ex2_two_wave_surface())
    field = solve_implicit(surf, list(ex2_potentials()), ex2_grid(),
                           ImplicitSolveConfig(), params={}, space=SP2)
    assert field.converged.all()
    surf.sizes.clear()
    again = field.resolve(ex2_grid(), field.tau, np.arange(field.n))
    assert surf.sizes == [64] and 64 < field.n
    assert again.converged.all() and not again.iters.any()


# ---------------------------------------------------------------------------
# repeated lanes: a grid whose lanes repeat an equation, in any order, gives
# each lane the bits of a solve over its distinct equations alone, except
# where a lane needs the warm-start retry, which reads its grid-order
# neighbours; there it has the bits of the reference that solves every lane
# (the lane contract and its exceptions, README)

@functools.cache
def repeated_lanes_cases():
    # the lanes to repeat, each with two initial guesses: example3's scan
    # (k = 1), and the "halvings and retry" potentials of example2 (k = 2)
    # on (t, y) lanes at x = 1, whose guesses are the policy's and that of
    # another lane
    surf, pots, grid, settings, params, space = ex3_scalar_case()
    grid = {name: v[:30] for name, v in grid.items()}
    guess = mixed_guess(grid)
    scalar = (surf, pots, grid, settings["tau_window"], params, space,
              np.stack([guess, -8.0 * grid["t"]], axis=1)[:, :, None])
    surf = ex2_two_wave_surface()
    pots = list(wavy_potentials())
    grid = ex2_grid(8, 1, 8)
    bound = [solver.PotentialFn(p, SP2).bind(grid) for p in pots]
    policy = solver._initial_guess(ImplicitSolveConfig(), bound, surf,
                                   len(grid["t"]), 2)
    newton = (surf, pots, grid, None, {}, SP2,
              np.stack([policy, policy[::-1]], axis=1))
    return {1: scalar, 2: newton}


def repeated_lanes_solves(k, lanes, warm, **settings):
    """The solve on a grid of ``lanes``, each (lane, guess, x) of a case,
    and the one on its distinct equations alone, each with its config and
    grid, and the map from the grid's lanes to those equations.  Without
    ``warm`` every lane starts from the policy's guess.  A solve in which
    every lane diverges is None."""
    surf, pots, grid, window, params, space, guesses = \
        repeated_lanes_cases()[k]
    lane, guess, x = (np.array(v) for v in zip(*lanes))
    if not warm:
        guess[:] = 0
    distinct, back = np.unique(lane * 2 + guess, return_inverse=True)

    def solve(lane, guess, x):
        env = {name: v[lane] for name, v in grid.items()}
        if k == 2:
            env["x"] = x          # read by no potential
        cfg = ImplicitSolveConfig(
            tau_window=window, **settings,
            **({"initial_guess": guesses[lane, guess]} if warm else {}))
        try:
            field = solve_implicit(surf, pots, env, cfg, params=params,
                                   space=space)
        except SolveFailed:
            field = None
        return field, cfg, env

    return (solve(lane, guess, x),
            solve(distinct // 2, distinct % 2, np.ones(len(distinct))), back)


def lanes_of(field, lanes):
    """``field`` at ``lanes``, its determinant read now."""
    det = field.det_monitor[lanes]
    return dataclasses.replace(
        field, x=field.x[lanes], tau=field.tau[lanes], u=field.u[lanes],
        iters=field.iters[lanes], converged=field.converged[lanes],
        determinant=lambda: det)


def assert_lanes_bitwise(got, want):
    for name in ("tau", "u", "det_monitor"):
        assert_bitwise(getattr(got, name), getattr(want, name))
    for name in ("iters", "converged", "catastrophe"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("root_select", ["lowest", "highest", "nearest"])
@settings(max_examples=15, deadline=None)
@given(lanes=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 1),
                                st.just(1.0)), min_size=1, max_size=40))
def test_repeated_lanes_scalar_solve_bitwise(root_select, lanes):
    # the scan's block of 8192 // n columns and the bisection's pass count
    # (the most any distinct equation needs) come out as on the distinct
    # lanes alone
    (got, _, _), (alone, _, _), back = repeated_lanes_solves(
        1, lanes, True, root_select=root_select)
    assert (got is None) == (alone is None)
    if got is not None:
        assert_lanes_bitwise(got, lanes_of(alone, back))


NEWTON_REPEATS = {"halvings and retry": {},
                  "no damping": {"_DAMPING_STEPS": 0, "_MAX_ITER": 8}}


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("case", NEWTON_REPEATS)
@settings(max_examples=8, deadline=None)
@given(lanes=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 1),
                                st.sampled_from([1.0, 2.0, 3.0])),
                      min_size=1, max_size=30))
@example(lanes=[(9, 0, 1.0), (0, 0, 1.0), (27, 0, 2.0), (0, 0, 3.0)])
def test_repeated_lanes_newton_bitwise(case, warm, lanes):
    # the example: lane 0 fails its first run at (t, y) = (1, 0.2), and its
    # two copies retry from different grid-order neighbours, lanes 9 and 27
    with pytest.MonkeyPatch.context() as mp:
        set_constants(mp, NEWTON_REPEATS[case])
        (got, cfg, env), (alone, _, _), back = repeated_lanes_solves(
            2, lanes, warm)
        surf, pots = repeated_lanes_cases()[2][:2]
        tau, u, iters, conv, det = reference_solve(surf, pots, env, cfg,
                                                   lambda *args: None)
        max_iter = solver._MAX_ITER
    if got is None:
        assert not conv.any()
        return
    assert_lanes_bitwise(got, dataclasses.replace(
        got, tau=tau, u=u, iters=iters, converged=conv,
        determinant=lambda: det))
    first_run = got.iters < max_iter          # converged before any retry
    assert_lanes_bitwise(lanes_of(got, first_run),
                         lanes_of(alone, back[first_run]))


def reference_select_cell(flips, ws, tau0, root_select):
    # the per-row loop of the scalar solve's root selection
    idx = np.zeros(len(flips), dtype=int)
    for i in np.where(flips.any(axis=1))[0]:
        cand = np.where(flips[i])[0]
        if root_select == "lowest":
            idx[i] = cand[0]
        elif root_select == "highest":
            idx[i] = cand[-1]
        else:
            centers = 0.5 * (ws[cand] + ws[cand + 1])
            idx[i] = cand[np.argmin(np.abs(centers - tau0[i]))]
    return idx


def scan_flips(g):
    # the reference's sign changes of G (n, points)
    sign = np.sign(g)
    with np.errstate(invalid="ignore"):
        flips = (sign[:, :-1] * sign[:, 1:]) <= 0
    return flips & np.isfinite(g[:, :-1]) & np.isfinite(g[:, 1:])


def offer_in_blocks(pick, g, ws, widths):
    # G (n, points) offered as the scan offers it: a block of ``width``
    # cells starts at the last column of the block before
    centers = 0.5 * (ws[:-1] + ws[1:])
    first = 0
    for width in widths:
        block = np.ascontiguousarray(g[:, first:first + width + 1].T)
        pick.offer(first, block, centers[first:first + width],
                   np.arange(len(g)))
        first += width


@pytest.mark.parametrize("root_select", ["lowest", "highest", "nearest"])
def test_select_cell_matches_row_loop(root_select):
    rng = np.random.default_rng(11)
    n, points = 400, 41
    ws = np.linspace(-2.0, 2.0, points)
    centers = 0.5 * (ws[:-1] + ws[1:])
    for _ in range(30):
        # cells per block 1-9, the last block whatever is left
        widths = []
        while sum(widths) < points - 1:
            left = points - 1 - sum(widths)
            widths.append(min(int(rng.integers(1, 10)), left))
        ends = np.cumsum(widths)            # each block's last column
        # runs of one sign, zeros, and NaN or an infinity in columns that
        # end one block and start the next, and elsewhere
        sign = np.cumprod(np.where(rng.random((n, points)) < 0.15, -1.0, 1.0),
                          axis=1)
        g = sign * rng.uniform(0.1, 2.0, (n, points))
        g[rng.random((n, points)) < 0.03] = 0.0
        odd = [np.nan, np.inf, -np.inf]
        for cols in (ends, rng.integers(0, points, 5)):
            hit = rng.random((n, len(cols))) < 0.15
            g[:, cols] = np.where(hit, rng.choice(odd, hit.shape), g[:, cols])
        g[:20] = np.abs(g[:20]) + 1.0              # rows without a root
        # tau0 on a cell centre, halfway between two centres (a tie), on a
        # scan point, outside the window, NaN and infinite
        tau0 = rng.choice(np.concatenate([centers, ws, [-5.0, 5.0, *odd]]), n)
        tau0[20:40] = 0.5 * (centers[2] + centers[5])
        g[20:40] = np.where((np.arange(points) > 2) & (np.arange(points) < 6),
                            -1.0, 1.0)
        flips = scan_flips(g)
        pick = solver._CellPicker(tau0, root_select)
        offer_in_blocks(pick, g, ws, widths)
        want = reference_select_cell(flips, ws, tau0, root_select)
        assert np.array_equal(pick.idx, want)
        assert np.array_equal(pick.found, flips.any(axis=1))
        # G is kept at the left end of the picked cell
        has = flips.any(axis=1)
        assert_bitwise(pick.g_left[has], g[has, want[has]])
        if root_select == "nearest":
            assert np.array_equal(want[20:40], np.full(20, 2))


def test_nearest_matches_neighbour_loop():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7, 50):
        for _ in range(40):
            conv = rng.random(n) < 0.5
            if not conv.any() or conv.all():
                continue
            good, bad = np.where(conv)[0], np.where(~conv)[0]
            want = [good[np.argmin(np.abs(good - b))] for b in bad]
            assert np.array_equal(solver._nearest(good, bad), want)


# ---------------------------------------------------------------------------
# the scalar solve scans a block of columns at a time and shares each
# column's u(w) between lanes; it stays bitwise the matrix scan that
# evaluated the curve and the potential on every lane at every scan point,
# kept here as the reference

def reference_scan_solve(surface, phi, tau0, cfg, n):
    # ``phi(tau)`` gives phi at tau (n, 1) on every lane, shape (n,)
    lo, hi = surface.tau_ranges[0]
    if cfg.tau_window is not None:
        lo, hi = max(lo, cfg.tau_window[0]), min(hi, cfg.tau_window[1])
    ws = np.linspace(lo, hi, solver._SCAN_POINTS)
    Gm = np.empty((n, len(ws)))
    for j, w in enumerate(ws):
        Gm[:, j] = w - phi(np.full((n, 1), w))
    sign = np.sign(Gm)
    with np.errstate(invalid="ignore"):
        flips = (sign[:, :-1] * sign[:, 1:]) <= 0
    flips &= np.isfinite(Gm[:, :-1]) & np.isfinite(Gm[:, 1:])
    conv = flips.any(axis=1)
    tau = np.full((n, 1), np.nan)
    iters = np.zeros(n, dtype=int)
    if not conv.any():
        return tau, iters, conv
    idx = reference_select_cell(flips, ws, tau0, cfg.root_select)
    a, b = ws[idx], ws[idx + 1]
    ga = Gm[np.arange(n), idx]
    for _ in range(90):
        mid = 0.5 * (a + b)
        gm = mid - phi(mid[:, None])
        left = ga * gm <= 0
        b = np.where(conv & left, mid, b)
        a = np.where(conv & ~left, mid, a)
        ga = np.where(conv & ~left, gm, ga)
        iters[conv] += 1
        mid = 0.5 * (a + b)
        if np.all(((mid == a) | (mid == b))[conv]):
            break
    tau[conv, 0] = mid[conv]
    return tau, iters, conv


def reference_solve_scalar(surface, potentials, grid, cfg, params, space):
    env_x, n = solver._env_from_grid(space.independent, grid, params)

    def phi(tau):
        env = dict(env_x)
        u = surface.value(tau)
        env.update({name: u[:, j] for j, name in enumerate(space.dependent)})
        return np.broadcast_to(np.asarray(potentials[0].evaluate(
            env, strict=False), dtype=float), (n,))

    pots = [solver.PotentialFn(p, space) for p in potentials]
    tau0 = configured_guess(cfg, [p.bind(env_x) for p in pots], surface,
                            n, 1)[:, 0]
    return reference_scan_solve(surface, phi, tau0, cfg, n)


EX3_POT = "-(t*(u*m+u^2*k)) + m*ln(|x|) + k*ln(|y|)"


def mixed_guess(env):
    # finite guesses on both roots' sides, plus NaN and infinite ones
    t = env["t"]
    guess = np.where(np.arange(len(t)) % 2, -8.0 * t, 0.5 + 0 * t)
    guess[::7] = np.nan
    guess[3::11] = np.inf
    guess[5::13] = -np.inf
    return guess


def ex3_scalar_case(extra=""):
    # x y < 1 leaves some lanes without a root, and the window reaches
    # above 0, so others have two
    rng = np.random.default_rng(8)
    n = 150
    grid = {"t": rng.uniform(0.1, 1.0, n), "x": rng.uniform(0.3, 3.0, n),
            "y": rng.uniform(0.3, 3.0, n)}
    return (example3_surface(), [parse(EX3_POT + extra, SP3)], grid,
            {"tau_window": (-24.0, 0.99), "initial_guess": mixed_guess(grid)},
            {"m": 1.0, "k": 1.0}, SP3)


def ex2_scalar_case():
    # a curve with two components: u = ((s/2)^2, s)
    space = VarSpace((), ("u1", "u2"))
    surf = integrate_characteristic((parse("-sqrt(u1)", space), Const(1)),
                                    [2.6 ** 2 / 4.0, -2.6],
                                    (-2.6, -0.03), step=0.003, space=SP2)
    rng = np.random.default_rng(9)
    n = 120
    grid = {"t": rng.uniform(1.0, 3.0, n), "x": rng.uniform(1, 3, n),
            "y": rng.uniform(0.2, 0.9, n)}
    return (surf, [parse("t + ln(|y|)/sqrt(u1)", SP2)], grid,
            {"initial_guess": mixed_guess(grid)}, {}, SP2)


def ex3_all_roots_case():
    # x y > 1 gives every lane a root below 0 and one above, so under
    # ``lowest`` every lane has its cell before the scan's last column
    surf, pots, grid, settings, params, space = ex3_scalar_case()
    rng = np.random.default_rng(10)
    n = len(grid["t"])
    grid = dict(grid, x=rng.uniform(1.2, 3.0, n), y=rng.uniform(1.2, 3.0, n))
    settings = dict(settings, initial_guess=mixed_guess(grid))
    return surf, pots, grid, settings, params, space


SCALAR_CASES = {
    "example3, two roots or none": ex3_scalar_case,
    "all roots: example3 with x y > 1": ex3_all_roots_case,
    "example3, NaN below u = -6": lambda: ex3_scalar_case("+0.5*sqrt(u+6)"),
    "example2 curve, q = 2": ex2_scalar_case,
}


@pytest.mark.parametrize("root_select", ["lowest", "highest", "nearest"])
@pytest.mark.parametrize("case", SCALAR_CASES)
def test_scalar_solve_matches_matrix_scan_bitwise(case, root_select):
    surf, pots, grid, settings, params, space = SCALAR_CASES[case]()
    cfg = ImplicitSolveConfig(root_select=root_select, **settings)
    tau, iters, conv = reference_solve_scalar(surf, pots, grid, cfg, params,
                                              space)
    if case.startswith("example3"):
        assert 0 < conv.sum() < conv.size        # some lanes have no root
    if case.startswith("all roots"):
        assert conv.all()
    field = solve_implicit(surf, pots, grid, cfg, params=params, space=space)
    assert_bitwise(field.tau, tau)
    assert np.array_equal(field.iters, iters)
    assert np.array_equal(field.converged, conv)
    assert_bitwise(field.u, surf.value(tau))


@pytest.mark.parametrize("root_select", ["lowest", "highest", "nearest"])
@pytest.mark.parametrize("case", SCALAR_CASES)
def test_bounded_scalar_solve_matches_matrix_scan_bitwise(case, root_select,
                                                          monkeypatch):
    # the cases above at calls of 1 024 lane-columns, where their 120 or
    # 150 lanes take the scan's bound
    monkeypatch.setattr(solver, "_SCAN_BLOCK", 1024)
    test_scalar_solve_matches_matrix_scan_bitwise(case, root_select)


@pytest.mark.parametrize("root_select", ["lowest", "highest", "nearest"])
def test_scalar_scan_skips_cells_with_an_infinite_end_bitwise(root_select,
                                                               monkeypatch):
    # G = w - u + c (u - r1)(u - r2)(u - r3) has up to three roots per
    # lane, and phi is -inf or +inf where u hits a lane's pole exactly,
    # which happens at one scan point per lane; blocks of 1, 2, 7 and the
    # default number of columns put sign changes and poles on their ends
    surf = example3_surface()
    cfg = ImplicitSolveConfig(tau_window=(-24.0, 0.99),
                              root_select=root_select)
    rng = np.random.default_rng(12)
    n = 80
    ws = np.linspace(-24.0, 0.99, solver._SCAN_POINTS)
    pole = surf.value(ws[:, None])[rng.integers(1, len(ws) - 1, n), 0]
    roots = np.sort(rng.uniform(-24.0, 0.99, (3, n)), axis=0)
    c = rng.choice([-1.0, 1.0], n) * rng.uniform(0.01, 0.1, n)
    side = rng.choice([-np.inf, np.inf], n)

    def phi_lanes(u, lanes):
        cubic = c[lanes] * ((u - roots[0, lanes]) * (u - roots[1, lanes])
                            * (u - roots[2, lanes]))
        return np.where(u == pole[lanes], side[lanes], u - cubic)

    class Cubic:
        """A stand-in bound potential at the lanes ``lanes``; u is per
        lane, or a block of scan columns (B, 1)."""

        def __init__(self, lanes=slice(None)):
            self.lanes = lanes

        def value(self, u_env):
            return phi_lanes(u_env["u"], self.lanes)

        def rows(self, rows):
            return Cubic(rows)

        def scan_bound(self, u_env, edges):
            return None

    tau0 = rng.uniform(-24.0, 0.99, n)
    tau0[::9] = np.nan
    tau0[1::9] = np.inf
    tau, iters, conv = reference_scan_solve(
        surf, lambda t: phi_lanes(surf.value(t)[:, 0], slice(None)), tau0,
        cfg, n)
    for block in (n, 2 * n, 7 * n, solver._SCAN_BLOCK):
        monkeypatch.setattr(solver, "_SCAN_BLOCK", block)
        got = solver._solve_scalar(surf, [Cubic()], tau0[:, None], cfg)
        assert_bitwise(got[0], tau)
        assert np.array_equal(got[1], iters)
        assert np.array_equal(got[2], conv)


def test_scalar_solve_evaluates_curve_once_per_scan_point():
    # the scan evaluates the curve at each scan point once, and the
    # bisection only on the lanes with a root, whether it looks the cells
    # up (``value``) or is given them (``at``)
    class Count:
        def __init__(self, surface):
            self._surface, self.points = surface, 0

        def __getattr__(self, name):
            return getattr(self._surface, name)

        def value(self, tau):
            self.points += len(tau)
            return self._surface.value(tau)

        def at(self, cells, tau):
            self.points += len(tau)
            return self._surface.at(cells, tau)

    surf, pots, grid, settings, params, space = ex3_scalar_case()
    counted = Count(surf)
    cfg = ImplicitSolveConfig(root_select="lowest", **settings)
    field = solve_implicit(counted, pots, grid, cfg, params=params,
                           space=space)
    assert not field.converged.all()
    # scan points, bisection steps, then u at every lane's final tau
    assert counted.points == solver._SCAN_POINTS + field.iters.sum() + field.n


def knot_scan_case():
    # a curve whose 257 knots are dyadic, so that the scan points of its
    # full window are its knots bit for bit; lanes with t = 0 have G = tau
    # - x, zero at the knot x
    space = VarSpace((), ("u",))
    prov = solver.SurfaceProvenance((0.0,), (0.0,))
    s = np.linspace(-4.0, 4.0, 257)
    surf = solver.Surface1D(s, (0.5 * s + 0.25 * np.sin(3.0 * s))[:, None],
                            space, ("s",), prov)
    rng = np.random.default_rng(14)
    n = 120
    grid = {"t": rng.uniform(-1.0, 3.0, n), "x": rng.uniform(-3.0, 3.0, n),
            "y": np.zeros(n)}
    grid["t"][:23] = 0.0
    grid["x"][:23] = [*rng.choice(s[1:-1], 20), -4.0, 4.0, s[-2]]
    return (surf, [parse("x + t*u", SP3)], grid,
            {"initial_guess": mixed_guess(grid)}, {"m": 1.0, "k": 1.0}, SP3)


@pytest.mark.parametrize("root_select", ["lowest", "highest", "nearest"])
@pytest.mark.parametrize("points", [solver._SCAN_POINTS, 33, 9])
def test_scalar_solve_on_knot_scan_points_matches_matrix_scan_bitwise(
        root_select, points, monkeypatch):
    # at 257 points every bracket is one spline cell between two knots; at
    # 33 and 9 it spans 8 and 32 cells, so the first bisection steps look
    # the midpoints' cells up (the fallback of _mid_cell)
    monkeypatch.setattr(solver, "_SCAN_POINTS", points)
    surf, pots, grid, settings, params, space = knot_scan_case()
    assert_bitwise(np.linspace(-4.0, 4.0, points),
                   surf.s_grid[::256 // (points - 1)])
    spans = []
    mid_cell = solver._mid_cell

    def recording(ends, cell, ia, b, mid, wide):
        spans.append(int((cell(b) - ia).max()))
        return mid_cell(ends, cell, ia, b, mid, wide)

    monkeypatch.setattr(solver, "_mid_cell", recording)
    cfg = ImplicitSolveConfig(root_select=root_select, **settings)
    tau, iters, conv = reference_solve_scalar(surf, pots, grid, cfg, params,
                                              space)
    assert conv[:23].all() and not conv.all()
    field = solve_implicit(surf, pots, grid, cfg, params=params, space=space)
    assert_bitwise(field.tau, tau)
    assert np.array_equal(field.iters, iters)
    assert np.array_equal(field.converged, conv)
    assert max(spans) == 256 // (points - 1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 30))
def test_carried_cell_gives_the_bits_of_a_search_at_every_midpoint(seed, n):
    # brackets over one, two, three or more cells, some with an end on a
    # knot; lanes that always keep one end run their midpoints onto it
    rng = np.random.default_rng(seed)
    x = uneven_grid(rng, -1.0, 2.0, n)
    sp = Spline1D(x, rng.normal(size=(n, 2)))
    m = 300
    lo = rng.integers(0, n - 1, m)
    hi = np.minimum(lo + rng.integers(0, 4, m), n - 2)
    a = x[lo] + rng.random(m) * (x[lo + 1] - x[lo])
    b = x[hi] + rng.random(m) * (x[hi + 1] - x[hi])
    a, b = np.minimum(a, b), np.maximum(a, b)
    on = rng.random((2, m)) < 0.4
    a, b = np.where(on[0], x[lo], a), np.where(on[1], x[hi + 1], b)
    ia = sp.cell(a)
    assert set(np.minimum(sp.cell(b) - ia, 2)) == {0, 1, 2}
    ends = np.append(x[1:-1], (np.inf, np.inf))
    keep_left = rng.choice([0.0, 0.5, 1.0], m)
    wide = True
    for _ in range(70):
        mid = 0.5 * (a + b)
        im, wide = solver._mid_cell(ends, sp.cell, ia, b, mid, wide)
        assert_bitwise(sp.at(im, mid), sp(mid))
        assert_bitwise(sp.at(im, mid, grad=True)[1], sp(mid, grad=True)[1])
        left = rng.random(m) < keep_left
        b = np.where(left, mid, b)
        a, ia = np.where(left, a, mid), np.where(left, ia, im)
    # some lanes kept an end on a knot, below and above, and after 70
    # halvings their midpoints are on it
    assert np.isin(a[keep_left == 1.0], x).any()
    assert np.isin(b[keep_left == 0.0], x).any()


@pytest.mark.parametrize("root_select", ["lowest", "highest", "nearest"])
def test_lowest_scan_ends_once_every_lane_has_its_cell(root_select,
                                                       monkeypatch):
    # ``lowest`` reads only a lane's first sign change, so the scan ends
    # after the block of B columns in which every lane has one; the other
    # rules read every column
    surf, pots, grid, settings, params, space = ex3_all_roots_case()
    env_x, n = solver._env_from_grid(space.independent, grid, params)
    bound = solver.PotentialFn(pots[0], space).bind(env_x)
    cfg = ImplicitSolveConfig(root_select=root_select, **settings)
    tau0 = settings["initial_guess"][:, None]
    # the column at which the last lane has its first sign change
    (lo, hi), (wlo, whi) = surf.tau_ranges[0], settings["tau_window"]
    ws = np.linspace(max(lo, wlo), min(hi, whi), solver._SCAN_POINTS)
    us = surf.value(ws[:, None])
    g = np.stack([w - bound.value({"u": us[j, 0]}) for j, w in enumerate(ws)],
                 axis=1)
    last = scan_flips(g).argmax(axis=1).max() + 1
    for size in (1, 3, 8):
        monkeypatch.setattr(solver, "_SCAN_BLOCK", size * n)
        columns = []

        class Recording:
            """The bound potential, recording the scan columns it sees."""

            def value(self, u_env):
                u = u_env["u"]
                assert u.shape[1:] == (1,) and len(u) <= size
                columns.extend(u[:, 0])
                return bound.value(u_env)

            def rows(self, rows):
                return bound.rows(rows)

            def scan_bound(self, u_env, edges):
                return None

        conv = solver._solve_scalar(surf, [Recording()], tau0, cfg)[2]
        assert conv.all()
        assert_bitwise(np.array(columns), us[:len(columns), 0])
        if root_select == "lowest":
            assert last < len(columns) <= last + size < solver._SCAN_POINTS
        else:
            assert len(columns) == solver._SCAN_POINTS


def test_bisection_slices_the_bound_potentials_once(monkeypatch):
    # the bisection's row set is fixed, so its bound arrays are sliced once
    # for the whole loop, not at every step
    sliced = []
    rows = solver.BoundPotential.rows

    def counting(self, r):
        sliced.append(len(r))
        return rows(self, r)

    monkeypatch.setattr(solver.BoundPotential, "rows", counting)
    surf, pots, grid, settings, params, space = ex3_scalar_case()
    cfg = ImplicitSolveConfig(root_select="lowest", **settings)
    field = solve_implicit(surf, pots, grid, cfg, params=params, space=space)
    assert field.iters.max() > 40
    assert sliced == [field.converged.sum()]


def test_scalar_solve_root_selection_differs_between_rules():
    # the bitwise cases above exercise three different picks
    surf, pots, grid, settings, params, space = ex3_scalar_case()
    taus = [solve_implicit(surf, pots, grid,
                           ImplicitSolveConfig(root_select=rule, **settings),
                           params=params, space=space).tau
            for rule in ("lowest", "highest", "nearest")]
    assert not np.array_equal(taus[0], taus[1], equal_nan=True)
    assert not np.array_equal(taus[2], taus[0], equal_nan=True)
    assert not np.array_equal(taus[2], taus[1], equal_nan=True)


def test_scalar_solve_memory_linear_in_lanes():
    # the (n, scan points) matrices took about 6.4 KB per lane
    import tracemalloc

    surf, pots, _, _, params, space = ex3_scalar_case()
    n = 3000
    rng = np.random.default_rng(1)
    grid = {"t": rng.uniform(0.1, 1.0, n), "x": rng.uniform(1, 3, n),
            "y": rng.uniform(1, 3, n)}
    cfg = ImplicitSolveConfig(initial_guess=np.array([-2.0]),
                              tau_window=(-24.0, -0.3), root_select="nearest")
    solve_implicit(surf, pots, grid, cfg, params=params, space=space)
    tracemalloc.start()
    try:
        field = solve_implicit(surf, pots, grid, cfg, params=params,
                               space=space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.converged.all()
    assert peak < 1024 * n


# ---------------------------------------------------------------------------
# the bounded scan: the scan skips a block of cells at the lanes where a
# rounded-interval bound proves G of one strict sign, finite, at every
# point; every other cell is offered with the same G, so the solve keeps
# the bits of the matrix scan

ROW_ATOMS = ("u", "sin(u)", "exp(u)", "u^2", "ln(|u|)", "sqrt(u)", "1/u")
LANE_ATOMS = ("x", "t", "y", "m", "ln(|y|)", "exp(x)", "cos(t)", "2", "0.5")


def bound_phi_strategy(max_leaves=8):
    # leaves that read only u, with transcendentals, NaN below u = 0 and
    # infinities at u = 0, or no u; nodes over them that a bound covers,
    # and now and then one it does not
    leaves = st.sampled_from([parse(a, SP3) for a in ROW_ATOMS + LANE_ATOMS])

    def extend(kids):
        binary = st.tuples(st.sampled_from("+-*/"), kids, kids).map(
            lambda a: Bin(*a))
        unary = st.tuples(st.sampled_from(["neg", "abs", "sqrt"]), kids).map(
            lambda a: Call(*a))
        other = st.one_of(
            st.tuples(st.sampled_from(["exp", "sin", "ln"]), kids).map(
                lambda a: Call(*a)),
            kids.map(lambda k: Bin("^", k, Const(2))))
        return st.one_of(binary, binary, unary, other)

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def bound_scan_lanes(seed, n=30):
    # the knot curve of knot_scan_case, whose scan points are its knots;
    # lanes with t = 0 have G = w - x for phi = x + t*q, zero at the knot
    # x, four of them on a block's end; a NaN and an infinite x
    surf = knot_scan_case()[0]
    rng = np.random.default_rng(seed)
    s = surf.s_grid
    grid = {"t": rng.uniform(-0.5, 0.5, n), "x": rng.uniform(-3.5, 3.5, n),
            "y": rng.uniform(0.2, 3.0, n)}
    grid["t"][:8] = 0.0
    grid["x"][:8] = [*rng.choice(s[16:-1:16], 4), *rng.choice(s[1:-1], 4)]
    grid["x"][8:10] = [np.nan, np.inf]
    grid["y"][10] = 0.0
    return surf, grid, {"m": 1.3, "k": 0.7}


@settings(max_examples=100, deadline=None)
@given(phi=bound_phi_strategy(), seed=st.integers(0, 2 ** 32 - 1))
@example(phi=parse("sin(u)*(x*u) - u^2*(y - u)", SP3), seed=1)
@example(phi=parse("(x*u)*(t - u) + (u^2 + 1)/(x*u)", SP3), seed=2)
@example(phi=parse("sqrt(abs(x*u)) - abs(t - u) - m*u", SP3), seed=3)
def test_scan_bound_holds_every_kernel_value(phi, seed):
    # on random blocks: phi and G = w - phi as the value kernel computes
    # them lie in the block's bounds at every point, and a proven block has
    # G finite and of one strict sign, so a block with a zero, NaN or
    # infinite G is never proven
    surf, grid, params = bound_scan_lanes(seed)
    rng = np.random.default_rng(seed)
    env, n = solver._env_from_grid(SP3.independent, grid, params)
    bound = solver.PotentialFn(phi, SP3).bind(env)
    ws, dep = surf.s_grid, SP3.dependent
    us = surf.value(ws)
    edges = sorted({0, 256, *rng.integers(1, 256, rng.integers(0, 20))})
    plan = bound.scan_bound(solver._u_env(dep, us), edges)
    if plan is None:
        return
    with np.errstate(all="ignore"):
        for b, (s, e) in enumerate(zip(edges[:-1], edges[1:])):
            phi = bound.value(solver._u_env(dep, us[s:e + 1, None]))
            g = ws[s:e + 1, None] - phi
            lo, hi = plan.phi(b)
            g_lo, g_hi = ws[s] - np.asarray(hi), ws[e] - np.asarray(lo)
            for v, v_lo, v_hi in ((phi, lo, hi), (g, g_lo, g_hi)):
                assert ((v_lo <= v) & (v <= v_hi) | np.isnan(v)
                        | np.isnan(v_lo) | np.isnan(v_hi)).all()
            sure = plan.proven(b, ws[s], ws[e])
            assert sure.shape == (n,)
            assert np.isfinite(g[:, sure]).all()
            assert ((g > 0).all(axis=0) | (g < 0).all(axis=0))[sure].all()


def test_scan_bound_widens_each_leaf_by_one_ulp():
    # a row-only phi is bounded by the extremes of its values at a block's
    # points, and a lane-only one by its value at the lane, each moved one
    # ulp outward
    surf, grid, params = bound_scan_lanes(3)
    env, n = solver._env_from_grid(SP3.independent, grid, params)
    ws, dep = surf.s_grid, SP3.dependent
    us = surf.value(ws)
    for text in ("sin(u)*u + exp(u)", "m*exp(t) - ln(|y|)"):
        bound = solver.PotentialFn(parse(text, SP3), SP3).bind(env)
        plan = bound.scan_bound(solver._u_env(dep, us), [0, 16, 40, 256])
        for b, (s, e) in enumerate([(0, 16), (16, 40), (40, 256)]):
            with np.errstate(all="ignore"):
                phi = bound.value(solver._u_env(dep, us[s:e + 1, None]))
            lo, hi = plan.phi(b)
            assert_bitwise(np.broadcast_to(lo, (n,)),
                           np.nextafter(phi.min(axis=0), -np.inf))
            assert_bitwise(np.broadcast_to(hi, (n,)),
                           np.nextafter(phi.max(axis=0), np.inf))


@pytest.mark.parametrize("root_select", ["lowest", "highest", "nearest"])
@settings(max_examples=25, deadline=None)
@given(q=bound_phi_strategy(max_leaves=6), seed=st.integers(0, 2 ** 32 - 1),
       block=st.sampled_from([64, 256]))
@example(q=parse("exp(x*u)", SP3), seed=1, block=64)           # no bound
@example(q=parse("u*m + u^2*k", SP3), seed=2, block=64)
def test_bounded_scan_matches_matrix_scan_bitwise(root_select, q, seed,
                                                  block):
    # phi = x + t*q: roots on block ends, G exactly 0 at a scan point,
    # lanes whose G is NaN or infinite, and potentials with and without a
    # bound; 30 lanes take a bound at calls of 64 or 256 lane-columns,
    # which evaluate 2 or 8 points of a 16-cell block a call
    surf, grid, params = bound_scan_lanes(seed)
    phi = Bin("+", parse("x", SP3), Bin("*", parse("t", SP3), q))
    cfg = ImplicitSolveConfig(root_select=root_select,
                              initial_guess=mixed_guess(grid))
    tau, iters, conv = reference_solve_scalar(surf, [phi], grid, cfg, params,
                                              SP3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_SCAN_BLOCK", block)
        if not conv.any():
            with pytest.raises(SolveFailed):
                solve_implicit(surf, [phi], grid, cfg, params=params,
                               space=SP3)
            return
        field = solve_implicit(surf, [phi], grid, cfg, params=params,
                               space=SP3)
    assert_bitwise(field.tau, tau)
    assert np.array_equal(field.iters, iters)
    assert np.array_equal(field.converged, conv)


@pytest.mark.parametrize("root_select", ["lowest", "highest", "nearest"])
def test_quadrature_potential_scans_without_a_bound_bitwise(root_select):
    space = VarSpace(("x1", "x2"), ("u",), ("c",))
    lam = (parse("c*x2^2 + u", space), parse("2*c*x1*x2", space))
    pot = geometry.NumericPotential(lam, space, {"x1": 0.2, "x2": 0.2})
    surf = knot_scan_case()[0]
    rng = np.random.default_rng(15)
    n = 24
    grid = {"x1": rng.uniform(-1.5, 1.5, n), "x2": rng.uniform(-1.5, 1.5, n)}
    env, _ = solver._env_from_grid(space.independent, grid, {"c": 1.3})
    bound = solver.PotentialFn(pot, space).bind(env)
    assert bound.scan_bound({"u": surf.s_grid}, [0, 256]) is None
    cfg = ImplicitSolveConfig(root_select=root_select,
                              initial_guess=rng.uniform(-4.0, 4.0, n))

    def phi(tau):
        return pot.evaluate({**env, "u": surf.value(tau)[:, 0]})

    tau, iters, conv = reference_scan_solve(surf, phi,
                                            cfg.initial_guess, cfg, n)
    assert 0 < conv.sum()
    field = solve_implicit(surf, [pot], grid, cfg, params={"c": 1.3},
                           space=space)
    assert_bitwise(field.tau, tau)
    assert np.array_equal(field.iters, iters)
    assert np.array_equal(field.converged, conv)


@pytest.mark.parametrize("block", [solver._SCAN_BLOCK, 1024])
def test_example3_scan_evaluates_few_blocks(block, monkeypatch):
    # the preset's potential has a bound, which 150 lanes take at calls of
    # 1 024 lane-columns but not of 8 192; with it most of the scan's
    # (block, lane) pairs are proven, and under ``lowest`` no lane is
    # evaluated at more than a few blocks
    monkeypatch.setattr(solver, "_SCAN_BLOCK", block)
    surf, pots, grid, settings, params, space = ex3_all_roots_case()
    calls = []
    value_rows = solver.BoundPotential.value_rows

    def counting(self, rows):
        calls.append(len(rows))
        return value_rows(self, rows)

    cfg = ImplicitSolveConfig(root_select="lowest", **settings)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver.BoundPotential, "value_rows", counting)
        field = solve_implicit(surf, pots, grid, cfg, params=params,
                               space=space)
    assert field.converged.all()
    if field.n * solver._BOUND_CELLS > block:
        assert 0 < sum(calls) < 4 * field.n
    else:
        assert not calls


# ---------------------------------------------------------------------------
# PotentialFn: separate value and derivative kernels, with per-lane or 0-d u

FIXTURE_POTENTIALS = [(SP2, "t - ln(|y|)/sqrt(u1)"),
                      (SP2, "t + ln(|y|)/sqrt(u1)"),
                      (SP3, EX3_POT)]


@pytest.mark.parametrize("shared_u", [False, True], ids=["per-lane u", "0-d u"])
@pytest.mark.parametrize("space,text", FIXTURE_POTENTIALS)
def test_potential_fn_value_and_du_kernels_bitwise(space, text, shared_u):
    rng = np.random.default_rng(6)
    n = 13
    phi = parse(text, space)
    env = {name: rng.uniform(1.0, 3.0, n) for name in space.independent}
    env.update({name: np.full(n, 1.0) for name in space.parameters})
    u = {name: rng.uniform(0.3, 2.0, n) for name in space.dependent}
    if shared_u:
        u = {name: v[0] for name, v in u.items()}    # numpy 0-d scalars
    env.update(u)
    pot = solver.PotentialFn(phi, space)
    assert_bitwise(pot.bind(env).value(env), np.broadcast_to(np.asarray(
        phi.evaluate(env, strict=False), dtype=float), (n,)))
    want_du = np.stack([np.broadcast_to(np.asarray(
        simplify(phi.diff(nm)).evaluate(env, strict=False), dtype=float), (n,))
        for nm in space.dependent], axis=1)
    assert_bitwise(pot.bind(env).du(env), want_du)
    if shared_u:
        # a shared u gives the bits of the same u spread over every lane
        full = dict(env, **{name: np.full(n, v) for name, v in u.items()})
        assert_bitwise(pot.bind(env).value(env), pot.bind(full).value(full))
        assert_bitwise(pot.bind(env).du(env), pot.bind(full).du(full))


def test_potential_fn_numeric_lanes():
    # d_x(x1*x2^2) needs the quadrature potential; every lane is integrated
    # in one pass and gets the bits it gets alone
    space = VarSpace(("x1", "x2"), ("u",))
    box = Box.from_dict({"x1": (0.2, 1.0), "x2": (0.2, 1.0), "u": (0.5, 1)})
    lam = (parse("x2^2", space), parse("2*x1*x2", space))
    res = find_potential(WaveElement(space, lam, (Const(1),)),
                         {"x1": 0.2, "x2": 0.2}, box, rng=18)
    assert not isinstance(res.phi, Expr)
    pot = solver.PotentialFn(res.phi, space)
    rng = np.random.default_rng(4)
    n = 50
    env = {"x1": rng.uniform(0.2, 1.0, n), "x2": rng.uniform(0.2, 1.0, n),
           "u": rng.uniform(0.5, 1.0, n)}
    val = pot.bind(env).value(env)
    assert val.shape == (n,)
    assert np.max(np.abs(val - (env["x1"] * env["x2"] ** 2 - 0.008))) < 1e-12
    for i in range(n):
        point = {k: float(v[i]) for k, v in env.items()}
        alone = pot.bind(point).value(point)
        assert_bitwise(alone, val[i:i + 1])
    du = pot.bind(env).du(env)
    assert du.shape == (n, 1) and np.all(np.isfinite(du))
    # a block of B values of u broadcasts over the lanes
    bound = pot.bind(env)
    block = rng.uniform(0.5, 1.0, (3, 1))
    got = bound.value({"u": block})
    assert got.shape == (3, n)
    for b in range(3):
        assert_bitwise(got[b], bound.value({"u": block[b, 0]}))
    res.phi.check_paths({"x1": 0.7, "x2": 0.9, "u": 0.6})
    res.phi.check_paths(env)


@pytest.mark.parametrize("text", ["t + m*ln(|x|)", "u^2*k", "2*u"],
                         ids=["u-free", "u and a parameter", "u only"])
def test_potential_fn_binding_keeps_every_lane(text):
    # a phi with no u-free part, or no u at all, still gives n lanes, from
    # a bind over every lane and from a row subset of it
    rng = np.random.default_rng(3)
    n = 9
    env = {"t": rng.uniform(0.1, 1, n), "x": rng.uniform(1, 3, n),
           "y": rng.uniform(1, 3, n), "m": np.full(n, 1.0),
           "k": np.full(n, 1.0)}
    phi = parse(text, SP3)
    pot = solver.PotentialFn(phi, SP3)
    rows = np.array([1, 4, 8])
    for u in (np.float64(0.7), rng.uniform(-2, 0, n)):
        full = dict(env, u=u)
        want = np.broadcast_to(np.asarray(phi.evaluate(full, strict=False),
                                          dtype=float), (n,))
        assert_bitwise(pot.bind(full).value(full), want)
        assert pot.bind(full).du(full).shape == (n, 1)
        bound = pot.bind(env).rows(rows)
        u_rows = {"u": u[rows] if np.ndim(u) else u}
        assert_bitwise(bound.value(u_rows), want[rows])
        assert bound.du(u_rows).shape == (len(rows), 1)
    # a block of B values of u gives (B, lanes), row b that of u_b alone
    block = rng.uniform(-2, 0, (4, 1))
    for bound in (pot.bind(env), pot.bind(env).rows(rows)):
        got = bound.value({"u": block})
        assert got.shape == (4, bound.value({"u": block[0, 0]}).shape[0])
        for b in range(4):
            assert_bitwise(got[b], bound.value({"u": block[b, 0]}))


def test_grid_parameters_bind_0d_with_the_bits_of_per_lane_values():
    # the solver's env holds each parameter as one 0-d value; a bound
    # potential gives the bits it gives with the parameter spread over
    # every lane: whole, at a row subset and for a block of u, symbolic
    # and quadrature alike
    rng = np.random.default_rng(12)
    n = 40
    rows = np.array([0, 5, 17, 39])
    block = {"u": rng.uniform(-2, 0, (5, 1))}
    cases = [(SP3, parse("t + exp(m)*ln(|x|) - u^2*k/sqrt(m)", SP3),
              {"m": 1.37, "k": 0.61})]
    space = VarSpace(("x1", "x2"), ("u",), ("c",))
    lam = (parse("c*x2^2", space), parse("2*c*x1*x2", space))
    cases.append((space, geometry.NumericPotential(
        lam, space, {"x1": 0.2, "x2": 0.2}), {"c": 1.3}))
    for space, phi, params in cases:
        grid = {name: rng.uniform(0.5, 2.0, n) for name in space.independent}
        env, got_n = solver._env_from_grid(space.independent, grid, params)
        assert got_n == n and all(np.shape(env[p]) == () for p in params)
        spread = dict(env, **{p: np.full(n, v) for p, v in params.items()})
        pot = solver.PotentialFn(phi, space)
        for u in ({"u": np.float64(-0.7)}, block):
            assert_bitwise(pot.bind(env).value(u), pot.bind(spread).value(u))
            assert_bitwise(pot.bind(env).rows(rows).value(u),
                           pot.bind(spread).rows(rows).value(u))
        assert_bitwise(pot.bind(env).rows(rows).du({"u": np.float64(-0.7)}),
                       pot.bind(spread).rows(rows).du({"u": np.float64(-0.7)}))


@pytest.mark.parametrize("missing", ["x", "m", "u"])
def test_potential_fn_missing_variable_raises(missing):
    # an early name raises at the bind, a late one at the call, with the
    # message an unstaged kernel gives
    pot = solver.PotentialFn(parse(EX3_POT, SP3), SP3)
    env = {name: np.ones(4) for name in ("t", "x", "y", "m", "k", "u")}
    del env[missing]
    message = f"^no value assigned for '{missing}'$"
    with pytest.raises(MissingVariableError, match=message):
        pot.bind(env).value(env)
    with pytest.raises(MissingVariableError, match=message):
        pot.bind(env).du(env)


# ---------------------------------------------------------------------------
# not-a-knot cubic splines

def uneven_grid(rng, lo, hi, n):
    """n increasing nodes from lo to hi, each inner one moved by up to a
    quarter of the spacing."""
    x = np.linspace(lo, hi, n)
    x[1:-1] += rng.uniform(-0.25, 0.25, n - 2) * (hi - lo) / (n - 1)
    return x


def cubic(coef, x, nu=0):
    """sum_a coef[a] x^a, or its first derivative."""
    if nu:
        return sum(a * c * x ** (a - 1) for a, c in enumerate(coef) if a)
    return sum(c * x ** a for a, c in enumerate(coef))


def test_spline_1d_reproduces_cubics():
    rng = np.random.default_rng(0)
    x = uneven_grid(rng, -1.0, 2.0, 23)
    coefs = [(0.5, -1.0, 2.0, 0.75), (1.0, 0.0, -0.5, 0.0)]
    y = np.stack([cubic(c, x) for c in coefs], axis=1)
    sp = Spline1D(x, y)
    assert_bitwise(sp(x[:-1]), y[:-1])       # t = 0 at every lower node
    assert np.max(np.abs(sp(x[-1:]) - y[-1:])) < 1e-12
    # inside the grid, and beyond it, where the end cubics extrapolate
    s = np.concatenate([rng.uniform(-1.0, 2.0, 200), [-3.0, -1.5, 2.5, 4.0]])
    val, der = sp(s, grad=True)
    for j, c in enumerate(coefs):
        assert np.max(np.abs(val[:, j] - cubic(c, s))) < 1e-11
        assert np.max(np.abs(der[:, j] - cubic(c, s, nu=1))) < 1e-11


@pytest.mark.parametrize("a", range(4))
@pytest.mark.parametrize("b", range(4))
def test_spline_2d_reproduces_bicubic_products(a, b):
    rng = np.random.default_rng(10 * a + b)
    x1 = uneven_grid(rng, 0.5, 2.0, 9)
    x2 = uneven_grid(rng, -1.0, 1.5, 12)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    z = np.stack([X1 ** a * X2 ** b, 2.0 - X1 ** a * X2 ** b], axis=2)
    sp = Spline2D(x1, x2, z)
    N1, N2 = np.meshgrid(x1[:-1], x2[:-1], indexing="ij")
    assert_bitwise(sp(N1.ravel(), N2.ravel()), z[:-1, :-1].reshape(-1, 2))
    val = sp(X1.ravel(), X2.ravel())
    assert np.max(np.abs(val - z.reshape(-1, 2))) < 1e-12
    s1, s2 = rng.uniform(0.5, 2.0, 300), rng.uniform(-1.0, 1.5, 300)
    val, d1, d2 = sp(s1, s2, grad=True)
    f = s1 ** a * s2 ** b
    f1 = a * s1 ** max(a - 1, 0) * s2 ** b
    f2 = b * s1 ** a * s2 ** max(b - 1, 0)
    assert np.max(np.abs(val - np.stack([f, 2.0 - f], axis=1))) < 1e-12
    assert np.max(np.abs(d1 - np.stack([f1, -f1], axis=1))) < 1e-11
    assert np.max(np.abs(d2 - np.stack([f2, -f2], axis=1))) < 1e-11


def test_spline_edges_clamp_extrapolate_and_nan():
    rng = np.random.default_rng(2)
    x1, x2 = np.linspace(0.0, 1.0, 7), np.linspace(-1.0, 1.0, 6)
    sp2 = Spline2D(x1, x2, rng.normal(size=(7, 6, 2)))
    s1 = np.array([-0.5, 1.5, -np.inf, np.inf, 0.3, 0.3, np.nan, 0.3])
    s2 = np.array([0.2, 0.2, 0.4, -0.4, -7.0, np.inf, 0.1, np.nan])
    clamped1 = np.array([0.0, 1.0, 0.0, 1.0, 0.3, 0.3, np.nan, 0.3])
    clamped2 = np.array([0.2, 0.2, 0.4, -0.4, -1.0, 1.0, 0.1, np.nan])
    got = sp2(s1, s2, grad=True)
    want = sp2(clamped1, clamped2, grad=True)
    for g, w in zip(got, want):
        assert_bitwise(g, w)
        assert np.all(np.isfinite(g[:6])) and np.all(np.isnan(g[6:]))

    # beyond the grid, the end cells' cubics go on; they are not clamped
    x = np.linspace(0.0, 1.0, 9)
    sp1 = Spline1D(x, np.exp(x)[:, None])
    val = sp1(np.array([-0.5, 1.7, np.nan]))
    assert val[0, 0] == pytest.approx(cubic(sp1.c[0, :, 0], -0.5), rel=1e-14)
    assert val[1, 0] == pytest.approx(cubic(sp1.c[-1, :, 0], 1.7 - x[-2]),
                                      rel=1e-14)
    assert val[1, 0] == pytest.approx(np.exp(1.7), rel=0.02)   # not e
    assert np.isnan(val[2, 0])


def test_spline_needs_four_points_per_axis():
    x = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        Spline1D(x, x[:, None])
    with pytest.raises(ValueError):
        Spline2D(x, np.linspace(0, 1, 5), np.zeros((3, 5, 1)))
    with pytest.raises(ValueError):
        Spline2D(np.linspace(0, 1, 5), x, np.zeros((5, 3, 1)))
    Spline1D(np.linspace(0, 1, 4), np.zeros((4, 1)))
    space = VarSpace((), ("u",))
    prov = solver.SurfaceProvenance((0.0,), (0.0,))
    with pytest.raises(ValueError):
        solver.Surface1D(x, x[:, None], space, ("s",), prov)


def lane_surfaces():
    rng = np.random.default_rng(5)
    space = VarSpace((), ("u1", "u2"))
    prov = solver.SurfaceProvenance((0.0, 0.0), (0.0, 0.0))
    s1, s2 = np.linspace(0.0, 2.0, 17), np.linspace(-1.0, 1.0, 13)
    sheet = Surface2D([[1.0, 0.3], [0.7, -1.1]], s1, s2,
                      rng.normal(size=(17, 13, 2)), space, ("tau1", "tau2"),
                      prov)
    curve = solver.Surface1D(s1, rng.normal(size=(17, 2)), space, ("s",), prov)
    return sheet, curve


LANE_SURFACES = lane_surfaces()
LANE_COORD = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(
    [0.0, -0.0, 2.0, -1.0, np.inf, -np.inf, np.nan]))
# invertible and not orthogonal: the change of coordinates mixes both
# components of every lane
LANE_AXES = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).map(
    lambda a: np.reshape(a, (2, 2))).filter(
    lambda a: abs(np.linalg.det(a)) > 0.1 and abs(a[:, 0] @ a[:, 1]) > 0.01)


@settings(max_examples=80, deadline=None)
@given(points=st.lists(st.tuples(LANE_COORD, LANE_COORD), min_size=1,
                       max_size=40),
       axes=LANE_AXES, data=st.data())
def test_spline_lanes_are_independent_bitwise(points, axes, data):
    # a lane's coordinates, clip, value and Jacobian do not depend on which
    # other lanes share the call, a lone lane included (numpy rounds a
    # one-row product otherwise, so the surface pads it): no product runs
    # across lanes (the lane contract, README)
    tau = np.array(points, dtype=float)
    n = len(tau)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=n)),
                    dtype=int)
    few = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                      max_size=9)), dtype=int)
    sheet, curve = LANE_SURFACES
    sheet = Surface2D(axes, sheet.s1_grid, sheet.s2_grid, sheet.u_grid,
                      sheet.space, sheet.tau_names, sheet.provenance)
    with np.errstate(invalid="ignore"):
        for part in (rows, few):
            for op in (sheet.to_internal, sheet.from_internal, sheet.clip,
                       sheet.value, sheet.jac):
                assert_bitwise(op(tau[part]), op(tau)[part])
            for got, want in zip(sheet.value_and_jac(tau[part]),
                                 sheet.value_and_jac(tau)):
                assert_bitwise(got, want[part])
            for op in (curve.value, curve.jac):
                assert_bitwise(op(tau[part, :1]), op(tau[:, :1])[part])
    sp = Spline2D(sheet.s1_grid, sheet.s2_grid, sheet.u_grid)
    with np.errstate(invalid="ignore"):
        full = sp(tau[:, 0], tau[:, 1], grad=True)
        part = sp(tau[rows, 0], tau[rows, 1], grad=True)
    for f, p in zip(full, part):
        assert_bitwise(p, f[rows])


def reference_spline_2d(x1, x2, z):
    """Spline2D as it was with cell-major coefficients (cell, a, b, q):
    the fit's last pass ran over columns in (j, b, q) order, and Horner's
    rule over strided (m, 4, q) slices.  Kept as the reference."""
    c2 = spline._cell_coefficients(x2, np.swapaxes(z, 0, 1))
    c = spline._cell_coefficients(x1, np.moveaxis(c2, 2, 0))
    c = np.ascontiguousarray(c.swapaxes(1, 2)).reshape(-1, 4, 4, z.shape[2])

    def call(s1, s2):
        i, t = spline._cells(x1, np.clip(s1, x1[0], x1[-1]))
        j, w = spline._cells(x2, np.clip(s2, x2[0], x2[-1]))
        g = c.take(i * (len(x2) - 1) + j, axis=0)
        t, w = t[:, None], w[:, None, None]
        r = ((g[:, :, 3] * w + g[:, :, 2]) * w + g[:, :, 1]) * w + g[:, :, 0]
        value = ((r[:, 3] * t + r[:, 2]) * t + r[:, 1]) * t + r[:, 0]
        d1 = (3 * r[:, 3] * t + 2 * r[:, 2]) * t + r[:, 1]
        rw = (3 * g[:, :, 3] * w + 2 * g[:, :, 2]) * w + g[:, :, 1]
        d2 = ((rw[:, 3] * t + rw[:, 2]) * t + rw[:, 1]) * t + rw[:, 0]
        return value, d1, d2
    return call


def assert_spline_2d_matches_reference(x1, x2, z, s1, s2):
    sp = Spline2D(x1, x2, z)
    with np.errstate(invalid="ignore"):
        want = reference_spline_2d(x1, x2, z)(s1, s2)
        assert_bitwise(sp(s1, s2), want[0])
        for got, w in zip(sp(s1, s2, grad=True), want):
            assert_bitwise(got, w)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n1=st.integers(4, 12),
       n2=st.integers(4, 12), q=st.integers(1, 3),
       points=st.lists(st.tuples(LANE_COORD, LANE_COORD), min_size=1,
                       max_size=40),
       data=st.data())
def test_spline_2d_lane_major_matches_cell_major_bitwise(seed, n1, n2, q,
                                                         points, data):
    # the lane-major layout changes where coefficients sit, not one bit of
    # the fit or of the value and partials, inside the grid, clamped
    # (infinities too), at NaN and on any subset of the rows
    rng = np.random.default_rng(seed)
    x1, x2 = uneven_grid(rng, 0.0, 2.0, n1), uneven_grid(rng, -1.0, 1.0, n2)
    s = np.array(points, dtype=float)
    rows = np.array(data.draw(st.lists(st.integers(0, len(s) - 1),
                                       max_size=len(s))), dtype=int)
    assert_spline_2d_matches_reference(x1, x2, rng.normal(size=(n1, n2, q)),
                                       s[rows, 0], s[rows, 1])


def test_spline_2d_lane_major_matches_cell_major_on_a_full_sheet():
    # example2's sheet size, where the fit's products run through BLAS
    rng = np.random.default_rng(19)
    x1, x2 = uneven_grid(rng, 0.0, 2.0, 161), uneven_grid(rng, -1.0, 1.0, 161)
    s1, s2 = rng.uniform(-0.5, 2.5, 4000), rng.uniform(-1.5, 1.5, 4000)
    assert_spline_2d_matches_reference(x1, x2, rng.normal(size=(161, 161, 2)),
                                       s1, s2)


def test_solution_field_keeps_only_du_kernels(monkeypatch):
    # after the solve a field reads only the dphi/du kernels, for its
    # determinant; the bound value kernels are freed with the solve
    made = []
    init = solver.BoundPotential.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(solver.BoundPotential, "__init__", record)
    field = solve_implicit(ex2_two_wave_surface(), list(ex2_potentials()),
                           ex2_grid(), ImplicitSolveConfig(), params={},
                           space=SP2)
    gc.collect()
    alive = [b for b in (r() for r in made) if b is not None]
    assert len(alive) == 2
    assert all(b._kernels[0] is None for b in alive)
    assert np.all(np.isfinite(field.det_monitor[field.converged]))


def test_import_loads_no_scipy():
    src = str(Path(solver.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rwave.cli; print(sorted(m for m in "
         "sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
