import math

import numpy as np
import pytest

from rwave import exprmat, ode, solver
from rwave.expr import Const, VarSpace, parse, simplify
from rwave.fixtures import PRESETS, load_fixture
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
    surf = integrate_characteristic((Const(1),), None, [0.0], (0.0, 1.0),
                                    step=0.05, space=space)
    s = np.linspace(0.0, 1.0, 7)
    assert np.allclose(surf.value(s)[:, 0], s, atol=1e-13)


def test_integrate_characteristic_zero_gamma_constant():
    space = VarSpace((), ("u1", "u2"))
    surf = integrate_characteristic((Const(0), Const(0)), None, [2.0, -1.0],
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
    surf = integrate_characteristic(gamma, None, u0, s_range, step=0.004,
                                    space=space)
    s = np.linspace(s_range[0], s_range[1], 9)
    vals = surf.value(s)
    assert np.allclose(vals[:, 0], (s / 2.0) ** 2, atol=1e-9)
    assert np.allclose(vals[:, 1], s, atol=1e-10)


def ex2_two_wave_surface():
    gam_p = (parse("sqrt(u1)", SP2), Const(1))
    gam_m = (parse("-sqrt(u1)", SP2), Const(1))
    cfg = PRESETS["example2"]["solver"]
    mu = [[parse(e, VarSpace((), (), ("taup", "taum"))) for e in row]
          for row in cfg["mu"]]
    return build_hodograph(
        [gam_p, gam_m], mu, cfg["u0"], cfg["tau_base"], cfg["axis_ranges"],
        step=cfg["grid_step"], space=SP2, tau_names=("taup", "taum"),
        axes=cfg["axes"], n_grid=121)


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
    surf = build_hodograph(gammas, mu, [0.0, 0.0], [1.0, 1.0],
                           [[1.0, 2.0], [-0.5, 0.5]], step=0.02, space=space,
                           tau_names=("tau1", "tau2"),
                           axes=[[1.0, 1.0], [1.0, -1.0]], n_grid=21)
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
    for i, (s1, s2) in enumerate(probes):
        # reference: one single-lane integration per leg and probe
        want_a = ode.rk4(field(0, [None, s_base[1]]), u0, s_base[0], s1,
                         max_step=step, tol=1e-12)
        want_a = ode.rk4(field(1, [s1, None]), want_a, s_base[1], s2,
                         max_step=step, tol=1e-12)
        want_b = ode.rk4(field(1, [s_base[0], None]), u0, s_base[1], s2,
                         max_step=step, tol=1e-12)
        want_b = ode.rk4(field(0, [None, s2]), want_b, s_base[0], s1,
                         max_step=step, tol=1e-12)
        assert np.max(np.abs(a[i] - want_a)) < 1e-12
        assert np.max(np.abs(b[i] - want_b)) < 1e-12


def assert_bitwise(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == float
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
    # one state and scalar coordinates, as in a single-lane RK4 march
    got = field(1, [s[0, 0], None])(s[0, 1], u[0])
    assert_bitwise(got, tree_walk_gamma_rhs(gammas, mu, surf, 1, s[:1],
                                            u[:1])[0])


@pytest.mark.parametrize("phi", [*ex2_potentials(), parse("t + 2*u1", SP2)])
def test_potential_fn_kernel_matches_tree_walk_bitwise(phi):
    rng = np.random.default_rng(4)
    n = 11
    env = {"t": rng.uniform(1, 3, n), "x": rng.uniform(1, 3, n),
           "y": rng.uniform(0.2, 0.9, n), "u1": rng.uniform(0.25, 4, n),
           "u2": rng.uniform(1, 3, n)}
    pot = solver.PotentialFn(phi, SP2)
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
    surf = build_hodograph([gam_p, gam_m], mu, [1.0, 0.0], [2.0, -2.0],
                           [[-0.5, 0.5], [1.0, 3.0]], step=0.02, space=SP2,
                           tau_names=("taup", "taum"),
                           axes=[[1.0, 1.0], [1.0, -1.0]], n_grid=81)
    rng = np.random.default_rng(2)
    s = np.stack([rng.uniform(-0.4, 0.4, 20), rng.uniform(1.1, 2.9, 20)], axis=1)
    tau = surf.from_internal(s)
    vals = surf.value(tau)
    tp, tm = tau[:, 0], tau[:, 1]
    assert np.max(np.abs(vals[:, 0] - ((tp - tm) / 4.0) ** 2)) < 1e-8
    assert np.max(np.abs(vals[:, 1] - (tp + tm) / 2.0)) < 1e-9


def test_build_hodograph_k1_reduces_to_characteristic():
    space = VarSpace((), ("u",))
    mu = [[Const(1)]]
    surf = build_hodograph([(Const(1),)], mu, [0.0], [0.0], [(-1.0, 2.0)],
                           step=0.05, space=space, tau_names=("s",))
    s = np.linspace(-1, 2, 7)
    assert np.allclose(surf.value(s)[:, 0], s, atol=1e-12)


def test_build_hodograph_noncommuting_raises():
    space = VarSpace((), ("u1", "u2"))
    g1 = (Const(1), Const(0))          # d_u1
    g2 = (Const(0), parse("u1", space))  # u1 d_u2
    mu = [[Const(1), Const(0)], [Const(0), Const(1)]]
    with pytest.raises(NonIntegrable):
        build_hodograph([g1, g2], mu, [0.0, 0.0], [0.0, 0.0],
                        [[-1.0, 1.0], [-1.0, 1.0]], step=0.05, space=space,
                        n_grid=21)


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
    surf = integrate_characteristic(gamma, None, u0, s_range, step=0.003,
                                    space=SP2)
    pot = parse("t - ln(|y|)/sqrt(u1)" if sign > 0 else "t + ln(|y|)/sqrt(u1)",
                SP2)
    rng = np.random.default_rng(3)
    n = 200
    grid = {"t": rng.uniform(*box["t"], n), "x": rng.uniform(1, 3, n),
            "y": rng.uniform(*box["y"], n)}
    cfg = ImplicitSolveConfig(initial_guess="potential_at_base",
                              root_select="lowest", tau_window=window)
    field = solve_implicit(surf, [pot], grid, cfg)
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
    return integrate_characteristic((Const(1),), None, [0.0],
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
    surf = integrate_characteristic((Const(1),), None, [0.0], (-2.0, 3.0),
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
    field = solve_implicit(surf, list(pots), grid, cfg)
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
    surf = integrate_characteristic((Const(1),), None, [0.0], (0.0, 1.0),
                                    step=0.05, space=space)
    # phi = t with window shifted away from any root
    pot = parse("t", VarSpace(("t",), ("u",)))
    cfg = ImplicitSolveConfig(initial_guess=np.array([0.5]),
                              tau_window=(0.0, 1.0))
    with pytest.raises(SolveFailed):
        solve_implicit(surf, [pot], {"t": np.array([5.0])}, cfg,
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
                         "y": np.array([0.5])})
    assert sub.u[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert sub.u[0, 1] == 2.0
    J = field.analytic_jacobian({"t": 2.0, "x": 5.0, "y": 0.5})
    assert np.allclose(J, [[0, 0, -2.0], [1, 0, 0]])


def test_double_wave_fixture_residual_zero():
    sys = load_fixture("example2")
    field = double_wave_fixture()
    rng = np.random.default_rng(5)
    idx = rng.choice(field.n, 100, replace=False)
    for i in idx:
        pt = field.point_env(i)
        y = pt["y"]
        J = np.array([[0.0, 0.0, -1.0 / y], [1.0, 0.0, 0.0]])
        res = sys.residual_at(pt, field.u[i], J)
        assert np.max(np.abs(res)) < 1e-14
