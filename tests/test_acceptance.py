"""Acceptance gate: every shipped claim at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -s); the assertions pin
the same numbers.
"""

import dataclasses
import functools
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwave import cli, exprmat, solver
from rwave.cli import EXIT_OK, PIPELINE, AnalysisRequest, run
from rwave.expr import Bin, Box, Const, Var, ZeroVerdict, is_zero, parse, simplify
from rwave.fixtures import PRESETS, load_fixture, system_from_dict
from rwave.frobenius import (
    IncompatibleSystem,
    commutation_residual,
    rescale_frame,
)
from rwave.geometry import (
    Verdict,
    WaveElement,
    check_kwave_conditions,
    find_potential,
    lie_bracket,
)
from rwave.solver import (
    ImplicitSolveConfig,
    build_hodograph,
    double_wave_fixture,
    flow_order_mismatch,
    integrate_characteristic,
    solve_implicit,
)
from rwave.reports import write_solution_field
from rwave.system import homogenize
from rwave.verify import (
    constancy_along_kernel,
    fd_jacobian_batch,
    recover_decomposition,
    residual_report,
)

from .strategies import fixture_box, random_polynomial_vector, recover_at
from .test_cli import read_solution_field_table
from .test_solver import mixed_guess
from .test_system import (
    BROWNIAN_HOMOGENIZED,
    TRAUTMAN_HOMOGENIZED,
    consistent_jet,
)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


EX2 = load_fixture("example2")
EX3 = load_fixture("example3")


def ex2_elements():
    lam_p = tuple(parse(s, EX2.space) for s in PRESETS["example2"]["lambdas"][0])
    lam_m = tuple(parse(s, EX2.space) for s in PRESETS["example2"]["lambdas"][1])
    gam_p = tuple(parse(s, EX2.space) for s in ("sqrt(u1)", "1"))
    gam_m = tuple(parse(s, EX2.space) for s in ("-sqrt(u1)", "1"))
    return (WaveElement(EX2.space, lam_p, gam_p, label="plus"),
            WaveElement(EX2.space, lam_m, gam_m, label="minus"))


def test_criterion_1_double_wave_pipeline(tmp_path):
    """Example-2 pipeline on the 20x20x20 grid reproduces the explicit
    double wave with equal dyad weights, full rank, under ten seconds."""
    req = AnalysisRequest(
        system="example2", domain={},
        stages=("homogenize", "elements", "conditions", "rescale", "solve",
                "verify"),
        grid={"t": (1.0, 3.0, 20), "x": (1.0, 3.0, 20), "y": (0.2, 0.9, 20)},
        out_dir=str(tmp_path / "out"), seed=2024)
    t0 = time.perf_counter()
    code, artifacts = run(req)
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    ver = json.loads((tmp_path / "out" / "verification.json").read_text())
    header, rows = read_solution_field_table(tmp_path / "out" / "solution.csv")
    iy = header.index("x:y")
    it = header.index("x:t")
    iu1 = header.index("u:u1")
    iu2 = header.index("u:u2")
    u_err = max(max(abs(float(r[iu1]) + math.log(float(r[iy]))),
                    abs(float(r[iu2]) - float(r[it]))) for r in rows)
    xi_dev = max(abs(v - 0.5) for v in ver["xi_min"] + ver["xi_max"])
    ok = (ver["residual"]["max"] < 1e-6 and xi_dev < 1e-8
          and ver["rank_min"] == 2 and ver["rank_max"] == 2
          and u_err < 1e-7 and elapsed < 10.0 and len(rows) == 8000)
    report(1, ok, f"residual {ver['residual']['max']:.2e}, xi dev {xi_dev:.2e},"
                  f" u err {u_err:.2e}, {elapsed:.1f}s")


def tau_closed_form(t, y, sign, tau0=0.0):
    return (t + sign * tau0
            - math.sqrt((t - sign * tau0) ** 2 - 8 * math.log(abs(y)))) / 2.0


def test_criterion_2_simple_wave_closed_forms():
    """Newton-solved Riemann invariants match the closed forms to 1e-8 at
    200 random points per wave, in branch-safe boxes."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for sign, tbox, ybox in ((-1.0, (1.0, 3.0), (0.2, 0.9)),
                             (+1.0, (4.0, 6.0), (1.1, 2.0))):
        gamma = (parse("sqrt(u1)" if sign > 0 else "-sqrt(u1)", EX2.space),
                 Const(1))
        if sign > 0:
            s_range, u0 = (0.01, 1.0), [0.01 ** 2 / 4.0, 0.01]
        else:
            s_range, u0 = (-2.6, -0.03), [2.6 ** 2 / 4.0, -2.6]
        surf = integrate_characteristic(gamma, u0, s_range, step=0.003,
                                        space=EX2.space)
        pot = parse("t - ln(|y|)/sqrt(u1)" if sign > 0
                    else "t + ln(|y|)/sqrt(u1)", EX2.space)
        n = 200
        grid = {"t": rng.uniform(*tbox, n), "x": rng.uniform(1, 3, n),
                "y": rng.uniform(*ybox, n)}
        cfg = ImplicitSolveConfig(root_select="lowest")
        field = solve_implicit(surf, [pot], grid, cfg, params={},
                               space=EX2.space)
        assert field.converged.all()
        want_tau = np.array([tau_closed_form(t, y, sign)
                             for t, y in zip(grid["t"], grid["y"])])
        worst = max(worst,
                    float(np.max(np.abs(field.tau[:, 0] - want_tau))),
                    float(np.max(np.abs(field.u[:, 0] - (want_tau / 2) ** 2))),
                    float(np.max(np.abs(field.u[:, 1] - want_tau))))
    report(2, worst < 1e-8, f"max deviation {worst:.2e}")


def example3_closed_form(t, x, y, c=1.0, m=1.0, k=1.0):
    L = math.log(x ** m * y ** k)
    disc = 4 * c * c * k * t * L + (c * m * t + 1) ** 2
    return -(math.sqrt(disc) + c * t * m + 1) / (2 * c * k * t)


def example3_field(grid, window=(-24.0, -0.3), select="lowest"):
    space_u = EX3.space
    surf = integrate_characteristic((Const(1),), [0.0], (-25.0, 1.0),
                                    step=0.05, space=space_u, s0=0.0)
    pot = parse("-(t*(u*m+u^2*k)) + m*ln(|x|) + k*ln(|y|)", EX3.space)
    cfg = ImplicitSolveConfig(initial_guess=np.array([-2.0]),
                              tau_window=window, root_select=select)
    return solve_implicit(surf, [pot], grid, cfg,
                          params={"m": 1.0, "k": 1.0}, space=EX3.space)


def test_criterion_3_example3_explicit_solution():
    """Implicit solve matches the closed form to 1e-7 at 200 random points
    and the finite-difference residual stays below 1e-6."""
    rng = np.random.default_rng(99)
    n = 200
    grid = {"t": rng.uniform(0.1, 1.0, n), "x": rng.uniform(1, 3, n),
            "y": rng.uniform(1, 3, n)}
    field = example3_field(grid)
    assert field.converged.all()
    want = np.array([example3_closed_form(t, x, y)
                     for t, x, y in zip(grid["t"], grid["x"], grid["y"])])
    u_err = float(np.max(np.abs(field.u[:, 0] - want)))
    J = fd_jacobian_batch(field, h=3e-4)
    env = {nm: field.x[:, j] for j, nm in enumerate(field.x_names)}
    env.update({k: np.broadcast_to(v, (n,)) for k, v in field.params.items()})
    env["u"] = field.u[:, 0]
    res = EX3.residual_batch(env, J)
    res_max = float(np.max(np.abs(res)))
    report(3, u_err < 1e-7 and res_max < 1e-6,
           f"u err {u_err:.2e}, residual {res_max:.2e}")


def test_criterion_4_homogenization_fixtures():
    """Both reductions reproduce their displayed homogeneous systems up to
    expression equivalence, and transported jets stay solutions."""
    ok = True
    details = []
    for name, golden, var in (("brownian", BROWNIAN_HOMOGENIZED, "y"),
                              ("trautman", TRAUTMAN_HOMOGENIZED, "xhat")):
        sys_in = load_fixture(name)
        box = fixture_box(name)
        rng = np.random.default_rng(4)
        res = homogenize(sys_in, box=box, rng=rng, new_var=var)
        gold = system_from_dict(golden)
        for A, G in zip(res.system.coeffs, gold.coeffs):
            for ra, rg in zip(A, G):
                for ea, eg in zip(ra, rg):
                    chk = is_zero(simplify(ea - eg), box, trials=32, rng=rng)
                    ok &= chk.verdict is ZeroVerdict.PROBABLY_ZERO
        # solution transport at 50 random consistent jets
        worst = 0.0
        for _ in range(50):
            env = {n: float(v[0]) for n, v in box.sample(rng, 1).items()
                   if n in sys_in.space.all_names}
            J = consistent_jet(sys_in, env, rng)
            xnew = float(rng.uniform(-0.4, 0.4))
            env2 = dict(env)
            env2[var] = xnew
            env2[sys_in.space.dependent[0]] -= xnew
            out = res.system.residual_at(
                env2, {k: env2[k] for k in sys_in.space.dependent},
                res.transport_jet(J))
            worst = max(worst, float(np.max(np.abs(out))))
        ok &= worst < 1e-9
        details.append(f"{name} transport {worst:.2e}")
    report(4, ok, "; ".join(details))


def test_criterion_5_condition_suite():
    """All four verdicts hold on the wave pair; the perturbed covector
    fails closedness with a witness above 1e-3."""
    box = fixture_box("example2")
    plus, minus = ex2_elements()
    rep = check_kwave_conditions(EX2, [plus, minus], box, rng=5, trials=32)
    pos_ok = rep.all_hold()
    lam_bad = (simplify(plus.lam[0] + Var("x")),) + plus.lam[1:]
    bad = WaveElement(EX2.space, lam_bad, plus.gamma, label="bad")
    rep_bad = check_kwave_conditions(EX2, [bad, minus], box, rng=6, trials=32)
    neg_ok = (rep_bad.closedness.verdict is Verdict.FAILS
              and rep_bad.closedness.witness is not None
              and rep_bad.closedness.magnitude > 1e-3)
    report(5, pos_ok and neg_ok,
           f"positive all hold: {pos_ok}; negative magnitude "
           f"{rep_bad.closedness.magnitude:.2e}")


def test_criterion_6_frame_rescaling():
    """Symbolic pair commutes to 1e-10; the numeric three-field frame to
    1e-6 at 100 samples; the fabricated incompatible table is rejected."""
    names3 = ("x", "y", "z")
    box3 = Box.from_dict({n: (-0.8, 0.8) for n in names3})
    X1 = (Const(1), Const(0), Const(0))
    X2 = (Const(0), parse("exp(x)", names3), Const(0))
    rng = np.random.default_rng(60)
    res_pair = rescale_frame([X1, X2], names3, box3, rng=rng)
    pair_worst = commutation_residual(res_pair.scaled_fields(), box3, rng=rng)
    pair_ok = pair_worst < 1e-10

    names4 = ("x", "y", "z", "w")
    box4 = Box.from_dict({n: (-0.7, 0.7) for n in names4})
    Y1 = (parse("exp(y)", names4), Const(0), Const(0), Const(0))
    Y2 = (Const(0), parse("exp(z)", names4), Const(0), Const(0))
    Y3 = (Const(0), Const(0), parse("exp(x)", names4), Const(0))
    res_grid = rescale_frame([Y1, Y2, Y3], names4, box4, rng=61,
                             prefer_symbolic=False)
    grid_worst = commutation_residual(res_grid.scaled_fields(), box4, rng=62,
                                      n_samples=100)
    grid_ok = grid_worst < 1e-6

    Z1 = (Const(1), Const(0), Const(0), Const(0))
    Z2 = (Const(0), Const(1), Const(0), Const(0))
    Z3 = (Const(0), Const(0), Const(1), Const(0))
    overrides = {(0, 1): (Const(0), Const(0)),
                 (0, 2): (Const(0), parse("y^2", names4)),
                 (1, 2): (Const(0), Const(0))}
    try:
        rescale_frame([Z1, Z2, Z3], names4, box4, rng=63,
                      pair_overrides=overrides)
        rejected = False
        witness = None
    except IncompatibleSystem as err:
        rejected = True
        witness = err.witness
    report(6, pair_ok and grid_ok and rejected and witness is not None,
           f"pair {pair_worst:.2e}, grid {grid_worst:.2e}, "
           f"incompatible rejected: {rejected}")


def central_difference(field, h):
    """The one-step central-difference Jacobians du/dx (n, q, p), from
    re-solves of the grid moved by +-h along each axis."""
    base = {nm: field.x[:, j] for j, nm in enumerate(field.x_names)}
    lanes = np.arange(field.n)
    cols = []
    for name in field.x_names:
        up = field.resolve({**base, name: base[name] + h}, lanes)
        dn = field.resolve({**base, name: base[name] - h}, lanes)
        cols.append((up.u - dn.u) / (2.0 * h))
    return np.stack(cols, axis=2)


def test_criterion_7_property_suites():
    """Structural properties at their stated tolerances."""
    rng = np.random.default_rng(7000)
    names = ("u1", "u2", "u3")
    box = Box.from_dict({n: (-1.0, 1.0) for n in names})
    ok = True
    details = []

    # bracket antisymmetry and Jacobi on 20 random frames
    for _ in range(20):
        a = random_polynomial_vector(rng, names, 3)
        b = random_polynomial_vector(rng, names, 3)
        c = random_polynomial_vector(rng, names, 3)
        anti = [simplify(Bin("+", x, y)) for x, y in
                zip(lie_bracket(a, b, names), lie_bracket(b, a, names))]
        jac = [simplify(Bin("+", Bin("+", x, y), z)) for x, y, z in zip(
            lie_bracket(a, lie_bracket(b, c, names), names),
            lie_bracket(b, lie_bracket(c, a, names), names),
            lie_bracket(c, lie_bracket(a, b, names), names))]
        for comp in anti + jac:
            ok &= bool(is_zero(comp, box, trials=20, rng=rng))
    details.append("bracket identities")

    # derivative versus central difference on depth-6 expressions
    xnames = ("x", "y", "u1", "u2")
    xbox = Box.from_dict({n: (-1.5, 1.5) for n in xnames})
    gen = np.random.default_rng(7100)
    worst_rel = 0.0
    checked = 0
    samples = [
        parse("sin(x*u1) + cos(y)^2*x", xnames),
        parse("sqrt(1+(x*y)^2)*u2 - x/(2+u1^2)", xnames),
        parse("exp(sin(x))*u1 + ln(1+y^2)", xnames),
        parse("(x+y*u1)^3 - u2*x^2", xnames),
        parse("abs(1+x^2)*y + cos(x*y*u1)", xnames),
    ]
    for e in samples:
        d = e.diff("x")
        pts = xbox.sample(gen, 20)
        h = 1e-6
        up = dict(pts, x=pts["x"] + h)
        dn = dict(pts, x=pts["x"] - h)
        fd = (np.asarray(e.evaluate(up, strict=False), dtype=float)
              - np.asarray(e.evaluate(dn, strict=False), dtype=float)) / (2 * h)
        dv = np.broadcast_to(np.asarray(d.evaluate(pts, strict=False),
                                        dtype=float), (20,))
        fd = np.broadcast_to(fd, (20,))
        good = np.isfinite(fd) & np.isfinite(dv)
        rel = np.abs(fd[good] - dv[good]) / (1.0 + np.abs(fd[good]))
        worst_rel = max(worst_rel, float(np.max(rel)))
        checked += int(good.sum())
    ok &= worst_rel < 1e-4 and checked >= 80
    details.append(f"diff-vs-FD {worst_rel:.2e}")

    # decomposition round trip, 50 trials, 1e-10
    plus, minus = ex2_elements()
    worst_xi = 0.0
    for _ in range(50):
        env = {"t": rng.uniform(1, 3), "x": rng.uniform(1, 3),
               "y": rng.uniform(0.2, 0.9), "u1": rng.uniform(0.3, 4),
               "u2": rng.uniform(-1, 1)}
        xi_true = rng.uniform(0.3, 2.0, 2)
        J = np.zeros((2, 3))
        for e, xv in zip((plus, minus), xi_true):
            lam = exprmat.eval_vector(e.lam, env)[0]
            gam = exprmat.eval_vector(e.gamma, env)[0]
            J += xv * np.outer(gam, lam)
        rec = recover_at(J, [plus, minus], env)
        worst_xi = max(worst_xi, float(np.max(np.abs(rec.xi - xi_true))))
    ok &= worst_xi < 1e-10
    details.append(f"xi round trip {worst_xi:.2e}")

    # potentials differentiate back to their covectors
    box2 = fixture_box("example2")
    for elem in ex2_elements():
        res = find_potential(elem, box2.midpoint(), box2, rng=rng)
        for i, name in enumerate(EX2.space.independent):
            back = simplify(res.phi.diff(name) - res.element.lam[i])
            ok &= bool(is_zero(back, box2, rng=rng))
    details.append("potential gradients")

    # flow-order swap on the accepted two-wave surface
    cfg = PRESETS["example2"]["solver"]
    from rwave.expr import VarSpace
    tau_space = VarSpace((), (), ("tau1", "tau2"))
    mu = [[parse(str(e), tau_space) for e in row] for row in cfg["mu"]]
    gam_p = (parse("sqrt(u1)", EX2.space), Const(1))
    gam_m = (parse("-sqrt(u1)", EX2.space), Const(1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_SHEET_POINTS", 61)
        surf = build_hodograph([gam_p, gam_m], mu, cfg["u0"], cfg["tau_base"],
                               cfg["axis_ranges"], step=cfg["grid_step"],
                               space=EX2.space, tau_names=("tau1", "tau2"),
                               axes=cfg["axes"])
    mismatch = flow_order_mismatch(surf, [gam_p, gam_m], mu,
                                   step=cfg["grid_step"])
    ok &= mismatch < 1e-7
    details.append(f"flow swap {mismatch:.2e}")

    # Richardson ratio of the one-step central difference on a smooth field
    field = double_wave_fixture({"t": np.array([1.7]), "x": np.array([2.0]),
                                 "y": np.array([0.45])})
    exact = np.array([[0.0, 0.0, -1.0 / 0.45], [1.0, 0.0, 0.0]])
    e1 = np.max(np.abs(central_difference(field, 1e-4)[0] - exact))
    e2 = np.max(np.abs(central_difference(field, 1e-5)[0] - exact))
    ratio = e1 / e2
    ok &= 50 <= ratio <= 200
    details.append(f"FD ratio {ratio:.0f}")

    report(7, ok, "; ".join(details))


def test_criterion_8_catastrophe_detection():
    """The flagged locus brackets the root of the closed form's square-root
    argument within one grid cell."""
    xv = math.exp(-0.75)
    L = 2 * math.log(xv)

    def disc(t):
        return (t + 1.0) ** 2 + 4.0 * t * L

    # disc(t) = t^2 + (2 + 4L) t + 1 has roots of product 1; the smaller one
    # is the root in (0.05, 0.6)
    b = 2.0 + 4.0 * L
    t_root = 2.0 / (-b + math.sqrt(b * b - 4.0))
    assert 0.05 < t_root < 0.6 and abs(disc(t_root)) < 1e-14
    ts = np.linspace(0.05, 0.6, 111)
    cell = ts[1] - ts[0]
    grid = {"t": ts, "x": np.full_like(ts, xv), "y": np.full_like(ts, xv)}
    field = example3_field(grid, window=(-24.0, -0.01))
    flagged = ~field.converged | field.catastrophe
    below = ts[~flagged]
    above = ts[flagged]
    ok = (above.size > 0 and below.size > 0
          and below.max() < t_root + cell
          and above.min() > t_root - cell
          and above.min() - below.max() <= cell + 1e-12)
    # the monitor tracks the square root of the discriminant while it exists
    conv = field.converged & (disc(ts) > 0)
    track = float(np.max(np.abs(np.abs(field.det_monitor[conv])
                                - np.sqrt(disc(ts)[conv]))))
    ok &= track < 1e-7
    report(8, ok, f"root {t_root:.4f} bracketed in [{below.max():.4f}, "
                  f"{above.min():.4f}], monitor err {track:.2e}")


# ---------------------------------------------------------------------------
# lane independence, end to end: a lane's bits do not depend on which other
# lanes share a call (the lane contract and its two exceptions, README)

@functools.cache
def preset_run(system, root_select, variant=None):
    """A run of ``system`` on its preset grid, and the arguments and result
    of each of its calls to the solve, the Jacobians, the residuals, the
    recovery and the kernel check, and the rows of its solution.csv.
    Under "guess per lane", example3's scan window reaches its roots above
    0, and the lanes' configured guesses lie on both roots' sides.  Under
    "inexact axes", example2's sheet axes are scaled by 1.1, so that its
    coordinate changes round (the preset's are exact in binary)."""
    seen = {}
    solver_cfg = {"root_select": root_select} if root_select else {}
    if variant == "guess per lane":
        grid = cli._grid_env(PRESETS[system]["grid"])
        solver_cfg.update(tau_window=[-24.0, 0.99],
                          initial_guess=mixed_guess(grid).tolist())
    elif variant == "inexact axes":
        preset = PRESETS[system]["solver"]
        solver_cfg.update(
            axes=[[1.1 * a for a in row] for row in preset["axes"]],
            axis_ranges=[[end / 1.1 for end in r]
                         for r in preset["axis_ranges"]])

    def recording(name, fn):
        def call(*args, **kwargs):
            seen[name] = (args, kwargs, fn(*args, **kwargs))
            return seen[name][2]
        return call

    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
        for name in ("solve_implicit", "fd_jacobian_batch", "residual_report",
                     "recover_decomposition", "constancy_along_kernel"):
            mp.setattr(cli, name, recording(name, getattr(cli, name)))
        req = AnalysisRequest(
            system=system, domain={}, stages=PIPELINE,
            grid=PRESETS[system]["grid"], out_dir=out, seed=5,
            solver=solver_cfg)
        assert run(req)[0] == EXIT_OK
        rows = read_solution_field_table(Path(out) / "solution.csv")[1]
    return seen, rows


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64) if got.dtype == float else got,
                          want.view(np.int64) if want.dtype == float else want)


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from([("example2", None), ("example3", "lowest"),
                             ("example3", "highest"),
                             ("example3", "nearest"),
                             ("example3", "nearest", "guess per lane"),
                             ("example2", None, "inexact axes")]),
       picks=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=120))
@example(case=("example2", None), picks=[4321])          # one lane alone
@example(case=("example2", None, "inexact axes"), picks=[4321])
@example(case=("example3", "nearest"), picks=[7, 7, 3])
@example(case=("example3", "nearest", "guess per lane"), picks=[7, 7, 3, 8])
def test_lanes_match_the_full_grid_end_to_end(case, picks):
    # a random subset of a preset grid's lanes, with repeats and in any
    # order, through the solve, the Richardson Jacobians, the residuals,
    # the recovery and the row writer: each lane has the full grid's bits
    # a k = 1 lane's iteration count is its solve's bisection step count,
    # the most any of its lanes needs, so it alone is left out there
    seen, rows = preset_run(*case)
    (surface, phis, grid, cfg), kwargs, full = seen["solve_implicit"]
    per_lane = ["tau", "u", "converged", "det_monitor"]
    if surface.k > 1:
        # no lane of the preset takes the warm-start retry, the one step
        # that reads other lanes (its grid-order neighbours)
        assert (full.iters < solver._MAX_ITER).all()
        per_lane.append("iters")
    lanes = np.array(picks) % full.n
    guess = solver._lane_guess(cfg, full.n, surface.k)
    if guess is not None:
        # a lane keeps its configured guess
        cfg = dataclasses.replace(cfg, initial_guess=guess[lanes])
    field = solve_implicit(surface, phis,
                           {nm: np.asarray(v)[lanes] for nm, v in grid.items()},
                           cfg, **kwargs)
    jac = fd_jacobian_batch(field, **seen["fd_jacobian_batch"][1])
    (system, *_), res_kwargs, res_full = seen["residual_report"]
    res = residual_report(system, field, jac, **res_kwargs)
    (_, elements, _), _, rec_full = seen["recover_decomposition"]
    rec = recover_decomposition(jac, elements, field.grid_env())
    for name in per_lane:
        assert_bits(getattr(field, name), getattr(full, name)[lanes])
    assert_bits(jac, seen["fd_jacobian_batch"][2][lanes])
    assert_bits(res.norms, res_full.norms[lanes])
    for name in ("xi", "reconstruction_error", "rank"):
        assert_bits(getattr(rec, name), getattr(rec_full, name)[lanes])
    with tempfile.TemporaryDirectory() as out:
        path = write_solution_field(Path(out) / "solution.csv", field,
                                    residual_norms=res.norms)
        header, got = read_solution_field_table(path)
    keep = [j for j, col in enumerate(header)
            if col != "newton_iters" or "iters" in per_lane]
    assert ([[row[j] for j in keep] for row in got]
            == [[rows[i][j] for j in keep] for i in lanes])
    # the kernel check's re-solve, every lane a sample, in reverse: its
    # points come as copies of the field's lanes in another order than the
    # solve's lane plan, so that plan must fail its bit check
    (*_, h), _, _ = seen["constancy_along_kernel"]
    got, want = (kernel_resolve(f, elements, idx, h) for f, idx in (
        (field, np.arange(field.n)[::-1]), (full, lanes[::-1])))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in per_lane:
            if name != "det_monitor":
                assert_bits(getattr(a, name), getattr(b, name))


def kernel_resolve(field, elements, indices, h):
    """The re-solves that ``constancy_along_kernel`` makes on ``field``."""
    resolver, made = field.resolver, []

    def recorded(env, lanes):
        made.append(resolver(env, lanes))
        return made[-1]

    field.resolver = recorded
    try:
        constancy_along_kernel(field, elements, indices, h)
    finally:
        field.resolver = resolver
    return made
