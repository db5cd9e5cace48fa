import numpy as np
import pytest

from rwave import exprmat, verify
from rwave.expr import Const, VarSpace, parse
from rwave.fixtures import PRESETS, load_fixture
from rwave.geometry import WaveElement
from rwave.solver import (
    ImplicitSolveConfig,
    double_wave_fixture,
    integrate_characteristic,
    solve_implicit,
)
from rwave.verify import (
    DegenerateElements,
    constancy_along_kernel,
    estimate_rank,
    fd_jacobian_batch,
    recover_decomposition,
    residual_report,
)

from .strategies import point_env, recover_at
from .test_solver import (
    assert_lanes_bitwise,
    ex2_grid,
    ex2_potentials,
    ex2_two_wave_surface,
    lanes_of,
    mixed_guess,
)

EX2 = load_fixture("example2")
EX3 = load_fixture("example3")


def ex2_elements():
    lam_p = tuple(parse(s, EX2.space) for s in PRESETS["example2"]["lambdas"][0])
    lam_m = tuple(parse(s, EX2.space) for s in PRESETS["example2"]["lambdas"][1])
    gam_p = tuple(parse(s, EX2.space) for s in ("sqrt(u1)", "1"))
    gam_m = tuple(parse(s, EX2.space) for s in ("-sqrt(u1)", "1"))
    return (WaveElement(EX2.space, lam_p, gam_p, label="plus"),
            WaveElement(EX2.space, lam_m, gam_m, label="minus"))


def small_field():
    t = np.linspace(1.2, 2.8, 4)
    x = np.linspace(1.2, 2.8, 3)
    y = np.linspace(0.3, 0.8, 4)
    T, X, Y = np.meshgrid(t, x, y, indexing="ij")
    return double_wave_fixture({"t": T.ravel(), "x": X.ravel(), "y": Y.ravel()})


def test_fd_jacobian_double_wave_point():
    field = double_wave_fixture({"t": np.array([2.0]), "x": np.array([5.0]),
                                 "y": np.array([0.5])})
    J = fd_jacobian_batch(field, h=1e-5)[0]
    assert J[0, 2] == pytest.approx(-2.0, abs=1e-8)
    assert J[1, 0] == pytest.approx(1.0, abs=1e-10)
    assert abs(J[0, 0]) < 1e-10 and abs(J[0, 1]) < 1e-10
    assert abs(J[1, 1]) < 1e-10 and abs(J[1, 2]) < 1e-10


def test_fd_jacobian_constant_field_zero():
    field = small_field()
    # constant resolver: freeze u
    const_u = field.u.copy()

    def resolver(env, lanes):
        n = len(next(iter(env.values())))
        out = double_wave_fixture(env)
        out.u = np.tile(const_u[:1], (n, 1))
        return out

    field.resolver = resolver
    J = fd_jacobian_batch(field, h=1e-5)
    assert np.allclose(J, 0.0, atol=1e-12)


def reference_fd_jacobian(field, h):
    # one resolve per displaced grid, each pair of grids checked in turn
    base = {nm: field.x[:, j] for j, nm in enumerate(field.x_names)}
    lanes = np.arange(field.n)

    def jac_at(step):
        J = np.empty((field.n, field.u.shape[1], len(field.x_names)))
        for i, name in enumerate(field.x_names):
            up = field.resolve({**base, name: base[name] + step}, lanes)
            dn = field.resolve({**base, name: base[name] - step}, lanes)
            assert (up.converged & dn.converged).all()
            J[:, :, i] = (up.u - dn.u) / (2.0 * step)
        return J

    J = jac_at(h)
    return (4.0 * jac_at(h / 2.0) - J) / 3.0


def example3_grid_field(side, grid=None, **settings):
    surf = integrate_characteristic((Const(1),), [0.0], (-25.0, 1.0),
                                    step=0.05, space=EX3.space, s0=0.0)
    if grid is None:
        axes = np.meshgrid(np.linspace(0.1, 1.0, side),
                           np.linspace(1.0, 3.0, side),
                           np.linspace(1.0, 3.0, side), indexing="ij")
        grid = dict(zip("txy", (a.ravel() for a in axes)))
    pot = parse("-(t*(u*m+u^2*k)) + m*ln(|x|) + k*ln(|y|)", EX3.space)
    settings = {"initial_guess": np.array([-2.0]),
                "tau_window": (-24.0, -0.3), "root_select": "lowest",
                **settings}
    if callable(settings["initial_guess"]):
        settings["initial_guess"] = settings["initial_guess"](grid)
    cfg = ImplicitSolveConfig(**settings)
    return solve_implicit(surf, [pot], grid, cfg,
                          params={"m": 1.0, "k": 1.0}, space=EX3.space)


def counting_resolves(field):
    calls = []
    resolver = field.resolver

    def counted(env, lanes):
        calls.append(len(next(iter(env.values()))))
        return resolver(env, lanes)

    field.resolver = counted
    return calls


def resolved_again(field, resolved):
    """``field``, or with ``resolved`` its re-solve on its own grid: a field
    that is itself a re-solve carries its solve's lane grouping and each
    lane's configured guess into its own re-solves."""
    if not resolved:
        return field
    return field.resolve({nm: field.x[:, j]
                          for j, nm in enumerate(field.x_names)},
                         np.arange(field.n))


def example2_grid_field():
    """A converged k = 2 solve of 192 lanes on example2's sheet, and the
    surface and potentials it was solved with."""
    surf, pots = ex2_two_wave_surface(), list(ex2_potentials())
    field = solve_implicit(surf, pots, ex2_grid(), ImplicitSolveConfig(),
                           params={}, space=EX2.space)
    assert field.converged.all()
    return field, surf, pots


@pytest.mark.parametrize("side,group,per", [
    (10, verify._GROUP_LANES, 4),      # example3's grid: 3 groups of 4 grids
    (3, 100, 3),                       # pairs of grids across two groups
    (5, 100, 1),                       # a grid larger than a group
    (3, 140, 5),                       # a last group of two grids
    ("example2", verify._GROUP_LANES, 12),   # k = 2: one group of 12 grids
])
@pytest.mark.parametrize("resolved", [False, True])
def test_grouped_displaced_resolves_match_one_per_grid_bitwise(
        side, group, per, resolved, monkeypatch):
    monkeypatch.setattr(verify, "_GROUP_LANES", group)
    field = resolved_again(example2_grid_field()[0] if side == "example2"
                           else example3_grid_field(side), resolved)
    assert field.converged.all()
    want = reference_fd_jacobian(field, 1e-4)
    calls = counting_resolves(field)
    got = fd_jacobian_batch(field, 1e-4)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    grids = 12
    assert calls == [n * field.n for n in
                     [per] * (grids // per) + [grids % per] * (grids % per > 0)]


@pytest.mark.parametrize("side,group,per", [
    (10, verify._GROUP_LANES, 4),
    (3, 100, 3),
])
@pytest.mark.parametrize("resolved", [False, True])
def test_grouped_resolves_keep_each_lanes_configured_guess(
        side, group, per, resolved, monkeypatch):
    # a guess per lane picks the nearest of two roots, so every copy of
    # the grid in a group must carry it, lane for lane
    monkeypatch.setattr(verify, "_GROUP_LANES", group)
    field = resolved_again(example3_grid_field(side, initial_guess=mixed_guess,
                                               tau_window=(-24.0, 0.99),
                                               root_select="nearest"),
                           resolved)
    assert field.converged.all()
    want = reference_fd_jacobian(field, 1e-4)
    calls = counting_resolves(field)
    got = fd_jacobian_batch(field, 1e-4)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert max(calls) == per * field.n


def test_constancy_keeps_each_samples_configured_guess():
    # 20 samples x 2 kernel directions x +-h = 80 displaced points of a
    # 27-lane grid; each takes the guess of its own sample's lane, as a
    # one-point solve with that guess does
    field = example3_grid_field(3, initial_guess=mixed_guess,
                                tau_window=(-24.0, 0.99),
                                root_select="nearest")
    guess = mixed_guess(field.grid_env())
    lam = tuple(parse(s, EX3.space) for s in PRESETS["example3"]["lambdas"][0])
    elem = WaveElement(EX3.space, lam, (Const(1),))
    h = 1e-4
    holds, worst = constancy_along_kernel(field, [elem], range(20), h)
    want = 0.0
    for idx in range(20):
        rows = exprmat.eval_vector(lam, point_env(field, idx))
        _, s, vt = np.linalg.svd(rows)
        ker_dim = 3 - np.sum(s > 1e-10 * max(s[0], 1.0))
        for theta in (vt[2 - j] for j in range(ker_dim)):
            theta = theta / np.linalg.norm(theta)
            u = [example3_grid_field(
                1, initial_guess=np.array([guess[idx]]),
                tau_window=(-24.0, 0.99), root_select="nearest",
                grid={nm: np.array([field.x[idx, j] + sign * h * theta[j]])
                      for j, nm in enumerate(field.x_names)}).u[0]
                 for sign in (1, -1)]
            want = max(want, float(np.max(np.abs(u[0] - u[1])) / (2 * h)))
    assert holds == (want <= 1e-6)
    assert worst == want


def test_constancy_of_a_k2_field_starts_from_its_samples_tau():
    # a converged k = 2 field's displaced points each start from the tau of
    # their sample's lane, as one-point solves started there do; the kernel
    # is d_x, which no potential reads, so no point takes a Newton step
    field, surf, pots = example2_grid_field()
    resolver, seen = field.resolver, []

    def recorded(env, lanes):
        seen.append((env, lanes, resolver(env, lanes)))
        return seen[-1][2]

    field.resolver = recorded
    constancy_along_kernel(field, ex2_elements(), range(20), 1e-5)
    (env, lanes, got), = seen
    assert len(lanes) == 40 and not got.iters.any()
    for i, lane in enumerate(lanes):
        one = solve_implicit(surf, pots, {nm: v[i:i + 1] for nm, v in
                                          env.items()},
                             ImplicitSolveConfig(initial_guess=field.tau[lane]),
                             params={}, space=EX2.space)
        assert_lanes_bitwise(lanes_of(got, [i]), one)


def test_residual_report_double_wave():
    field = small_field()
    rep = residual_report(EX2, field, fd_jacobian_batch(field, h=1e-5),
                          h=1e-5)
    assert rep.max < 1e-6
    assert rep.failures == []


def test_recover_decomposition_double_wave():
    field = small_field()
    plus, minus = ex2_elements()
    for idx in range(0, field.n, 7):
        env = point_env(field, idx)
        J = np.array([[0.0, 0.0, -1.0 / float(env["y"])], [1.0, 0.0, 0.0]])
        rec = recover_at(J, [plus, minus], env)
        assert np.allclose(rec.xi, [0.5, 0.5], atol=1e-10)
        assert rec.reconstruction_error < 1e-10
        assert rec.rank == 2


def test_recover_decomposition_zero_jacobian():
    plus, minus = ex2_elements()
    env = {"t": 1.5, "x": 2.0, "y": 0.5, "u1": 1.2, "u2": 0.3}
    rec = recover_at(np.zeros((2, 3)), [plus, minus], env)
    assert np.allclose(rec.xi, 0.0, atol=1e-12)
    assert rec.rank == 0


def test_recover_decomposition_orthogonal_component():
    plus, minus = ex2_elements()
    env = {"t": 1.5, "x": 2.0, "y": 0.5, "u1": 1.2, "u2": 0.3}
    J = field_orthogonal = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    rec = recover_at(J, [plus, minus], env)
    assert rec.reconstruction_error > 0.5


def test_recover_decomposition_degenerate():
    plus, _ = ex2_elements()
    env = {"t": 1.5, "x": 2.0, "y": 0.5, "u1": 1.2, "u2": 0.3}
    with pytest.raises(DegenerateElements):
        recover_at(np.zeros((2, 3)), [plus, plus], env)


def test_recover_decomposition_stack_names_degenerate_index():
    # gamma = (u1, 1) and (u2, 1) on one covector: dyads dependent where u1 = u2
    lam = (Const(1), Const(0), Const(0))
    elems = [WaveElement(EX2.space, lam, (parse("u1", EX2.space), Const(1))),
             WaveElement(EX2.space, lam, (parse("u2", EX2.space), Const(1)))]
    n = 6
    env = {"t": np.full(n, 1.5), "x": np.full(n, 2.0), "y": np.full(n, 0.5),
           "u1": np.linspace(1.0, 2.0, n), "u2": np.full(n, -1.0)}
    recover_decomposition(np.zeros((n, 2, 3)), elems, env)
    env["u2"][3] = env["u1"][3]
    with pytest.raises(DegenerateElements, match="grid index 3"):
        recover_decomposition(np.zeros((n, 2, 3)), elems, env)


def test_recover_decomposition_stack_matches_pointwise_lstsq():
    rng = np.random.default_rng(3)
    plus, minus = ex2_elements()
    n = 200
    env = {"t": rng.uniform(1, 3, n), "x": rng.uniform(1, 3, n),
           "y": rng.uniform(0.2, 0.9, n), "u1": rng.uniform(0.3, 4, n),
           "u2": rng.uniform(-1, 1, n)}
    xi_true = np.where(rng.random((n, 2)) < 0.25, 0.0,
                       rng.uniform(0.5, 2, (n, 2)))
    G = np.stack([(exprmat.eval_vector(e.gamma, env)[:, :, None]
                   * exprmat.eval_vector(e.lam, env)[:, None, :]).reshape(n, 6)
                  for e in (plus, minus)], axis=2)
    J = (np.einsum("nij,nj->ni", G, xi_true)
         + 1e-3 * rng.standard_normal((n, 6))).reshape(n, 2, 3)
    rec = recover_decomposition(J, [plus, minus], env)
    assert rec.xi.shape == (n, 2) and rec.rank.shape == (n,)
    for i in range(n):
        want, *_ = np.linalg.lstsq(G[i], J[i].ravel(), rcond=None)
        assert np.max(np.abs(rec.xi[i] - want)) <= 1e-12 * np.max(np.abs(want))
        err = np.linalg.norm(G[i] @ want - J[i].ravel())
        assert abs(rec.reconstruction_error[i] - err) <= 1e-12 * max(err, 1e-3)
        assert rec.rank[i] == estimate_rank(np.linalg.svd(J[i:i + 1],
                                                         compute_uv=False))[0]


def test_recover_decomposition_synthesized_roundtrip():
    rng = np.random.default_rng(0)
    plus, minus = ex2_elements()
    for _ in range(50):
        env = {"t": rng.uniform(1, 3), "x": rng.uniform(1, 3),
               "y": rng.uniform(0.2, 0.9), "u1": rng.uniform(0.3, 4),
               "u2": rng.uniform(-1, 1)}
        xi_true = np.where(rng.random(2) < 0.25, 0.0, rng.uniform(0.5, 2, 2))
        from rwave import exprmat
        J = np.zeros((2, 3))
        for e, xv in zip((plus, minus), xi_true):
            lam = exprmat.eval_vector(e.lam, env)[0]
            gam = exprmat.eval_vector(e.gamma, env)[0]
            J += xv * np.outer(gam, lam)
        rec = recover_at(J, [plus, minus], env)
        assert np.max(np.abs(rec.xi - xi_true)) < 1e-10
        assert rec.rank == int(np.sum(xi_true != 0.0))


def test_estimate_rank_gap():
    assert estimate_rank([[1.0, 0.5, 1e-9]]).tolist() == [2]
    assert estimate_rank([[1.0, 1e-8]]).tolist() == [1]
    assert estimate_rank([[0.0]]).tolist() == [0]
    assert estimate_rank([[1.0, 0.9, 0.8]]).tolist() == [3]
    stack = [[1.0, 0.5, 1e-9], [1.0, 1e-8, 0.0], [0.0, 0.0, 0.0],
             [1.0, 0.9, 0.8]]
    assert estimate_rank(stack).tolist() == [2, 1, 0, 3]


def test_constancy_along_kernel_double_wave():
    field = small_field()
    plus, minus = ex2_elements()
    # the common kernel of the two covectors is d_x; u has no x dependence
    holds, worst = constancy_along_kernel(field, [plus, minus], range(20),
                                          1e-5)
    assert holds and worst < 1e-12, worst


def test_constancy_vacuous_when_covectors_span():
    field = small_field()
    elems = [
        WaveElement(EX2.space, (Const(1), Const(0), Const(0)), (Const(1), Const(0))),
        WaveElement(EX2.space, (Const(0), Const(1), Const(0)), (Const(0), Const(1))),
        WaveElement(EX2.space, (Const(0), Const(0), Const(1)), (Const(1), Const(1))),
    ]
    holds, worst = constancy_along_kernel(field, elems, range(4), 1e-5)
    assert holds and worst == 0.0


def test_fd_jacobian_batch_matches_pointwise():
    # a point's Jacobian does not depend on the other points of the batch:
    # a re-solve of three points alone gives the same rows
    for field in (small_field(), example3_field()):
        J = fd_jacobian_batch(field, h=1e-5)
        idx = [0, 5, 17]
        sub = field.resolve({nm: field.x[idx, j]
                             for j, nm in enumerate(field.x_names)},
                            np.array(idx))
        assert np.allclose(J[idx], fd_jacobian_batch(sub, h=1e-5), atol=1e-12)


def example3_field():
    pre = PRESETS["example3"]["solver"]
    surf = integrate_characteristic((Const(1),), [0.0], pre["s_range"],
                                    step=0.05, space=VarSpace((), ("u",)),
                                    s0=0.0)
    pot = parse("-(t*(u*m+u^2*k)) + m*ln(|x|) + k*ln(|y|)", EX3.space)
    rng = np.random.default_rng(5)
    n = 30
    grid = {"t": rng.uniform(0.1, 1.0, n), "x": rng.uniform(1, 3, n),
            "y": rng.uniform(1, 3, n)}
    cfg = ImplicitSolveConfig(initial_guess=np.array([-2.0]),
                              tau_window=tuple(pre["tau_window"]),
                              root_select="lowest")
    return solve_implicit(surf, [pot], grid, cfg, params={"m": 1.0, "k": 1.0},
                          space=EX3.space)


def test_constancy_along_kernel_batch_matches_pointwise():
    field = example3_field()
    lam = tuple(parse(s, EX3.space) for s in PRESETS["example3"]["lambdas"][0])
    elem = WaveElement(EX3.space, lam, (Const(1),))
    indices = range(0, field.n, 4)
    h = 1e-4
    holds, worst = constancy_along_kernel(field, [elem], indices, h)
    # reference: one re-solve per displaced point
    want = 0.0
    for idx in indices:
        rows = exprmat.eval_vector(lam, point_env(field, idx))
        _, s, vt = np.linalg.svd(rows)
        ker_dim = 3 - np.sum(s > 1e-10 * max(s[0], 1.0))
        for theta in (vt[2 - j] for j in range(ker_dim)):
            theta = theta / np.linalg.norm(theta)
            up = field.resolve({nm: np.array([field.x[idx, j] + h * theta[j]])
                                for j, nm in enumerate(field.x_names)},
                               np.array([idx]))
            dn = field.resolve({nm: np.array([field.x[idx, j] - h * theta[j]])
                                for j, nm in enumerate(field.x_names)},
                               np.array([idx]))
            want = max(want, float(np.max(np.abs(up.u[0] - dn.u[0])) / (2 * h)))
    assert holds == (want <= 1e-6)
    assert abs(worst - want) <= 1e-12
