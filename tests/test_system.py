import math

import numpy as np
import pytest

from rwave import exprmat
from rwave.expr import Box, Const, VarSpace, ZeroVerdict, is_zero, parse, simplify
from rwave.fixtures import (
    BROWNIAN_HOMOGENIZED,
    TRAUTMAN_HOMOGENIZED,
    fixture_box,
    load_fixture,
    system_from_dict,
)
from rwave.system import (
    DomainError,
    SingularBlock,
    check_m_property,
    homogenize,
    split_simple_element,
)


def consistent_jet(sys, env, rng):
    """Random Jacobian satisfying the system's residual at env exactly
    (solves the stacked linear constraint; adds a nullspace component)."""
    p, q, m = sys.p, sys.q, sys.m
    A = np.zeros((m, q * p))
    for i in range(p):
        Ai = exprmat.eval_matrix(sys.coeffs[i], env)
        A[:, i::p] += Ai  # column block for d/dx^i: J[beta, i]
    b = exprmat.eval_vector(sys.source, env)
    Jflat, *_ = np.linalg.lstsq(A, b, rcond=None)
    # null space: the right singular vectors past the numerical rank
    _, sv, Vt = np.linalg.svd(A)
    rank = int(np.sum(sv > sv.max(initial=0.0) * max(A.shape) * np.finfo(float).eps))
    N = Vt[rank:].T
    if N.size:
        Jflat = Jflat + N @ rng.normal(size=N.shape[1])
    assert np.linalg.norm(A @ Jflat - b) < 1e-9
    return Jflat.reshape(q, p)


def test_residual_example2_double_wave_point():
    sys = load_fixture("example2")
    # analytic jet of u = (-ln|y|, t)
    for y in (0.5, 0.25, 0.75):  # dyadic so y*(1/y) rounds exactly
        pt = {"t": 2.0, "x": 5.0, "y": y}
        u = {"u1": -math.log(abs(y)), "u2": pt["t"]}
        J = np.array([[0.0, 0.0, -1.0 / y], [1.0, 0.0, 0.0]])
        res = sys.residual_at(pt, u, J)
        assert res[0] == 0.0 and res[1] == 0.0
    rng = np.random.default_rng(0)
    for _ in range(100):
        pt = {"t": rng.uniform(1, 3), "x": rng.uniform(1, 3), "y": rng.uniform(0.2, 0.9)}
        u = {"u1": -math.log(pt["y"]), "u2": pt["t"]}
        J = np.array([[0.0, 0.0, -1.0 / pt["y"]], [1.0, 0.0, 0.0]])
        assert np.max(np.abs(sys.residual_at(pt, u, J))) < 1e-14


def test_residual_zero_jet_homogeneous():
    sys = load_fixture("example2")
    res = sys.residual_at({"t": 1.0, "x": 1.0, "y": 0.5}, {"u1": 1.0, "u2": 0.0},
                          np.zeros((2, 3)))
    assert np.all(res == 0.0)


def example3_closed_form(t, x, y, c=1.0, m=1.0, k=1.0):
    L = math.log(x**m * y**k)
    disc = 4 * c * c * k * t * L + (c * m * t + 1) ** 2
    return -(math.sqrt(disc) + c * t * m + 1) / (2 * c * k * t)


def test_residual_example3_closed_form_fd():
    sys = load_fixture("example3")
    t, x, y = 0.5, 2.0, 3.0
    h = 1e-5
    u = example3_closed_form(t, x, y)
    J = np.array([[
        (example3_closed_form(t + h, x, y) - example3_closed_form(t - h, x, y)) / (2 * h),
        (example3_closed_form(t, x + h, y) - example3_closed_form(t, x - h, y)) / (2 * h),
        (example3_closed_form(t, x, y + h) - example3_closed_form(t, x, y - h)) / (2 * h),
    ]])
    res = sys.residual_at({"t": t, "x": x, "y": y, "m": 1.0, "k": 1.0}, [u], J)
    assert np.max(np.abs(res)) < 1e-6


def _assert_same_system(result_sys, golden_dict, box, rng):
    golden = system_from_dict(golden_dict)
    assert result_sys.space.independent == golden.space.independent
    for A, G in zip(result_sys.coeffs, golden.coeffs):
        for ra, rg in zip(A, G):
            for ea, eg in zip(ra, rg):
                chk = is_zero(simplify(ea - eg), box, rng=rng)
                assert chk.verdict is ZeroVerdict.PROBABLY_ZERO, (str(ea), str(eg))
    for ea, eg in zip(result_sys.source, golden.source):
        assert is_zero(simplify(ea - eg), box, rng=rng)


def test_homogenize_brownian_matches_target():
    sys = load_fixture("brownian")
    box = fixture_box("brownian")
    rng = np.random.default_rng(5)
    res = homogenize(sys, box=box, rng=rng, new_var="y")
    assert res.substitution.new_var == "y"
    assert res.system.space.independent == ("t", "x", "y")
    assert res.system.is_homogeneous()
    _assert_same_system(res.system, BROWNIAN_HOMOGENIZED, box, rng)
    # last coefficient matrix is the identity
    assert res.system.coeffs[-1] == exprmat.identity(2)
    for chk in check_m_property(res, sys, box, rng=rng, threshold=1e-12):
        assert chk.verdict is ZeroVerdict.PROBABLY_ZERO
    # M invertible at sampled points
    for _ in range(20):
        env = {n: v[0] for n, v in box.sample(rng, 1).items()}
        Mv = exprmat.eval_matrix(res.m_matrix, env)
        assert np.isfinite(np.linalg.cond(Mv))


def test_homogenize_trautman_matches_target():
    sys = load_fixture("trautman")
    box = fixture_box("trautman")
    rng = np.random.default_rng(6)
    res = homogenize(sys, box=box, rng=rng, new_var="xhat")
    _assert_same_system(res.system, TRAUTMAN_HOMOGENIZED, box, rng)
    for chk in check_m_property(res, sys, box, rng=rng, threshold=1e-12):
        assert chk.verdict is ZeroVerdict.PROBABLY_ZERO


@pytest.mark.parametrize("name", ["brownian", "trautman"])
def test_homogenize_solution_transport(name):
    sys = load_fixture(name)
    box = fixture_box(name)
    rng = np.random.default_rng(7)
    res = homogenize(sys, box=box, rng=rng)
    new = res.system
    nv = res.substitution.new_var
    for _ in range(50):
        env = {n: float(v[0]) for n, v in box.sample(rng, 1).items()
               if n in sys.space.all_names}
        J = consistent_jet(sys, env, rng)
        assert np.max(np.abs(sys.residual_at(
            env, {k: env[k] for k in sys.space.dependent}, J))) < 1e-9
        xnew = float(rng.uniform(-0.4, 0.4))
        env2 = dict(env)
        env2[nv] = xnew
        env2[sys.space.dependent[0]] = env[sys.space.dependent[0]] - xnew
        J2 = res.transport_jet(J)
        out = new.residual_at(env2, {k: env2[k] for k in new.space.dependent}, J2)
        assert np.max(np.abs(out)) < 1e-9


def test_homogenize_already_homogeneous_flagged():
    sys = load_fixture("example2")
    res = homogenize(sys)
    assert res.all_sources_zero
    assert res.system is sys
    assert res.m_matrix == exprmat.identity(2)


def test_homogenize_permutes_rows():
    space_data = {
        "independent": ["t", "x"],
        "dependent": ["a", "c"],
        "parameters": [],
        "A": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
        "b": ["0", "a"],
    }
    sys = system_from_dict(space_data)
    box = Box.from_dict({"t": (0, 1), "x": (0, 1), "a": (0.5, 2), "c": (-1, 1)})
    rng = np.random.default_rng(8)
    res = homogenize(sys, box=box, rng=rng)
    assert res.substitution.row_permutation == (1, 0)
    with pytest.raises(DomainError):
        homogenize(sys, box=box, rng=rng, permute=False)


def test_split_properly_determined_zero_source():
    sys = load_fixture("example2")
    lam = [parse(s, sys.space) for s in ("1", "1", "1")]
    split = split_simple_element(sys, lam, q_h=2)
    pt = {"t": 1.0, "x": 1.5, "y": 0.5, "u1": 2.0, "u2": 0.3}
    g1 = split.gamma1(pt, gamma2=())
    assert np.allclose(g1, 0.0, atol=1e-12)


def test_split_example2_recovers_characteristic_component():
    sys = load_fixture("example2")
    lam = [parse(s, sys.space) for s in ("1", "0", "-(1/(y*sqrt(u1)))")]
    split = split_simple_element(sys, lam, q_h=1)
    pt = {"t": 1.0, "x": 1.5, "y": 0.5, "u1": 4.0, "u2": 0.3}
    g1 = split.gamma1(pt, gamma2=[1.0])
    assert g1[0] == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(split.relation_residual(pt, gamma2=[1.0]))) < 1e-10


def test_split_random_underdetermined_property():
    rng = np.random.default_rng(9)
    space = VarSpace(("x", "y"), ("w1", "w2", "w3"))
    for trial in range(20):
        data = {
            "independent": ["x", "y"],
            "dependent": ["w1", "w2", "w3"],
            "parameters": [],
            "A": [
                [[repr(rng.uniform(-2, 2)) for _ in range(3)] for _ in range(2)],
                [[repr(rng.uniform(-2, 2)) for _ in range(3)] for _ in range(2)],
            ],
            "b": [repr(rng.uniform(-1, 1)), repr(rng.uniform(-1, 1))],
        }
        sys = system_from_dict(data)
        lam = [Const(float(rng.uniform(0.5, 1.5))), Const(float(rng.uniform(0.5, 1.5)))]
        split = split_simple_element(sys, lam, q_h=2)
        pt = {"x": 1.0, "y": 1.0, "w1": 0.0, "w2": 0.0, "w3": 0.0}
        g2 = [float(rng.uniform(-1, 1))]
        assert np.max(np.abs(split.relation_residual(pt, gamma2=g2))) < 1e-10


def test_split_singular_block_reports_condition():
    data = {
        "independent": ["x"],
        "dependent": ["w1", "w2"],
        "parameters": [],
        "A": [[["1", "0"], ["1", "0"]]],  # columns dependent -> singular block
        "b": ["0", "1"],
    }
    sys = system_from_dict(data)
    split = split_simple_element(sys, [Const(1)], q_h=2)
    with pytest.raises(SingularBlock):
        split.gamma1({"x": 0.0, "w1": 0.0, "w2": 0.0}, gamma2=())


def test_independence_check_detects_spurious_new_variable_dependence():
    from rwave.system import independence_check
    sys_in = load_fixture("brownian")
    box = fixture_box("brownian")
    rng = np.random.default_rng(21)
    res = homogenize(sys_in, box=box, rng=rng, new_var="y")
    pts = [{"t": 0.3, "x": 0.1, "y": 0.2}, {"t": 0.7, "x": -0.4, "y": -0.1}]

    def transported(pt):
        # a genuine shift of a y-independent profile
        base = np.array([1.5 + 0.2 * pt["t"], 0.3 * pt["x"]])
        return base - np.array([pt["y"], 0.0])

    ok, worst = independence_check(sys_in, res, transported, pts)
    assert ok and worst < 1e-8

    def spurious(pt):
        return np.array([1.5 + pt["y"] ** 2, 0.3])

    ok, worst = independence_check(sys_in, res, spurious, pts)
    assert not ok and worst > 1e-3
