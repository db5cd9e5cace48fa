import math

import numpy as np
import pytest

from rwave import exprmat
from rwave.expr import Box, ZeroVerdict, is_zero, simplify
from rwave.fixtures import load_fixture, system_from_dict
from rwave.system import check_m_property, homogenize

from .strategies import fixture_box


# target of homogenize(BROWNIAN) with the new variable named y
BROWNIAN_HOMOGENIZED = {
    "independent": ["t", "x", "y"],
    "dependent": ["a", "c"],
    "parameters": ["beta"],
    "A": [
        [["0", "0"], ["0", "-1"]],
        [["0", "(1+beta^2*x^2)/(a+y)"], ["1", "0"]],
        [["1", "0"], ["0", "1"]],
    ],
    "b": ["0", "0"],
}

# target of homogenize(TRAUTMAN) with the new variable named xhat
TRAUTMAN_HOMOGENIZED = {
    "independent": ["t", "x", "xhat"],
    "dependent": ["v0", "v1", "u"],
    "parameters": ["k"],
    "A": [
        [["1/(-(k^2*u))", "0", "0"],
         ["-(v0+xhat)/(-(k^2*u))", "0", "1"],
         ["-v1/(-(k^2*u))", "0", "0"]],
        [["0", "1/(k^2*u)", "0"],
         ["0", "-((v0+xhat)/(k^2*u))", "0"],
         ["0", "-(v1/(k^2*u))", "1"]],
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    ],
    "b": ["0", "0", "0"],
}


def consistent_jet(sys, env, rng):
    """Random Jacobian satisfying the system's residual at env exactly
    (solves the stacked linear constraint; adds a nullspace component)."""
    p, q, m = sys.p, sys.q, sys.m
    A = np.zeros((m, q * p))
    for i in range(p):
        Ai = exprmat.eval_matrix(sys.coeffs[i], env)[0]
        A[:, i::p] += Ai  # column block for d/dx^i: J[beta, i]
    b = exprmat.eval_vector(sys.source, env)[0]
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
        Mv = exprmat.eval_matrix(res.m_matrix, env)[0]
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
