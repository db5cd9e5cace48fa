from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwave import exprmat, geometry
from rwave.expr import (
    Bin,
    Box,
    Call,
    Const,
    Expr,
    Var,
    VarSpace,
    is_zero,
    parse,
    simplify,
)
from rwave.fixtures import load_fixture, PRESETS
from rwave.geometry import (
    DegenerateFrame,
    DependentElements,
    EmptyKernel,
    GeometryError,
    Verdict,
    WaveElement,
    check_kwave_conditions,
    decompose_in_frame,
    find_potential,
    kernel_elements,
    lie_bracket,
)

from .strategies import fixture_box, random_polynomial_vector

EX2 = load_fixture("example2")
EX2_BOX = fixture_box("example2")
DEP = EX2.space.dependent


def ex2_elements():
    lam_p = tuple(parse(s, EX2.space) for s in PRESETS["example2"]["lambdas"][0])
    lam_m = tuple(parse(s, EX2.space) for s in PRESETS["example2"]["lambdas"][1])
    gam_p = tuple(parse(s, EX2.space) for s in ("sqrt(u1)", "1"))
    gam_m = tuple(parse(s, EX2.space) for s in ("-sqrt(u1)", "1"))
    return (WaveElement(EX2.space, lam_p, gam_p, label="plus"),
            WaveElement(EX2.space, lam_m, gam_m, label="minus"))


def test_kernel_example2_plus():
    lam = tuple(parse(s, EX2.space) for s in PRESETS["example2"]["lambdas"][0])
    kers = kernel_elements(EX2, lam, EX2_BOX, rng=0)
    assert isinstance(kers, list) and len(kers) == 1
    gamma = kers[0]
    expected = (parse("sqrt(u1)", EX2.space), Const(1))
    rng = np.random.default_rng(1)
    # proportional to (sqrt(u1), 1): cross products vanish
    cross = simplify(Bin("-", Bin("*", gamma[0], expected[1]),
                         Bin("*", gamma[1], expected[0])))
    assert is_zero(cross, EX2_BOX, rng=rng)
    # wave-relation residual at 50 random points
    W = EX2.wave_matrix(lam)
    env = EX2_BOX.sample(rng, 50)
    resid = exprmat.eval_vector(exprmat.mat_vec(W, gamma), env, strict=False)
    assert np.nanmax(np.abs(resid)) < 1e-9


def test_kernel_noncharacteristic_raises():
    lam = tuple(parse(s, EX2.space) for s in ("1", "0", "0"))
    with pytest.raises(EmptyKernel):
        kernel_elements(EX2, lam, EX2_BOX, rng=0)


def test_kernel_diagonal_identity_raises():
    data = {
        "independent": ["x", "y"],
        "dependent": ["w1", "w2"],
        "parameters": [],
        "A": [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]],
        "b": ["0", "0"],
    }
    from rwave.fixtures import system_from_dict
    sys = system_from_dict(data)
    box = Box.from_dict({"x": (0, 1), "y": (0, 1), "w1": (0, 1), "w2": (0, 1)})
    with pytest.raises(EmptyKernel):
        kernel_elements(sys, (Const(1), Const(0)), box, rng=0)


def test_kernel_q1_example3():
    sys = load_fixture("example3")
    box = fixture_box("example3")
    lam = tuple(parse(s, sys.space) for s in PRESETS["example3"]["lambdas"][0])
    kers = kernel_elements(sys, lam, box, rng=0)
    assert kers == [(Const(1),)]


def test_kernel_numeric_sampler_q4():
    # block system with a two-dimensional kernel at lambda = (1, 0): the
    # kernel has no symbolic basis, and is refused rather than sampled
    data = {
        "independent": ["x", "y"],
        "dependent": ["w1", "w2", "w3", "w4"],
        "parameters": [],
        "A": [
            [["1", "0", "0", "0"], ["0", "1", "0", "0"],
             ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "0"], ["0", "0", "0", "0"],
             ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        ],
        "b": ["0", "0", "0", "0"],
    }
    from rwave.fixtures import system_from_dict
    sys = system_from_dict(data)
    box = Box.from_dict({n: (0.0, 1.0) for n in ("x", "y", "w1", "w2", "w3", "w4")})
    with pytest.raises(GeometryError, match="only available as a numeric") \
            as refused:
        kernel_elements(sys, (Const(1), Const(0)), box, rng=0)
    assert refused.type is GeometryError   # not EmptyKernel


def test_lie_bracket_pair_vanishes():
    plus, minus = ex2_elements()
    br = lie_bracket(plus.gamma, minus.gamma, DEP)
    rng = np.random.default_rng(2)
    for comp in br:
        assert is_zero(comp, EX2_BOX, rng=rng)


def test_lie_bracket_self_zero():
    plus, _ = ex2_elements()
    br = lie_bracket(plus.gamma, plus.gamma, DEP)
    assert all(simplify(c) == Const(0) for c in br)


def test_lie_bracket_hand_expansion():
    a = (Const(1), Const(0))
    b = (Var("u1"), Const(0))
    br = lie_bracket(a, b, ("u1", "u2"))
    assert simplify(br[0]) == Const(1)
    assert simplify(br[1]) == Const(0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bracket_antisymmetry_and_jacobi(seed):
    rng = np.random.default_rng(seed)
    names = ("u1", "u2", "u3")
    box = Box.from_dict({n: (-1.0, 1.0) for n in names})
    a = random_polynomial_vector(rng, names, 3)
    b = random_polynomial_vector(rng, names, 3)
    c = random_polynomial_vector(rng, names, 3)
    ab = lie_bracket(a, b, names)
    ba = lie_bracket(b, a, names)
    for x, y in zip(ab, ba):
        assert is_zero(simplify(Bin("+", x, y)), box, trials=20, rng=rng)
    jac = [simplify(Bin("+", Bin("+", x, y), z)) for x, y, z in zip(
        lie_bracket(a, lie_bracket(b, c, names), names),
        lie_bracket(b, lie_bracket(c, a, names), names),
        lie_bracket(c, lie_bracket(a, b, names), names))]
    for comp in jac:
        assert is_zero(comp, box, trials=20, rng=rng)


def test_decompose_identity_member():
    plus, minus = ex2_elements()
    dec = decompose_in_frame(plus.gamma, [plus.gamma, minus.gamma], EX2_BOX, rng=3)
    assert dec.involutive
    assert np.allclose(dec.coefficient_samples, [1.0, 0.0], atol=1e-9)


def test_decompose_bracket_zero_coefficients():
    plus, minus = ex2_elements()
    br = lie_bracket(plus.gamma, minus.gamma, DEP)
    dec = decompose_in_frame(br, [plus.gamma, minus.gamma], EX2_BOX, rng=4)
    assert dec.involutive
    assert np.allclose(dec.coefficient_samples, 0.0, atol=1e-9)


def test_decompose_orthogonal_complement_fails():
    box = Box.from_dict({"u1": (0.5, 1.5), "u2": (0.5, 1.5)})
    dec = decompose_in_frame((Const(1), Const(0)), [(Const(0), Const(1))],
                             box, rng=5)
    assert not dec.involutive
    assert dec.residual_max > 0.5


def test_decompose_degenerate_frame():
    box = Box.from_dict({"u1": (0.5, 1.5), "u2": (0.5, 1.5)})
    with pytest.raises(DegenerateFrame) as err:
        decompose_in_frame((Const(1), Const(0)),
                           [(Const(1), Const(1)), (Const(2), Const(2))],
                           box, rng=6)
    assert err.value.witness is not None


def test_decompose_matches_per_row_lstsq():
    # a vector outside the frame's span, and a frame that is not finite on
    # part of the box (those samples are skipped)
    names = ("u1", "u2", "u3")
    box = Box.from_dict({"u1": (0.5, 1.5), "u2": (-1.0, 1.0), "u3": (0.2, 2.0)})
    frame = [tuple(parse(e, names) for e in ("1", "u1", "sqrt(u2)")),
             tuple(parse(e, names) for e in ("u2", "1", "u1^2"))]
    v = tuple(parse(e, names) for e in ("u1*u2", "sqrt(u3)", "1"))
    dec = decompose_in_frame(v, frame, box, rng=7)
    env = box.sample(np.random.default_rng(7), 40)
    A = np.stack([exprmat.eval_vector(g, env, strict=False) for g in frame],
                 axis=2)
    b = exprmat.eval_vector(v, env, strict=False)
    want, resmax = [], 0.0
    for i in range(40):
        if np.all(np.isfinite(A[i])) and np.all(np.isfinite(b[i])):
            c, *_ = np.linalg.lstsq(A[i], b[i], rcond=None)
            want.append(c)
            resmax = max(resmax, float(np.max(np.abs(A[i] @ c - b[i]))))
    want = np.array(want)
    assert 0 < len(want) < 40
    assert dec.coefficient_samples.shape == want.shape
    assert np.all(np.abs(dec.coefficient_samples - want)
                  <= 1e-12 * np.max(np.abs(want)))
    assert abs(dec.residual_max - resmax) <= 1e-12 * resmax
    assert not dec.involutive


def test_decompose_degenerate_frame_names_first_dependent_sample():
    # the frame is NaN where u2 < 0 and dependent where u1 >= 0; the witness
    # is the first finite dependent sample, after earlier NaN and
    # independent ones
    u1, u2 = Var("u1"), Var("u2")
    nan_or_one = Bin("+", Const(1), Bin("*", Const(0), Call("sqrt", u2)))
    frame = [(nan_or_one, u1), (Const(1), Call("abs", u1))]
    box = Box.from_dict({"u1": (-1.0, 1.0), "u2": (-1.0, 1.0)})
    env = box.sample(np.random.default_rng(6), 40)
    finite = env["u2"] >= 0
    first = int(np.argmax(finite & (env["u1"] >= 0)))
    assert not finite[0] and np.any(finite[:first] & (env["u1"][:first] < 0))
    with pytest.raises(DegenerateFrame) as err:
        decompose_in_frame((Const(1), Const(0)), frame, box, rng=6)
    assert err.value.witness == {n: float(val[first]) for n, val in env.items()}


def ref_independence_min_singular(vectors, env_samples):
    """The per-sample loop the stacked check replaced."""
    mats = [exprmat.eval_vector(v, env_samples, strict=False) for v in vectors]
    n = max(m.shape[0] if m.ndim == 2 else 1 for m in mats)
    mats = [m if m.ndim == 2 else np.tile(m, (n, 1)) for m in mats]
    worst = np.inf
    worst_idx = 0
    for idx in range(n):
        M = np.stack([m[idx] for m in mats])
        if not np.all(np.isfinite(M)):
            continue
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] < worst:
            worst = float(sv[-1])
            worst_idx = idx
    return worst, worst_idx


def ref_triple_wedge_max(rows, env):
    """The per-sample loop the stacked check replaced."""
    mats = [exprmat.eval_vector(r, env, strict=False) for r in rows]
    n = max(m.shape[0] if m.ndim == 2 else 1 for m in mats)
    mats = [m if m.ndim == 2 else np.tile(m, (n, 1)) for m in mats]
    p = mats[0].shape[1]
    worst = 0.0
    witness = None
    for idx in range(n):
        M = np.stack([m[idx] for m in mats])
        if not np.all(np.isfinite(M)):
            continue
        norms = np.linalg.norm(M, axis=1)
        if np.any(norms < 1e-14):
            continue
        Mn = M / norms[:, None]
        for cols in combinations(range(p), 3):
            d = abs(np.linalg.det(Mn[:, cols]))
            if d > worst:
                worst = d
                witness = {name: float(v[idx]) for name, v in env.items()}
    return worst, witness


WEDGE_NAMES = ("x", "y", "z")


def wedge_env():
    """Samples: 1 has x < 0 (sqrt is NaN), 2 has x = y = 0 (zero rows),
    3 and 5 repeat 0 and 4 (tied extrema)."""
    x = np.array([0.5, -1.0, 0.0, 0.5, 1.5, 1.5, 0.3])
    y = np.array([0.2, 0.4, 0.0, 0.2, -0.7, -0.7, 0.9])
    z = np.array([1.1, 0.3, 0.6, 1.1, 0.4, 0.4, -0.2])
    return {"x": x, "y": y, "z": z}


def vecs(*rows):
    return [tuple(parse(e, WEDGE_NAMES) for e in row) for row in rows]


def assert_same_bits(got, want):
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


@pytest.mark.parametrize("vectors", [
    vecs(("x", "y", "1"), ("sqrt(x)", "y*z", "z")),
    vecs(("x", "y", "0"), ("1", "z", "x*y")),
    vecs(("1", "0", "0"), ("0", "2", "0")),
    vecs(("1", "0", "0"), ("x", "y", "z")),
    vecs(("x", "y"), ("z", "sqrt(x)")),
], ids=["nan-sample", "zero-row", "constants", "mixed", "two-by-two"])
def test_independence_min_singular_matches_loop_bitwise(vectors):
    env = wedge_env()
    got = geometry.independence_min_singular(vectors, env)
    want = ref_independence_min_singular(vectors, env)
    assert_same_bits(got[0], want[0])
    assert got[1] == want[1]


@pytest.mark.parametrize("rows", [
    vecs(("x", "y", "z"), ("sqrt(x)", "1", "z*y"), ("1", "x", "y^2")),
    vecs(("x", "y", "x*y", "1"), ("sqrt(x)", "z", "1", "y"),
         ("1", "x", "y^2", "z")),
    vecs(("x", "y", "x*y"), ("1", "z", "y"), ("z", "1", "x")),
    vecs(("1", "0", "0", "0"), ("0", "1", "0", "0"), ("0", "0", "1", "1")),
    vecs(("x", "y", "z"), ("2*x", "2*y", "2*z"), ("1", "z", "y")),
    vecs(("x", "y"), ("1", "z"), ("y", "1")),
], ids=["nan-sample", "p4", "zero-row", "constants", "zero-wedge", "p2"])
def test_triple_wedge_max_matches_loop_bitwise(rows):
    env = wedge_env()
    got = geometry._triple_wedge_max(rows, env)
    want = ref_triple_wedge_max(rows, env)
    assert_same_bits(got[0], want[0])
    assert got[1] == want[1]


def test_conditions_example2_all_hold():
    plus, minus = ex2_elements()
    report = check_kwave_conditions(EX2, [plus, minus], EX2_BOX, rng=7, trials=32)
    assert report.involutivity.holds
    assert report.cross_coefficients.holds
    assert report.lambda_profile.holds
    assert report.closedness.holds
    assert report.all_hold()


def test_conditions_single_element_vacuous_parts():
    plus, _ = ex2_elements()
    report = check_kwave_conditions(EX2, [plus], EX2_BOX, rng=8)
    assert report.cross_coefficients.holds
    assert report.lambda_profile.holds
    assert report.closedness.holds


def test_conditions_perturbed_lambda_fails_closedness():
    plus, minus = ex2_elements()
    lam_bad = (simplify(Bin("+", plus.lam[0], Var("x"))),) + plus.lam[1:]
    bad = WaveElement(EX2.space, lam_bad, plus.gamma, label="bad")
    report = check_kwave_conditions(EX2, [bad, minus], EX2_BOX, rng=9)
    assert report.closedness.verdict is Verdict.FAILS
    assert report.closedness.witness is not None
    assert report.closedness.magnitude > 1e-3


def test_conditions_relabel_invariance():
    plus, minus = ex2_elements()
    r1 = check_kwave_conditions(EX2, [plus, minus], EX2_BOX, rng=10)
    r2 = check_kwave_conditions(EX2, [minus, plus], EX2_BOX, rng=10)
    for a, b in zip((r1.involutivity, r1.cross_coefficients, r1.lambda_profile,
                     r1.closedness),
                    (r2.involutivity, r2.cross_coefficients, r2.lambda_profile,
                     r2.closedness)):
        assert a.verdict == b.verdict


def test_conditions_dependent_elements_raise():
    plus, _ = ex2_elements()
    clone = WaveElement(EX2.space, plus.lam, plus.gamma, label="clone")
    with pytest.raises(DependentElements):
        check_kwave_conditions(EX2, [plus, clone], EX2_BOX, rng=11)


def test_rescaling_freedom_keeps_wave_relation():
    plus, _ = ex2_elements()
    rng = np.random.default_rng(12)
    factor = parse("1+x^2", EX2.space)
    resc = plus.rescaled(factor)
    inverse_gamma = tuple(simplify(Bin("/", e, factor)) for e in plus.gamma)
    for gamma in (resc.gamma, inverse_gamma):
        for comp in exprmat.mat_vec(EX2.wave_matrix(resc.lam), gamma):
            assert is_zero(comp, EX2_BOX, rng=rng)


def test_find_potential_example2():
    rng = np.random.default_rng(13)
    plus, minus = ex2_elements()
    base = EX2_BOX.midpoint()
    for elem, expected in ((plus, "t - ln(|y|)/sqrt(u1)"),
                           (minus, "t + ln(|y|)/sqrt(u1)")):
        res = find_potential(elem, base, EX2_BOX, rng=rng)
        assert isinstance(res.phi, Expr)
        want = parse(expected, EX2.space)
        assert is_zero(simplify(res.phi - want), EX2_BOX, rng=rng)
        for i, name in enumerate(EX2.space.independent):
            back = simplify(res.phi.diff(name) - res.element.lam[i])
            assert is_zero(back, EX2_BOX, rng=rng)


def test_find_potential_example3():
    sys = load_fixture("example3")
    box = fixture_box("example3")
    rng = np.random.default_rng(14)
    lam = tuple(parse(s, sys.space) for s in PRESETS["example3"]["lambdas"][0])
    elem = WaveElement(sys.space, lam, (Const(1),), label="simple")
    res = find_potential(elem, box.midpoint(), box, rng=rng)
    assert isinstance(res.phi, Expr)
    want = parse("-(t*(u*m+u^2*k)) + m*ln(|x|) + k*ln(|y|)", sys.space)
    assert is_zero(simplify(res.phi - want), box, rng=rng)


def test_find_potential_coordinate_covector():
    space = VarSpace(("x1", "x2"), ("u",))
    box = Box.from_dict({"x1": (0, 1), "x2": (0, 1), "u": (0, 1)})
    elem = WaveElement(space, (Const(1), Const(0)), (Const(1),))
    res = find_potential(elem, box.midpoint(), box, rng=15)
    assert simplify(res.phi - Var("x1")) == Const(0)


def test_find_potential_integrating_factor():
    # (exp(-x1), exp(-x1), 0) is closed only after rescaling by exp(x1)
    space = VarSpace(("x1", "x2", "x3"), ("u",))
    box = Box.from_dict({"x1": (0.1, 1), "x2": (0.1, 1), "x3": (0.1, 1),
                         "u": (0.5, 1)})
    lam = (parse("exp(-x1)", space), parse("exp(-x1)", space), Const(0))
    elem = WaveElement(space, lam, (Const(1),))
    res = find_potential(elem, box.midpoint(), box, rng=16)
    assert res.factor != Const(1)
    rng = np.random.default_rng(17)
    for i, name in enumerate(space.independent):
        back = simplify(res.phi.diff(name) - res.element.lam[i])
        assert is_zero(back, box, rng=rng)


def test_find_potential_numeric_fallback_and_gradient():
    # exact but not a sum of univariate terms: lam = d_x(x1*x2^2) needs the
    # quadrature path
    space = VarSpace(("x1", "x2"), ("u",))
    box = Box.from_dict({"x1": (0.2, 1.0), "x2": (0.2, 1.0), "u": (0.5, 1)})
    lam = (parse("x2^2", space), parse("2*x1*x2", space))
    elem = WaveElement(space, lam, (Const(1),))
    res = find_potential(elem, {"x1": 0.2, "x2": 0.2}, box, rng=18)
    assert not isinstance(res.phi, Expr)
    pot = res.phi
    pt = {"x1": 0.7, "x2": 0.9, "u": 0.6}
    want = 0.7 * 0.9**2 - 0.2 * 0.2**2
    assert pot.evaluate(pt) == pytest.approx(want, abs=1e-10)
    pot.check_paths(pt)
