import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwave import exprmat
from rwave.expr import (
    Bin,
    Box,
    Call,
    Const,
    DomainExhausted,
    EvalDomainError,
    MissingVariableError,
    ParseError,
    UnknownIdentifierError,
    Var,
    VarSpace,
    ZeroVerdict,
    antiderivative,
    compile_exprs,
    is_zero,
    parse,
    simplify,
)

from .strategies import expr_strategy

SPACE = VarSpace(independent=("x", "y"), dependent=("u1", "u2"), parameters=("b",))
NAMES = ("x", "y", "u1", "u2")
BOX = Box.from_dict({n: (-1.5, 1.5) for n in NAMES})


def test_parse_product_eval():
    e = parse("x*u1", SPACE)
    assert e.evaluate({"x": 2.0, "u1": 3.0}) == 6.0


def test_parse_brownian_coefficient():
    e = parse("(1+b^2*x^2)", SPACE)
    assert e.evaluate({"b": 2.0, "x": 3.0}) == pytest.approx(37.0)


def test_parse_ln_abs_sugar():
    e = parse("ln(|y|)", VarSpace((), ("y",)))
    assert e.evaluate({"y": -math.e}) == pytest.approx(1.0)


def test_parse_precedence_and_power_assoc():
    e = parse("2+3*4^2", SPACE)
    assert e.evaluate({}) == 50.0
    e = parse("2^3^2", SPACE)
    assert e.evaluate({}) == 512.0
    e = parse("-2^2", SPACE)
    assert e.evaluate({}) == -4.0


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as err:
        parse("x + (y *", SPACE)
    assert "byte" in str(err.value)
    with pytest.raises(UnknownIdentifierError) as err:
        parse("x + zz", SPACE)
    assert "zz" in str(err.value)
    with pytest.raises(ParseError):
        parse("x $ y", SPACE)


def test_diff_product():
    e = parse("x*u1", SPACE)
    assert simplify(e.diff("x")) == Var("u1")


def test_diff_sqrt_value():
    e = parse("sqrt(u1)", SPACE)
    d = e.diff("u1")
    assert d.evaluate({"u1": 4.0}) == pytest.approx(0.25)
    h = 1e-6
    fd = (e.evaluate({"u1": 4.0 + h}) - e.evaluate({"u1": 4.0 - h})) / (2 * h)
    assert d.evaluate({"u1": 4.0}) == pytest.approx(fd, rel=1e-8)


def test_diff_constant_and_absent_variable():
    assert simplify(Const(7).diff("x")) == Const(0)
    e = parse("u1*u2 + sin(u1)", SPACE)
    assert simplify(e.diff("x")) == Const(0)


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        parse("sqrt(x)", SPACE).evaluate({"x": -1.0})
    with pytest.raises(EvalDomainError):
        parse("ln(x)", SPACE).evaluate({"x": -1.0})
    with pytest.raises(EvalDomainError):
        parse("1/x", SPACE).evaluate({"x": 0.0})
    with pytest.raises(EvalDomainError):
        parse("x^(1/2)", SPACE).evaluate({"x": -2.0})
    # non-strict evaluation masks with NaN instead
    v = parse("sqrt(x)", SPACE).evaluate({"x": np.array([1.0, -1.0])}, strict=False)
    assert np.isnan(v[1]) and v[0] == 1.0


def test_eval_array_broadcast():
    e = parse("x*u1 + y", SPACE)
    out = e.evaluate({"x": np.array([1.0, 2.0]), "u1": np.array([3.0, 4.0]),
                      "y": 1.0})
    assert np.allclose(out, [4.0, 9.0])


def test_is_zero_identity():
    e = parse("sqrt(u1)*(1/sqrt(u1)) - 1", SPACE)
    box = Box.from_dict({"u1": (1.0, 4.0)})
    assert is_zero(e, box, trials=32, rng=0).verdict is ZeroVerdict.PROBABLY_ZERO


def test_is_zero_nonzero_product():
    e = parse("x*u1", SPACE)
    box = Box.from_dict({"x": (1.0, 2.0), "u1": (1.0, 2.0)})
    res = is_zero(e, box, rng=0)
    assert res.verdict is ZeroVerdict.PROVABLY_NONZERO
    assert res.witness is not None and abs(res.value) > 1e-9


def test_is_zero_domain_exhausted():
    e = parse("sqrt(x)", SPACE)
    box = Box.from_dict({"x": (-2.0, -1.0)})
    with pytest.raises(DomainExhausted):
        is_zero(e, box, rng=0)


def test_simplify_rules():
    x = Var("x")
    assert simplify(Bin("+", x, Const(0))) == x
    assert simplify(Bin("-", x, x)) == Const(0)
    assert simplify(Bin("/", x, x)) == Const(1)
    assert simplify(Bin("*", Const(1), x)) == x
    assert simplify(Bin("*", Const(0), x)) == Const(0)
    e = Bin("*", Call("exp", x), Call("exp", Call("neg", x)))
    assert simplify(e) == Const(1)


def test_antiderivative_table():
    space = VarSpace(("x", "y"), ("u",), ("m",))
    cases = [
        ("m/x", "x", "m*ln(|x|)"),
        ("x^2", "x", "x^3/3"),
        ("exp(2*x)", "x", "exp(2*x)/2"),
        ("-1/(y*sqrt(u))", "y", "-(ln(|y|)/sqrt(u))"),
        ("u*m + 3", "x", "(u*m+3)*x"),
    ]
    rng = np.random.default_rng(1)
    box = Box.from_dict({"x": (0.5, 2.0), "y": (0.5, 2.0), "u": (0.5, 2.0),
                         "m": (0.5, 2.0)})
    for text, var, expected in cases:
        e = parse(text, space)
        F = antiderivative(e, var)
        assert F is not None, text
        check = simplify(F.diff(var) - e)
        assert is_zero(check, box, rng=rng), (text, str(F))
        Fe = parse(expected, space)
        assert is_zero(simplify(F - Fe), box, rng=rng), (str(F), expected)
    assert antiderivative(parse("ln(x+y)", space), "x") is None


@settings(max_examples=60, deadline=None)
@given(expr_strategy(NAMES, max_depth=6))
def test_roundtrip_print_parse(e):
    rng = np.random.default_rng(7)
    env = BOX.sample(rng, 20)
    back = parse(str(e), SPACE)
    v1 = np.asarray(e.evaluate(env, strict=False), dtype=float)
    v2 = np.asarray(back.evaluate(env, strict=False), dtype=float)
    ok = np.isfinite(v1)
    assert np.allclose(v1[ok], np.broadcast_to(v2, v1.shape)[ok],
                       rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(expr_strategy(NAMES, max_depth=6))
def test_diff_matches_finite_difference(e):
    rng = np.random.default_rng(11)
    d = e.diff("x")
    h = 1e-6
    pts = BOX.sample(rng, 20)
    up = dict(pts, x=pts["x"] + h)
    dn = dict(pts, x=pts["x"] - h)
    with np.errstate(all="ignore"):
        fd = (np.asarray(e.evaluate(up, strict=False), dtype=float)
              - np.asarray(e.evaluate(dn, strict=False), dtype=float)) / (2 * h)
        dv = np.asarray(d.evaluate(pts, strict=False), dtype=float)
    fd = np.broadcast_to(fd, (20,))
    dv = np.broadcast_to(dv, (20,))
    ok = np.isfinite(fd) & np.isfinite(dv)
    # abs has a kink; skip samples too close to it where FD is one-sided
    scale = 1.0 + np.abs(fd[ok]) + np.abs(dv[ok])
    assert np.all(np.abs(fd[ok] - dv[ok]) <= 1e-4 * scale)


@settings(max_examples=40, deadline=None)
@given(expr_strategy(NAMES, max_depth=5))
def test_is_zero_self_difference(e):
    from rwave.expr import Bin
    diff = Bin("-", e, e)
    res = is_zero(diff, BOX, trials=16, rng=3)
    assert res.verdict is ZeroVerdict.PROBABLY_ZERO


def test_simplify_diff_absent_is_structural_zero():
    e = parse("sqrt(1+u1^2)*sin(u2)", SPACE)
    assert simplify(e.diff("x")) == Const(0)


def assert_bitwise(got, want):
    got = np.ascontiguousarray(got, dtype=float)
    want = np.ascontiguousarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (got, want)


def assert_kernel_matches_tree_walk(exprs, env):
    got = compile_exprs(exprs)(env)
    lanes = max([len(v) for v in env.values() if np.ndim(v)], default=1)
    assert got.shape == (lanes, len(exprs))
    for j, e in enumerate(exprs):
        want = np.asarray(e.evaluate(env, strict=False), dtype=float)
        assert_bitwise(got[:, j], np.broadcast_to(want, (lanes,)))


CONSTANT_EXPRS = expr_strategy(NAMES).map(
    lambda e: e.substitute({n: Const(0.5) for n in NAMES}))


@settings(max_examples=80, deadline=None)
@given(a=expr_strategy(NAMES), b=expr_strategy(NAMES), c=CONSTANT_EXPRS,
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_kernel_matches_tree_walk_bitwise(a, b, c, seed):
    # shared subexpressions across the tuple, a repeated entry and a
    # constant-only entry that must broadcast to every lane
    exprs = (a, b, c, Bin("+", a, b), Bin("*", Call("sin", a), c), a)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.5, 1.5, (len(NAMES), 7))
    assert_kernel_matches_tree_walk(
        exprs, {n: float(v[0]) for n, v in zip(NAMES, values)})
    for lanes in (1, 7):
        assert_kernel_matches_tree_walk(
            exprs, {n: v[:lanes] for n, v in zip(NAMES, values)})


def test_compiled_kernel_nan_lanes_and_signed_zeros():
    x = Var("x")
    exprs = (Call("sqrt", x), Call("ln", x), Bin("/", Const(1), x),
             Bin("^", x, Const(0.5)), Bin("^", x, Const(-1)),
             # equal as expressions, but 1/(x*-0.0) and 1/(x*0.0) differ
             Bin("/", Const(1.0), Bin("*", x, Const(-0.0))),
             Bin("/", Const(1.0), Bin("*", x, Const(0.0))),
             Bin("/", Const(1), Const(0)), Call("neg", Const(0.0)))
    for env in ({"x": np.array([-1.0, 0.0, -0.0, 2.0, np.inf, np.nan])},
                {"x": -1.0}, {"x": np.array([0])}):
        assert_kernel_matches_tree_walk(exprs, env)


def test_eval_vector_and_matrix_shape_contract():
    # over n lanes every entry gets a lane axis, constant entries included;
    # a point env keeps the point shape; values are the tree-walk's bits
    v = (Const(2), parse("x*u1", SPACE), Const(0.5))
    A = ((Const(1), parse("sqrt(y)", SPACE)), (parse("x - u1", SPACE), Const(-3)))
    consts_v = (Const(1), Const(-0.25))
    consts_A = ((Const(1), Const(2)), (Const(0), Const(4)))
    rng = np.random.default_rng(8)
    n = 6
    lanes = {"x": rng.uniform(-1, 1, n), "y": rng.uniform(-1, 1, n),
             "u1": rng.uniform(-1, 1, n), "u2": np.float64(0.3)}
    point = {name: float(val[0]) if np.ndim(val) else float(val)
             for name, val in lanes.items()}
    for env, lead in ((lanes, (n,)), (point, ())):
        for vec in (v, consts_v):
            got = exprmat.eval_vector(vec, env, strict=False)
            assert got.shape == lead + (len(vec),)
            for j, e in enumerate(vec):
                assert_bitwise(got[..., j], np.broadcast_to(np.asarray(
                    e.evaluate(env, strict=False), dtype=float), lead))
        for mat in (A, consts_A):
            got = exprmat.eval_matrix(mat, env, strict=False)
            assert got.shape == lead + (2, 2)
            for i, row in enumerate(mat):
                for j, e in enumerate(row):
                    assert_bitwise(got[..., i, j], np.broadcast_to(np.asarray(
                        e.evaluate(env, strict=False), dtype=float), lead))


def test_compiled_kernel_missing_variable_raises():
    kernel = compile_exprs((parse("x*u1", SPACE), Const(1)))
    with pytest.raises(MissingVariableError, match="'u1'"):
        kernel({"x": np.ones(3)})
    assert compile_exprs((Const(1),))({}).shape == (1, 1)


def reference_fold(terms):
    # the hand-rolled sum the matrix, bracket and contraction helpers built
    acc = Const(0)
    for t in terms:
        acc = Bin("+", acc, t)
    return simplify(acc)


@settings(max_examples=40, deadline=None)
@given(entries=st.lists(expr_strategy(NAMES, max_depth=4), min_size=6,
                        max_size=6))
def test_symbolic_sums_match_left_fold(entries):
    A = (tuple(entries[:3]), tuple(entries[3:]))        # 2 x 3
    B = tuple((e,) for e in entries[:3])                # 3 x 1
    assert exprmat.sum_exprs(()) == Const(0)
    assert exprmat.sum_exprs(entries) == reference_fold(entries)
    assert exprmat.mat_vec(A, entries[:3]) == tuple(
        reference_fold(Bin("*", a, x) for a, x in zip(row, entries[:3]))
        for row in A)
    assert exprmat.mat_mul(A, B) == tuple(
        (reference_fold(Bin("*", row[k], B[k][0]) for k in range(3)),)
        for row in A)
