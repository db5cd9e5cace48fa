import gc
import math
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwave import expr, exprmat
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


@pytest.mark.parametrize("text, var, expected", [
    ("(-2)*y/(y^2 + 1)", "y", "-ln(y^2+1)"),
    ("2*(y^2 + 1)*x/(x^2 + 1)", "x", "(y^2+1)*ln(x^2+1)"),
    ("exp(y)/(exp(y)+1)", "y", "ln(exp(y)+1)"),
])
def test_antiderivative_log_derivative_table(text, var, expected):
    rng = np.random.default_rng(2)
    box = Box.from_dict({"x": (-2.0, 2.0), "y": (-2.0, 2.0)})
    e = parse(text, ("x", "y"))
    F = antiderivative(e, var)
    assert F is not None, text
    assert is_zero(simplify(F.diff(var) - e), box, rng=rng), (text, str(F))
    assert is_zero(simplify(F - parse(expected, ("x", "y"))), box, rng=rng)


@pytest.mark.parametrize("text, var", [
    ("3*x^2/(x^3 + 1)", "x"),       # odd power: x^3 + 1 changes sign
    ("2*y/(y^2 - 1)", "y"),         # a difference proves no sign
    ("cos(y)/(sin(y) + 2)", "y"),   # positive, but sin is outside the rule
])
def test_antiderivative_log_derivative_needs_a_provably_positive_divisor(
        text, var):
    # each numerator is the derivative of the divisor, so only the sign
    # rule refuses
    assert antiderivative(parse(text, ("x", "y")), var) is None


def _in_x(rest):
    """a*x + rest, a nonzero integer: a part that depends on x."""
    return st.tuples(st.sampled_from([-2, -1, 1, 2]), rest).map(
        lambda t: Bin("+", Bin("*", Const(t[0]), Var("x")), t[1]))


@st.composite
def provably_positive(draw):
    """A sum, positive by the sign rule, of two parts that depend on x."""
    rest = expr_strategy(("y", "z"), max_depth=4)
    a, b = draw(_in_x(rest)), draw(_in_x(rest))
    c = Const(draw(st.sampled_from([1, 2, 0.5, 1.75])))
    square_b = Bin("^", b, Const(2))
    positive = draw(st.sampled_from([
        Call("exp", a),
        Bin("+", Bin("^", a, Const(2)), c),
        Bin("/", Call("exp", a), Bin("+", square_b, c)),
    ]))
    nonnegative = draw(st.sampled_from([square_b, Call("abs", b),
                                        Bin("*", c, Call("exp", b))]))
    return Bin("+", positive, nonnegative)


@settings(max_examples=80, deadline=None)
@given(provably_positive(), expr_strategy(("y", "z"), max_depth=4))
def test_antiderivative_of_a_log_derivative_differentiates_back(D, kappa):
    # the rule recognizes kappa by cancelling dD/dx syntactically, so the
    # integrand is built from the form of D that simplify leaves
    D = simplify(D)
    e = Bin("/", Bin("*", kappa, D.diff("x")), D)
    F = antiderivative(e, "x")
    assert F is not None, str(e)
    box = Box.from_dict({n: (-1.5, 1.5) for n in ("x", "y", "z")})
    check = simplify(F.diff("x") - e)
    assert is_zero(check, box, rng=np.random.default_rng(0)).verdict \
        is ZeroVerdict.PROBABLY_ZERO, (str(e), str(F))


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


def test_fractional_constant_operands_print_and_parse_back():
    # printed bare, 3/2 as an operand parses as two: x^3/2 is (x^3)/2
    x = Var("x")
    half = Const(Fraction(1, 2))
    env = {"x": np.array([0.25, 2.0, 7.0])}
    for e, text in ((Bin("^", x, Const(Fraction(3, 2))), "x^(3/2)"),
                    (Bin("/", x, half), "x/(1/2)"),
                    (antiderivative(Bin("/", Const(1), Bin("^", x, half)), "x"),
                     "x^(1/2)/(1/2)")):
        assert str(e) == text
        assert np.array_equal(parse(text, ("x",)).evaluate(env),
                              e.evaluate(env))


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
             # 0.0 and -0.0 are two nodes, and 1/(x*-0.0) and 1/(x*0.0) differ
             Bin("/", Const(1.0), Bin("*", x, Const(-0.0))),
             Bin("/", Const(1.0), Bin("*", x, Const(0.0))),
             Bin("/", Const(1), Const(0)), Call("neg", Const(0.0)))
    for env in ({"x": np.array([-1.0, 0.0, -0.0, 2.0, np.inf, np.nan])},
                {"x": -1.0}, {"x": np.array([0])}):
        assert_kernel_matches_tree_walk(exprs, env)


def test_compiled_kernel_folds_deep_constant_trees_bitwise(monkeypatch):
    # a chain of 300 constant nodes, each on the one before and another
    # node or leaf, with -0.0, NaN and ^(3/2) among them: every node is
    # folded from its children's values in one operation, with the
    # tree-walk's bits, and only the leaves are evaluated
    rng = np.random.default_rng(21)
    three_halves = Const(Fraction(3, 2))
    leaves = [Const(-0.0), Const(0.0), Const(float("nan")), Const(2),
              Const(-1.75), three_halves, Const(0.3), Const(1e300)]
    nodes = list(leaves)
    for _ in range(300):
        a, b = nodes[-1], nodes[rng.integers(len(nodes))]
        kind = rng.integers(4)
        if kind == 0:
            pair = (a, b) if rng.random() < 0.5 else (b, a)
            nodes.append(Bin(str(rng.choice(list("+-*/"))), *pair))
        elif kind == 1:
            nodes.append(Bin("^", a, three_halves))
        elif kind == 2:
            nodes.append(Call(str(rng.choice(expr.FUNCTION_NAMES)), a))
        else:
            nodes.append(leaves[rng.integers(len(leaves))])
    exprs = (*nodes, Bin("*", Var("x"), nodes[-1]), Bin("+", nodes[150],
                                                       Var("x")))
    env = {"x": np.array([-1.0, -0.0, 2.5])}
    want = [np.broadcast_to(np.asarray(e.evaluate(env, strict=False),
                                       dtype=float), (3,)) for e in exprs]
    leaf_calls = []
    const_evaluate = Const.evaluate

    def leaf(self, env, strict=True):
        leaf_calls.append(self)
        return const_evaluate(self, env, strict)

    def refuse(self, env, strict=True):
        raise AssertionError(f"{self} evaluated as a subtree")

    monkeypatch.setattr(Const, "evaluate", leaf)
    monkeypatch.setattr(Bin, "evaluate", refuse)
    monkeypatch.setattr(Call, "evaluate", refuse)
    got = compile_exprs(exprs)(env)
    assert len(leaf_calls) == len(set(leaf_calls)) <= len(leaves)
    for j, w in enumerate(want):
        assert_bitwise(got[:, j], w)
    # the chain reaches finite values, NaN, infinities and -0.0
    values = np.concatenate(want)
    assert np.isfinite(values).sum() > 100 and np.isnan(values).any()
    assert np.isinf(values).any() and np.signbit(values[values == 0]).any()


def test_eval_vector_and_matrix_shape_contract():
    # over n lanes every entry gets a lane axis, constant entries included;
    # a point env is one lane; values are the tree-walk's bits
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
    for env, lead in ((lanes, (n,)), (point, (1,))):
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


@settings(max_examples=80, deadline=None)
@given(a=expr_strategy(NAMES), b=expr_strategy(NAMES), data=st.data(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_staged_kernel_bound_rows_match_unstaged_bitwise(a, b, data, seed):
    # the u-free subtrees are evaluated once over every lane and then
    # sliced; each row must keep the bits the unstaged kernel gives on the
    # sliced env, where numpy's SIMD log/exp/sin may round a lane in an
    # array's body and in its tail differently.  37 lanes leave a tail
    exprs = (a, b, Bin("*", Call("exp", Call("sin", a)), b),
             Call("ln", Bin("+", Const(2), Call("cos", Bin("+", a, b)))))
    names = sorted(set().union(*(e.variables() for e in exprs)))
    late = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True)
                     if names else st.just(["x"]), label="late")
    shared = data.draw(st.booleans(), label="0-d late values")
    n = 37
    rows = np.array(data.draw(st.permutations(range(n)), label="lanes"))
    rows = rows[:data.draw(st.integers(1, n), label="rows")]
    rng = np.random.default_rng(seed)
    full = {name: rng.uniform(-1.5, 1.5, n) for name in NAMES}
    late_env = {name: full[name][rows] for name in late}
    if shared:
        late_env = {name: np.float64(rng.uniform(-1.5, 1.5)) for name in late}
    early_env = {name: v for name, v in full.items() if name not in late}
    bound = compile_exprs(exprs, late=late)(early_env)
    sliced = {name: v[rows] for name, v in early_env.items()}
    want = compile_exprs(exprs)(dict(sliced, **late_env))
    assert_bitwise(bound.rows(rows)(late_env), want)
    if not shared:
        late_env = {name: full[name] for name in late}
    assert_bitwise(bound(late_env), compile_exprs(exprs)(dict(full, **late_env)))


@settings(max_examples=80, deadline=None)
@given(a=expr_strategy(NAMES), data=st.data(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_staged_kernel_block_of_late_values_matches_rows_bitwise(a, data,
                                                                 seed):
    # B late values of shape (B, 1) broadcast against the bound arrays in
    # one call; row b must keep the bits of a call with row b's values
    # alone, although numpy's SIMD exp/log/sqrt/power loops then run over
    # B lanes of u, or B times n lanes, instead of one or n.  37 lanes and
    # blocks of 1-9 leave a tail
    u1, u2 = Var("u1"), Var("u2")
    exprs = (a,
             Bin("*", Call("exp", Bin("*", u1, Call("sin", a))), u2),
             Call("ln", Bin("+", Const(2), Bin("*", u1, Call("cos", a)))),
             Bin("-", Call("sqrt", Bin("+", Const(1), Bin("^", u1, Const(2)))),
                 Bin("^", u2, Const(3))),
             Bin("^", Bin("+", Const(2), Bin("*", u2, a)), Const(0.5)),
             Bin("+", Call("exp", u1), Call("ln", Bin("+", Const(2), u2))))
    late = ("u1", "u2")
    per_lane = data.draw(st.booleans(), label="per-lane early values")
    size = data.draw(st.integers(1, 9), label="block size")
    n = 37
    rng = np.random.default_rng(seed)
    early_env = {name: rng.uniform(-1.5, 1.5, n) if per_lane
                 else np.float64(rng.uniform(-1.5, 1.5))
                 for name in ("x", "y")}
    block = {name: rng.uniform(-1.5, 1.5, (size, 1)) for name in late}
    bound = compile_exprs(exprs, late=late)(early_env)
    rows = np.array(data.draw(st.permutations(range(n)), label="lanes"))
    rows = rows[:data.draw(st.integers(1, n), label="rows")]
    for kernel in (bound, bound.rows(rows)):
        got = kernel(block)
        assert got.shape == (size, kernel.n, len(exprs))
        for b in range(size):
            alone = kernel({name: v[b, 0] for name, v in block.items()})
            assert_bitwise(got[b], alone)


def test_staged_kernel_missing_variable_raises_at_its_step():
    bind = compile_exprs((parse("x*u1 + ln(y)", SPACE),), late=("u1",))
    with pytest.raises(MissingVariableError,
                       match="^no value assigned for 'y'$"):
        bind({"x": np.ones(3)})
    bound = bind({"x": np.ones(3), "y": np.ones(3)})
    with pytest.raises(MissingVariableError,
                       match="^no value assigned for 'u1'$"):
        bound({"x": np.ones(3)})
    assert bound({"u1": np.float64(2.0)}).shape == (3, 1)
    # a point bind takes its lanes from the late values
    point = bind({"x": 1.0, "y": 2.0})
    assert point({"u1": np.ones(5)}).shape == (5, 1)


# ---------------------------------------------------------------------------
# one code object per generated kernel source

def one_shape(c, x="x", y="y"):
    """Three expressions whose kernel source is the same for every constant
    ``c``: the one ``Const(c)`` node is read twice and folded under exp."""
    k, x, y = Const(c), Var(x), Var(y)
    return (Bin("+", Bin("*", x, k), Call("sin", Bin("/", k, y))),
            Bin("^", Bin("-", x, k), Const(Fraction(3, 2))),
            Bin("*", Call("exp", k), y))


def tree_walk(exprs, env, lanes):
    return np.stack([np.broadcast_to(np.asarray(
        e.evaluate(env, strict=False), dtype=float), (lanes,)) for e in exprs],
        axis=-1)


EDGE_ENV = {"x": np.array([-1.0, -0.0, 0.5, 2.5, np.nan, 1e200]),
            "y": np.array([0.3, -2.0, 0.0, 1.0, 4.0, -0.0])}


@pytest.mark.parametrize("a, b", [(2.0, 3.0), (0.0, -0.0),
                                  (float("nan"), 1e300)])
def test_kernels_of_one_shape_share_code_and_keep_their_constants(a, b):
    # the source holds slot names, never constant values, so the second
    # tree hits the first one's code object; each kernel reads its own
    # folded constants from its own namespace
    for late in ((), ("y",)):
        first = compile_exprs(one_shape(a), late=late)
        before = expr._code.cache_info()
        second = compile_exprs(one_shape(b), late=late)
        after = expr._code.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert first.__code__ is second.__code__
        for c, kernel in ((a, first), (b, second)):
            got = (kernel({"x": EDGE_ENV["x"]})({"y": EDGE_ENV["y"]})
                   if late else kernel(EDGE_ENV))
            assert_bitwise(got, tree_walk(one_shape(c), EDGE_ENV, 6))


def test_kernels_differing_in_a_name_or_late_set_get_their_own_code():
    env = dict(EDGE_ENV, u1=EDGE_ENV["y"][::-1].copy())
    kernels = {names: compile_exprs(one_shape(2.0, *names))
               for names in (("x", "y"), ("x", "u1"), ("u1", "y"))}
    assert len({k.__code__ for k in kernels.values()}) == 3
    for names, kernel in kernels.items():
        assert_bitwise(kernel(env), tree_walk(one_shape(2.0, *names), env, 6))
    exprs = one_shape(2.0)
    binds = {late: compile_exprs(exprs, late=late)
             for late in (("x",), ("y",), ("x", "y"))}
    assert len({b.__code__ for b in binds.values()}) == 3
    for late, bind in binds.items():
        early = {n: v for n, v in EDGE_ENV.items() if n not in late}
        bound = bind(early)({n: EDGE_ENV[n] for n in late})
        assert_bitwise(bound, tree_walk(exprs, EDGE_ENV, 6))


def test_kernel_code_cache_across_threads():
    # more threads than cores compile the same fresh shapes at once, with
    # their own constants, switching often: every kernel gets its tree-walk
    # bits, whichever thread compiled the code it runs
    x, y = "race_x", "race_y"
    env = {x: EDGE_ENV["x"], y: EDGE_ENV["y"]}
    shapes = [lambda c: one_shape(c, x, y),
              lambda c: (Call("ln", Bin("-", Var(y), Const(c))),),
              lambda c: (Bin("/", Const(c), Bin("*", Var(x), Var(y))),
                         Call("cos", Const(c)))]

    def build(failures):
        for k in range(40):
            c = (k - 20) * 0.37
            for shape in shapes:
                exprs = shape(c)
                want = tree_walk(exprs, env, 6)
                got = (compile_exprs(exprs, late=(y,))({x: env[x]})({y: env[y]})
                       if k % 2 else compile_exprs(exprs)(env))
                if not np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64)):
                    failures.append((k, exprs))

    failures = [[] for _ in range(8)]
    threads = [threading.Thread(target=build, args=(f,)) for f in failures]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not any(failures), failures


def test_kernel_code_cache_keeps_no_node_alive():
    gc.collect()
    before = len(expr._NODES)
    # fresh names and constants, so every node is new; the cached code
    # objects must hold none of them
    exprs = (*one_shape(0.6180339887, "cached_x", "cached_y"),
             Call("sqrt", Bin("+", Var("cached_x"), Const(0.7071067811))))
    env = {"cached_x": np.array([0.25, 2.0]), "cached_y": np.array([1.0, -3.0])}
    kernels = [compile_exprs(exprs),
               compile_exprs(exprs, late=("cached_y",))]
    assert kernels[0](env).shape == (2, 4)
    assert kernels[1]({"cached_x": env["cached_x"]})(env).shape == (2, 4)
    assert len(expr._NODES) > before + 10
    del exprs, kernels
    gc.collect()
    assert len(expr._NODES) == before


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


# a few values, so that rows repeat: -0.0 beside 0.0, two NaN payloads,
# both infinities and the smallest subnormal
ROW_VALUES = np.array([0.0, -0.0, np.nan, np.int64(0x7FF8000000000001).view(float),
                       np.inf, -np.inf, 1.0, 5e-324])


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(0, 12), st.integers(0, 3)), data=st.data())
def test_distinct_rows_first_appearance_bitwise(shape, data):
    n, c = shape
    pick = data.draw(st.lists(st.integers(0, len(ROW_VALUES) - 1),
                              min_size=n * c, max_size=n * c))
    a = ROW_VALUES[np.array(pick, dtype=int)].reshape(n, c)
    first, inverse = exprmat.distinct_rows(a)
    # the reference: a dict of each row's bytes in order of appearance
    seen = {}
    want = [seen.setdefault(row.tobytes(), (i, len(seen)))
            for i, row in enumerate(a)]
    assert first.tolist() == [i for i, _ in seen.values()]
    assert inverse.tolist() == [label for _, label in want]
    assert_bitwise(a[first][inverse], a)
    assert (np.diff(first) > 0).all()
    assert (first[inverse] <= np.arange(n)).all()      # each row's first


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(0, 12), st.integers(0, 3)), data=st.data())
def test_distinct_rows_takes_a_plan_only_where_it_holds(shape, data):
    # a plan from other rows as many is taken as it is when each of its
    # groups holds rows of one bit pattern, and otherwise a fresh sort runs
    n, c = shape
    values = st.lists(st.integers(0, len(ROW_VALUES) - 1), min_size=n * c,
                      max_size=n * c)
    b = ROW_VALUES[np.array(data.draw(values), dtype=int)].reshape(n, c)
    a = ROW_VALUES[np.array(data.draw(values), dtype=int)].reshape(n, c)
    plan = exprmat.distinct_rows(b)
    got = exprmat.distinct_rows(a, plan)
    first, inverse = plan
    holds = np.array_equal(a[first[inverse]].view(np.int64), a.view(np.int64))
    if holds:
        assert got is plan
    else:
        fresh = exprmat.distinct_rows(a)
        assert got is not plan
        assert all(np.array_equal(g, f) for g, f in zip(got, fresh))
    assert_bitwise(a[got[0]][got[1]], a)


def test_distinct_rows_plan_serves_copies_of_its_rows(monkeypatch):
    # a plan of m rows serves c*m rows as c copies of them, each copy's
    # groups its own, without a sort; a copy with a row off its group's
    # bits is sorted afresh
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1)
                        or lexsort(keys))
    b = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    plan = exprmat.distinct_rows(b)
    a = np.concatenate([b, b + 5.0, b])
    sorts.clear()
    first, inverse = exprmat.distinct_rows(a, plan)
    assert not sorts
    assert first.tolist() == [0, 1, 3, 4, 6, 7]
    assert inverse.tolist() == [0, 1, 0, 2, 3, 2, 4, 5, 4]
    a[5, 0] = 9.0
    first, inverse = exprmat.distinct_rows(a, plan)
    assert sorts
    assert first.tolist() == [0, 1, 3, 4, 5]
    assert inverse.tolist() == [0, 1, 0, 2, 3, 4, 0, 1, 0]
    # rows that are no whole number of copies are sorted
    assert exprmat.distinct_rows(a[:4], plan)[0].tolist() == [0, 1, 3]


def test_distinct_rows_plan_keeps_signed_zeros_apart():
    # one row's -0.0 where the rest of its group has 0.0: the plan does not
    # hold, and the fresh sort puts that row in a group of its own
    b = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    plan = exprmat.distinct_rows(b)
    assert plan[0].tolist() == [0, 1] and plan[1].tolist() == [0, 1, 0, 0]
    assert exprmat.distinct_rows(b.copy(), plan) is plan
    a = b.copy()
    a[2, 1] = -0.0
    first, inverse = exprmat.distinct_rows(a, plan)
    assert first.tolist() == [0, 1, 2] and inverse.tolist() == [0, 1, 2, 0]
    # a plan over another number of rows is not taken
    assert exprmat.distinct_rows(b[:3], plan)[1].tolist() == [0, 1, 0]


# ---------------------------------------------------------------------------
# interning: one node per structure

def structurally_equal(a, b):
    """The equality expressions had before interning: same kind, operator,
    function or name, equal children, and constants of one type and equal
    value (so 0.0 equals -0.0, and a NaN equals nothing)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return type(a.value) is type(b.value) and a.value == b.value
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, Bin):
        return (a.op == b.op and structurally_equal(a.left, b.left)
                and structurally_equal(a.right, b.right))
    return a.fn == b.fn and structurally_equal(a.arg, b.arg)


def zero_signs_differ(a, b):
    """Whether two structurally equal trees pair a 0.0 with a -0.0."""
    if isinstance(a, Const):
        return a.value == 0 and math.copysign(1, a.value) != math.copysign(
            1, b.value)
    if isinstance(a, Bin):
        return zero_signs_differ(a.left, b.left) or zero_signs_differ(
            a.right, b.right)
    return isinstance(a, Call) and zero_signs_differ(a.arg, b.arg)


def rebuild(e, flip_zeros=False):
    """``e`` built again bottom-up from fresh values; with ``flip_zeros``
    every float zero constant changes sign."""
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, Fraction):
            return Const(Fraction(v.numerator, v.denominator))
        return Const(-v if flip_zeros and v == 0 else float.fromhex(v.hex()))
    if isinstance(e, Var):
        return Var("".join(list(e.name)))
    if isinstance(e, Bin):
        return Bin(e.op, rebuild(e.left, flip_zeros),
                   rebuild(e.right, flip_zeros))
    return Call(e.fn, rebuild(e.arg, flip_zeros))


def subtrees(e):
    out = [e]
    for c in ((e.left, e.right) if isinstance(e, Bin)
              else (e.arg,) if isinstance(e, Call) else ()):
        out += subtrees(c)
    return out


@settings(max_examples=60, deadline=None)
@given(a=expr_strategy(NAMES), b=expr_strategy(NAMES),
       flip=st.booleans())
def test_interning_identity_is_structural_equality(a, b, flip):
    assert rebuild(a) is a
    assert simplify(rebuild(a)) is simplify(a)
    # every pair of subtrees of a, b and a copy of a whose float zeros
    # may have changed sign: identity is the old structural equality,
    # apart from a 0.0 paired with a -0.0 (the trees hold no NaN)
    nodes = subtrees(a) + subtrees(b) + subtrees(rebuild(a, flip))
    for x in nodes:
        for y in nodes:
            old = structurally_equal(x, y)
            assert (x is y) == (old and not zero_signs_differ(x, y)), (x, y)
            assert (x == y) is (x is y)


def test_interning_constants():
    assert Const(0.0) is not Const(-0.0)
    assert Const(0.0) is Const(0.0) and Const(-0.0) is Const(-0.0)
    assert Const(1) is not Const(1.0)
    assert Const(1) is Const(Fraction(1))
    assert Const(Fraction(1, 2)) is Const(Fraction(2, 4))
    assert Const(np.float64(0.5)) is Const(0.5)
    assert str(Const(np.float64(0.5))) == "0.5"
    fresh = np.float64(0.7109375)   # a value no other live node holds
    assert type(Const(fresh).value) is float
    assert str(Const(fresh)) == "0.7109375"
    nan = float("nan")
    assert Const(nan) is not Const(nan)
    assert Const(nan) != Const(nan)
    assert Bin("+", Var("x"), Const(nan)) is not Bin("+", Var("x"), Const(nan))
    x = Var("x")
    assert Bin("*", x, Const(2)) is parse("x*2", SPACE)
    with pytest.raises(AttributeError, match="Bin is immutable"):
        Bin("*", x, Const(2)).op = "+"


def test_intern_table_keeps_nothing_alive():
    gc.collect()
    before = len(expr._NODES)
    # reference counting alone must free the nodes: a node that simplifies
    # to itself holds a marker, not a cycle through itself
    gc.disable()
    try:
        # a balanced tree over 512 fresh terms, simplified so the nodes also
        # hold their simplification results (sin keeps sums from flattening)
        level = [Bin("*", Const(i + 0.123456789), Call("sin", Var("x")))
                 for i in range(512)]
        while len(level) > 1:
            level = [Call("sin", Bin("+", level[i], level[i + 1]))
                     for i in range(0, len(level), 2)]
        tree, simplified = level[0], simplify(level[0])
        assert len(expr._NODES) > before + 1500
        del level, tree, simplified
        assert len(expr._NODES) == before
    finally:
        gc.enable()
    gc.collect()
    assert len(expr._NODES) == before


def test_interning_across_threads():
    # more threads than cores build the same fresh structures in the same
    # order, switching often: each structure must still be one node; then
    # they diff the same fresh trees, racing to keep each derivative, and
    # must still get one node per derivative
    def build(out):
        out.extend(Bin("+", Var("x"), Const(k + 0.987654321))
                   for k in range(3000))
        trees = [Bin("^", Call("exp", Bin("*", Var("x"),
                                          Const(k + 0.456789123))), Var("y"))
                 for k in range(300)]
        out.extend(t.diff(name) for t in trees for name in ("x", "y"))

    results = [[] for _ in range(8)]
    threads = [threading.Thread(target=build, args=(r,)) for r in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(r) == 3600 for r in results)
    for r in results[1:]:
        assert all(a is b for a, b in zip(results[0], r))


# ---------------------------------------------------------------------------
# derivatives kept on the node

def reference_diff(e, name):
    """Expr.diff's rules applied afresh at every node, keeping nothing."""
    if isinstance(e, Const):
        return Const(0)
    if isinstance(e, Var):
        return Const(1) if e.name == name else Const(0)
    if isinstance(e, Call):
        a, fn = e.arg, e.fn
        da = reference_diff(a, name)
        return {"neg": lambda: Call("neg", da),
                "sqrt": lambda: Bin("/", da,
                                    Bin("*", Const(2), Call("sqrt", a))),
                "ln": lambda: Bin("/", da, a),
                "abs": lambda: Bin("/", Bin("*", a, da), Call("abs", a)),
                "exp": lambda: Bin("*", Call("exp", a), da),
                "sin": lambda: Bin("*", Call("cos", a), da),
                "cos": lambda: Call("neg", Bin("*", Call("sin", a), da)),
                }[fn]()
    a, b, op = e.left, e.right, e.op
    da, db = reference_diff(a, name), reference_diff(b, name)
    if op in "+-":
        return Bin(op, da, db)
    if op == "*":
        return Bin("+", Bin("*", da, b), Bin("*", a, db))
    if op == "/":
        num = Bin("-", Bin("*", da, b), Bin("*", a, db))
        return Bin("/", num, Bin("^", b, Const(2)))
    if isinstance(b, Const):
        expo = Const(b.value - 1) if b.is_exact else Const(b.value - 1.0)
        return Bin("*", Bin("*", b, Bin("^", a, expo)), da)
    term = Bin("+", Bin("*", db, Call("ln", a)), Bin("*", b, Bin("/", da, a)))
    return Bin("*", e, term)


@settings(max_examples=80, deadline=None)
@given(e=expr_strategy(NAMES, max_depth=8),
       power=expr_strategy(NAMES, max_depth=3),
       name=st.sampled_from(NAMES + ("b",)))
def test_diff_is_kept_on_the_node(e, power, name):
    # the strategy's powers have constant exponents: add a general one
    e = Bin("+", e, Bin("^", Bin("+", Const(2), Bin("^", e, Const(2))), power))
    derived = []

    def counted(rule):
        def run(node, var):
            derived.append(node)
            return rule(node, var)
        return run

    with mock.patch.object(Bin, "_derive", counted(Bin._derive)), \
            mock.patch.object(Call, "_derive", counted(Call._derive)):
        first = e.diff(name)
        # each rule ran at most once per node, and only on nodes of e
        assert len(derived) == len(set(derived))
        assert set(derived) <= set(subtrees(e))
        del derived[:]
        assert e.diff(name) is first
        assert not derived
    assert first is reference_diff(e, name)


def test_kept_derivatives_are_freed_with_their_nodes():
    gc.collect()
    before = len(expr._NODES)
    # fresh names, so no node outlives the tree; the kept derivatives make
    # cycles (exp(a)' holds exp(a), the general power rule holds x^y, and
    # (0*b)' holds 0*b), which the cycle collector frees
    x, y, b = Var("lifetime_x"), Var("lifetime_y"), Var("lifetime_b")
    tree = Bin("+", Bin("+", Call("exp", Bin("*", Const(0.3141), x)),
                        Bin("^", x, y)), Bin("*", Const(0), b))
    kept = [simplify(tree.diff(v.name)) for v in (x, y, b)]
    kept.append(simplify(tree))
    assert tree.diff("lifetime_x") is tree.diff("lifetime_x")
    assert len(expr._NODES) > before + 20
    del x, y, b, tree, kept
    gc.collect()
    assert len(expr._NODES) == before
