import builtins
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import workloads
from rwave import expr, exprmat, frobenius
from rwave.expr import Bin, Box, Call, Const, Expr, is_zero, parse, simplify
from rwave.frobenius import (
    FrobeniusError,
    IncompatibleSystem,
    NotInSpan,
    ScalarFn,
    StraighteningFailed,
    TransportTerm,
    VectorField,
    commutation_residual,
    compatibility_check,
    pair_bracket_coefficients,
    rescale_frame,
    solve_two_columns,
)
from rwave.geometry import Verdict

from .strategies import expr_strategy

NAMES3 = ("x", "y", "z")
BOX3 = Box.from_dict({n: (-0.8, 0.8) for n in NAMES3})
NAMES4 = ("x", "y", "z", "w")
BOX4 = Box.from_dict({n: (-0.7, 0.7) for n in NAMES4})


def pexpr(text, names=NAMES3):
    return parse(text, names)


def exp_field_pair(names=NAMES3):
    X1 = (Const(1), Const(0), Const(0))                      # d_x
    X2 = (Const(0), pexpr("exp(x)", names), Const(0))        # e^x d_y
    return X1, X2


def rescale_measured(fields, names, box, seed, **kwargs):
    """``rescale_frame`` and the commutation residual of its scaled fields,
    measured with the generator that built them."""
    rng = np.random.default_rng(seed)
    res = rescale_frame(fields, names, box, rng=rng, **kwargs)
    return res, commutation_residual(res.scaled_fields(), box, rng=rng)


def factors_nonvanishing(res, seed):
    """Whether every factor of a rescaling is nonzero at 40 box samples."""
    env = res.box.sample(np.random.default_rng(seed), 40)
    U = np.stack([env[name] for name in res.names], axis=1)
    return all(np.all(np.abs(fac.ev(U)) > 1e-12) for fac in res.factors)


def test_pair_coefficients_exponential():
    X1, X2 = exp_field_pair()
    pc = pair_bracket_coefficients(X1, X2, NAMES3, BOX3, rng=0)
    assert pc.h_first.expr is not None and pc.h_second.expr is not None
    assert simplify(pc.h_first.expr) == Const(0)
    assert simplify(pc.h_second.expr) == Const(1)
    # the span residual the construction checked, at its own samples
    _, _, worst = frobenius._span_check(
        VectorField(X1, NAMES3), VectorField(X2, NAMES3), NAMES3, BOX3,
        np.random.default_rng(0))
    assert worst < 1e-10


def test_pair_coefficients_commuting():
    X1 = (Const(1), Const(0), Const(0))
    X2 = (Const(0), Const(1), Const(0))
    pc = pair_bracket_coefficients(X1, X2, NAMES3, BOX3, rng=1)
    assert np.isclose(float(pc.h_first.expr.evaluate({})), 0.0)
    assert np.isclose(float(pc.h_second.expr.evaluate({})), 0.0)


def test_pair_coefficients_not_in_span():
    # [d_x, x d_z] = d_z which is outside span{d_x, d_y}
    X1 = (Const(1), Const(0), Const(0))
    X2 = (Const(0), Const(1), pexpr("x"))
    with pytest.raises(NotInSpan) as err:
        pair_bracket_coefficients(X1, X2, NAMES3, BOX3, rng=2)
    assert err.value.witness is not None


def test_compatibility_constant_and_foreign_variables_hold():
    frame = [(Const(1), Const(0), Const(0)), (Const(0), Const(1), Const(0))]
    rep = compatibility_check([Const(3), Const(-2)], frame, NAMES3, BOX3, rng=3)
    assert rep.verdict is Verdict.HOLDS
    # sources depending only on the transversal variable z
    rep = compatibility_check([pexpr("z^2"), pexpr("sin(z)")], frame, NAMES3,
                              BOX3, rng=4)
    assert rep.verdict is Verdict.HOLDS


def test_compatibility_fabricated_failure():
    frame = [(Const(1), Const(0), Const(0)), (Const(0), Const(1), Const(0))]
    rep = compatibility_check([pexpr("y^2"), Const(0)], frame, NAMES3, BOX3,
                              rng=5)
    assert rep.verdict is Verdict.FAILS
    assert rep.witness is not None
    assert rep.magnitude > 1e-3


def test_rescale_pair_symbolic_exponential():
    X1, X2 = exp_field_pair()
    res, worst = rescale_measured([X1, X2], NAMES3, BOX3, 6)
    f1, f2 = res.factors
    assert f1.expr is not None and f2.expr is not None
    rng = np.random.default_rng(7)
    assert is_zero(simplify(f1.expr - Const(1)), BOX3, rng=rng)
    assert is_zero(simplify(f2.expr - parse("exp(-x)", NAMES3)), BOX3, rng=rng)
    assert worst < 1e-10
    assert "compatibility" not in res.stages_run
    assert factors_nonvanishing(res, 8)


def test_rescale_already_commuting_identity():
    X1 = (Const(1), Const(0), Const(0))
    X2 = (Const(0), pexpr("1+z^2"), Const(0))
    res, worst = rescale_measured([X1, X2], NAMES3, BOX3, 9)
    assert "identity" in res.stages_run
    for f in res.factors:
        assert simplify(f.expr) == Const(1)
    assert worst < 1e-10


def test_rescale_wave_pair_identity():
    # characteristic pair of the two-wave fixture: brackets vanish
    names = ("u1", "u2", "u3")
    box = Box.from_dict({"u1": (0.3, 3.0), "u2": (-1, 1), "u3": (-1, 1)})
    gp = (parse("sqrt(u1)", names), Const(1), Const(0))
    gm = (parse("-sqrt(u1)", names), Const(1), Const(0))
    res, worst = rescale_measured([gp, gm], names, box, 10)
    assert "identity" in res.stages_run
    assert worst < 1e-9


def test_rescale_three_fields_symbolic():
    # d_x, e^x d_y, e^(x+y) d_z: stage 2 is trivial after stage 1
    X1 = (Const(1), Const(0), Const(0), Const(0))
    X2 = (Const(0), parse("exp(x)", NAMES4), Const(0), Const(0))
    X3 = (Const(0), Const(0), parse("exp(x+y)", NAMES4), Const(0))
    res, worst = rescale_measured([X1, X2, X3], NAMES4, BOX4, 11)
    assert worst < 1e-8
    assert "compatibility" in res.stages_run
    rng = np.random.default_rng(12)
    assert is_zero(simplify(res.factors[2].expr - parse("exp(-x-y)", NAMES4)),
                   BOX4, rng=rng)


def test_rescale_grid_path_cyclic_three_fields():
    # e^y d_x, e^z d_y, e^x d_z on a 4-dimensional block: stage 2 engages
    X1 = (parse("exp(y)", NAMES4), Const(0), Const(0), Const(0))
    X2 = (Const(0), parse("exp(z)", NAMES4), Const(0), Const(0))
    X3 = (Const(0), Const(0), parse("exp(x)", NAMES4), Const(0))
    res = rescale_frame([X1, X2, X3], NAMES4, BOX4, rng=13,
                        prefer_symbolic=False)
    assert "stage2" in res.stages_run
    assert factors_nonvanishing(res, 14)
    worst = commutation_residual(res.scaled_fields(), BOX4, rng=15,
                                 n_samples=100)
    assert worst < 1e-6, worst


def test_rescale_grid_path_pair_two_variable_coefficients():
    # the base pair's transports of two-variable h coefficients, taken by
    # the numeric flow (they also have closed forms)
    names = ("x", "y", "z")
    box = Box.from_dict({"x": (-0.6, 0.6), "y": (-0.6, 0.6), "z": (-0.6, 0.6)})
    X1 = (parse("1+y^2", names), Const(0), Const(0))
    X2 = (Const(0), parse("1+x^2", names), Const(0))
    res = rescale_frame([X1, X2], names, box, rng=16, prefer_symbolic=False)
    assert all(f.expr is None for f in res.factors)
    worst = commutation_residual(res.scaled_fields(), box, rng=17, n_samples=100)
    assert worst < 1e-6, worst


def test_rescale_incompatible_override_rejected():
    X1 = (Const(1), Const(0), Const(0), Const(0))
    X2 = (Const(0), Const(1), Const(0), Const(0))
    X3 = (Const(0), Const(0), Const(1), Const(0))
    overrides = {
        (0, 1): (Const(0), Const(0)),
        (0, 2): (Const(0), parse("y^2", NAMES4)),
        (1, 2): (Const(0), Const(0)),
    }
    with pytest.raises(IncompatibleSystem) as err:
        rescale_frame([X1, X2, X3], NAMES4, BOX4, rng=18,
                      pair_overrides=overrides)
    assert err.value.witness is not None


def test_rescale_rejects_full_rank_frame():
    # non-commuting fields spanning the whole block leave no transversal
    names = ("x", "y")
    X1 = (Const(1), Const(0))
    X2 = (Const(0), parse("exp(x)", names))
    with pytest.raises(FrobeniusError):
        rescale_frame([X1, X2], names, Box.from_dict({"x": (0, 1),
                                                      "y": (0, 1)}), rng=0)


def test_rescale_full_rank_commuting_frame_is_identity():
    # a commuting frame needs no construction even at full rank
    names = ("u1", "u2")
    box = Box.from_dict({"u1": (0.3, 3.0), "u2": (-1, 1)})
    gp = (parse("sqrt(u1)", names), Const(1))
    gm = (parse("-sqrt(u1)", names), Const(1))
    res, worst = rescale_measured([gp, gm], names, box, 30)
    assert "identity" in res.stages_run
    assert worst < 1e-9


def test_rescale_constant_input_scaling_spans_same_distribution():
    X1, X2 = exp_field_pair()
    res1, worst1 = rescale_measured([X1, X2], NAMES3, BOX3, 19)
    X2s = tuple(simplify(Const(2) * e) for e in X2)
    res2, worst2 = rescale_measured([X1, X2s], NAMES3, BOX3, 20)
    rng = np.random.default_rng(21)
    env = BOX3.sample(rng, 30)
    U = np.stack([env[n] for n in NAMES3], axis=1)
    for res, base in ((res1, [X1, X2]), (res2, [X1, X2s])):
        for scaled, inp in zip(res.scaled_fields(), base):
            V = scaled.eval(U)
            W = VectorField(inp, NAMES3).eval(U)
            # scaled field is a pointwise multiple of its input field
            cross = V[:, :, None] * W[:, None, :] - W[:, :, None] * V[:, None, :]
            assert np.max(np.abs(cross)) < 1e-9
    # both rescalings commute
    assert worst1 < 1e-10
    assert worst2 < 1e-10


def test_stage1_transport_verification_recorded():
    X1, X2 = exp_field_pair()
    res = rescale_frame([X1, X2], NAMES3, BOX3, rng=22)
    assert all(r < 1e-8 for r in res.stage1_residuals)


def test_serialization_shapes():
    X1, X2 = exp_field_pair()
    res = rescale_frame([X1, X2], NAMES3, BOX3, rng=23)
    data = res.serializable()
    assert data["factors"][1]["kind"] == "expression"
    assert "exp" in data["factors"][1]["value"]


def test_serialization_grid_path_sampled_factors():
    X1 = (parse("exp(y)", NAMES4), Const(0), Const(0), Const(0))
    X2 = (Const(0), parse("exp(z)", NAMES4), Const(0), Const(0))
    X3 = (Const(0), Const(0), parse("exp(x)", NAMES4), Const(0))
    res = rescale_frame([X1, X2, X3], NAMES4, BOX4, rng=40,
                        prefer_symbolic=False)
    data = res.serializable()
    fac = data["factors"][0]
    assert fac["kind"] == "sampled_grid"
    assert fac["shape"] == [4, 4, 4, 4]
    assert len(fac["values"]) == 4 ** 4
    assert "interpolation" in fac
    # the sampled values match factor evaluations at the grid nodes
    import numpy as np
    mesh = np.meshgrid(*[fac["axes"][n] for n in NAMES4], indexing="ij")
    U = np.stack([m.ravel() for m in mesh], axis=1)
    direct = res.factors[0].ev(U)
    assert np.allclose(fac["values"], direct, atol=1e-12)


def conditioned_rows(seed, n, d, scale):
    """(a, b, y, U) with [a b] = Q R per row: orthonormal Q and a random
    upper-triangular R whose condition number stays below ~200."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, d, 2)))
    R = np.zeros((n, 2, 2))
    R[:, 0, 0] = rng.uniform(1, 10, n)
    R[:, 1, 1] = rng.uniform(1, 10, n)
    R[:, 0, 1] = rng.uniform(-10, 10, n)
    A = scale * (Q @ R)
    c = rng.uniform(0.5, 2, (n, 2)) * rng.choice([-1, 1], (n, 2))
    y = np.einsum("nij,nj->ni", A, c) + scale * rng.normal(scale=0.1,
                                                           size=(n, d))
    return A[:, :, 0], A[:, :, 1], y, rng.uniform(-1, 1, (n, d))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=1, max_value=60),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_solve_two_columns_matches_rowwise_lstsq(seed, d, n, scale):
    a, b, y, U = conditioned_rows(seed, n, d, scale)
    names = tuple(f"u{k}" for k in range(d))
    c = solve_two_columns(a, b, y, U, names)
    for t in range(n):
        ref, *_ = np.linalg.lstsq(np.stack([a[t], b[t]], axis=1), y[t],
                                  rcond=None)
        assert np.max(np.abs(c[t] - ref)) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind", ["parallel", "zero_column", "nan", "inf"])
def test_solve_two_columns_dependent_row_raises(kind):
    a, b, y, U = conditioned_rows(7, 12, 3, 1.0)
    bad = 5
    if kind == "parallel":
        b[bad] = -3.0 * a[bad]
    elif kind == "zero_column":
        a[bad] = 0.0
    elif kind == "nan":
        b[bad, 1] = np.nan
    else:
        y[bad, 0] = np.inf
    names = ("x", "y", "z")
    with pytest.raises(NotInSpan) as err:
        solve_two_columns(a, b, y, U, names)
    assert err.value.witness == {nm: float(U[bad, k])
                                 for k, nm in enumerate(names)}


def test_numeric_pair_coefficients_raise_where_fields_become_dependent():
    # [(1+y^2) d_x, x d_y] = -2xy d_x + (1+y^2) d_y: both coefficients
    # depend on two variables, so no fit names them and they are the exact
    # forms from the bracket, and x d_y vanishes on x = 0, outside the
    # sampling box, where h_first = 0 is finite but undefined
    X1 = (pexpr("1+y^2"), Const(0), Const(0))
    X2 = (Const(0), pexpr("x"), Const(0))
    box = Box.from_dict({"x": (0.5, 1.0), "y": (-0.5, 0.5), "z": (-0.5, 0.5)})
    pc = pair_bracket_coefficients(X1, X2, NAMES3, box, rng=24)
    assert pc.h_first.expr is not None and pc.h_second.expr is not None
    U = np.array([[0.7, 0.3, 0.1], [0.0, 0.2, 0.1]])
    assert np.allclose(pc.h_first.ev(U[:1]), -2 * 0.7 * 0.3 / 1.09)
    for h in (pc.h_first, pc.h_second):
        with pytest.raises(NotInSpan) as err:
            h.ev(U)
        assert err.value.witness == {"x": 0.0, "y": 0.2, "z": 0.1}


def test_rescale_raises_where_exact_coefficients_meet_dependence():
    # x d_y vanishes on x = 0, inside the box: h_second = (1+y^2)/x has an
    # antiderivative in x, but the transport of X1 must still flow across
    # x = 0 and meet the guard rather than return a factor singular there
    X1 = (pexpr("1+y^2", NAMES4), Const(0), Const(0), Const(0))
    X2 = (Const(0), pexpr("x", NAMES4), Const(0), Const(0))
    X3 = (Const(0), Const(0), Const(0), Const(1))
    box = Box.from_dict({"x": (-0.1, 0.3), "y": (-0.2, 0.2),
                         "z": (-0.2, 0.2), "w": (-0.2, 0.2)})
    pc = pair_bracket_coefficients(X1, X2, NAMES4, box, rng=1)
    assert pc.h_first.guards and pc.h_second.guards
    with pytest.raises(NotInSpan) as err:
        rescale_frame([X1, X2, X3], NAMES4, box, rng=1)
    assert abs(err.value.witness["x"]) < 1e-9


def guarded_pair():
    """X1 = (1+y^2) d_x and X2 = x^2 d_y on x in [0.5, 1], with their exact
    (guarded) span coefficients; the pair is dependent on x = 0."""
    X1 = VectorField((pexpr("1+y^2"), Const(0), Const(0)), NAMES3)
    X2 = VectorField((Const(0), pexpr("x^2"), Const(0)), NAMES3)
    box = Box.from_dict({"x": (0.5, 1.0), "y": (-0.5, 0.5), "z": (-0.5, 0.5)})
    pc = pair_bracket_coefficients(X1, X2, NAMES3, box, rng=7)
    assert pc.h_first.guards and pc.h_second.guards
    return X1, X2, box, pc


def test_closed_form_transport_keeps_the_guard_of_its_source():
    # X2(g) = h_first = -2 x^2 y/(1+y^2) integrates to g = -ln(1+y^2),
    # which is finite on x = 0; the guard still marks the dependent pair
    X1, X2, box, pc = guarded_pair()
    terms, worst = frobenius.solve_transport_system(
        [X2], [pc.h_first], NAMES3, box, box.midpoint(),
        np.random.default_rng(8))
    (term,) = terms
    assert isinstance(term, ScalarFn) and term.expr is not None
    assert term.guards == pc.h_first.guards and worst < 1e-12
    U = np.array([[0.7, 0.3, 0.1], [0.0, 0.2, 0.1]])
    assert np.allclose(term.ev(U[:1]), -np.log(1.09))
    other = ScalarFn(pexpr("x*z"), NAMES3)
    derived = [lambda: term.ev(U), lambda: term.exp().ev(U),
               lambda: (-term).ev(U), lambda: (other / term.exp()).ev(U),
               lambda: ScalarFn.sum([term, other], NAMES3).ev(U),
               lambda: ScalarFn.sum([other.expr, term], NAMES3).ev(U),
               lambda: X1.directional(term, U)]
    for k, evaluate in enumerate(derived):
        with pytest.raises(NotInSpan) as err:
            evaluate()
        assert err.value.witness == {"x": 0.0, "y": 0.2, "z": 0.1}, k


def test_symbolic_compatibility_check_evaluates_the_guards():
    # every sample of a box on x = 0 is a dependent point of the pair
    X1, X2, _, pc = guarded_pair()
    box = Box.from_dict({"x": (0.0, 0.0), "y": (-0.5, 0.5), "z": (-0.5, 0.5)})
    with pytest.raises(NotInSpan) as err:
        compatibility_check([pc.h_first, pc.h_second], [X1, X2], NAMES3, box,
                            rng=9)
    assert err.value.witness["x"] == 0.0


def test_benchmark_pair_transports_in_closed_form(monkeypatch):
    fields, names, box = benchmark_pair()
    flows = []
    original = frobenius.ode.flow

    def counting(*args, **kwargs):
        flows.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(frobenius.ode, "flow", counting)
    res = rescale_frame(list(fields), names, box, rng=3)
    worst = commutation_residual(res.scaled_fields(), box, rng=4,
                                 n_samples=20)
    assert "base_pair" in res.stages_run and worst < 1e-6
    assert not flows
    assert all(f.expr is not None for f in res.factors)
    assert [str(f.expr) for f in res.factors] == ["exp(-ln(y^2 + 1))",
                                                  "exp(-ln(x^2 + 1))"]


def test_constant_scalar_evaluates_without_a_kernel(monkeypatch):
    compiled = count_compiles(monkeypatch)
    U = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 3))
    for value in (0, 1.5, Fraction(1, 3)):
        got = ScalarFn(Const(value), NAMES3).ev(U)
        assert np.array_equal(bits(got), bits(np.full(5, float(value))))
    assert not compiled


def benchmark_pair():
    label, fields, names, box, _, _ = workloads.frames()[1]
    assert label == "pair"
    return fields, names, box


@pytest.mark.parametrize("case", ["benchmark_pair", "scaled_benchmark_pair",
                                  "dependent_on_x_0"])
def test_exact_pair_coefficients_match_pointwise_solves(case):
    if case == "dependent_on_x_0":
        X1 = (pexpr("1+y^2"), Const(0), Const(0))
        X2 = (Const(0), pexpr("x"), Const(0))
        names = NAMES3
        box = Box.from_dict({"x": (0.5, 1.0), "y": (-0.5, 0.5),
                             "z": (-0.5, 0.5)})
    else:
        (X1, X2), names, box = benchmark_pair()
    Xi, Xj = VectorField(X1, names), VectorField(X2, names)
    if case == "scaled_benchmark_pair":
        # symbolic factors: the bracket of the scaled components
        Xi = Xi.with_factor(ScalarFn(pexpr("exp(x*z)"), names))
        Xj = Xj.with_factor(ScalarFn(pexpr("1+z^2"), names))
    pc = pair_bracket_coefficients(Xi, Xj, names, box, rng=5)
    assert pc.h_first.expr is not None and pc.h_second.expr is not None
    env = box.sample(np.random.default_rng(99), 200)
    U = np.stack([env[nm] for nm in names], axis=1)
    want = solve_two_columns(Xi.eval(U), Xj.eval(U), Xi.bracket_with(Xj, U),
                             U, names)
    for k, h in enumerate((pc.h_first, pc.h_second)):
        err = np.max(np.abs(h.ev(U) - want[:, k]))
        assert err <= 1e-12 * np.max(np.abs(want[:, k])), (k, h, err)


def test_numeric_factor_pair_coefficients_stay_pointwise_solves():
    # a numeric factor leaves no expression to divide, and no fit names the
    # two-variable coefficients, so each evaluation solves pointwise
    (X1, X2), names, box = benchmark_pair()
    Xi = VectorField(X1, names).with_factor(
        ScalarFn(lambda U: np.exp(U[:, 0] * U[:, 2]), names))
    Xj = VectorField(X2, names)
    pc = pair_bracket_coefficients(Xi, Xj, names, box, rng=5)
    assert pc.h_first.expr is None
    env = box.sample(np.random.default_rng(99), 200)
    U = np.stack([env[nm] for nm in names], axis=1)
    want = solve_two_columns(Xi.eval(U), Xj.eval(U), Xi.bracket_with(Xj, U),
                             U, names)
    for k, h in enumerate((pc.h_first, pc.h_second)):
        assert np.array_equal(bits(h.ev(U)), bits(want[:, k])), k


def test_pair_frame_transports_build_no_bracket_table(monkeypatch):
    # the pair frame's coefficients depend on two variables each; its
    # numeric transports evaluate them inside every flow stage
    fields, names, box = benchmark_pair()
    depth, nested, tables = [0], [], []
    call, table = TransportTerm.__call__, frobenius._bracket_table

    def counting_call(self, U):
        depth[0] += 1
        try:
            return call(self, U)
        finally:
            depth[0] -= 1

    def counting_table(*args, **kwargs):
        (nested if depth[0] else tables).append(1)
        return table(*args, **kwargs)

    monkeypatch.setattr(TransportTerm, "__call__", counting_call)
    monkeypatch.setattr(frobenius, "_bracket_table", counting_table)
    res = rescale_frame(list(fields), names, box, rng=3,
                        prefer_symbolic=False)
    worst = commutation_residual(res.scaled_fields(), box, rng=4,
                                 n_samples=20)
    assert "base_pair" in res.stages_run and worst < 1e-6
    assert len(transport_terms(res.factors)) == 2
    assert tables and not nested, (len(tables), len(nested))


def test_rescale_derives_each_bracket_a_few_times(monkeypatch):
    pairs = []

    def counting(a, b, dep_names):
        pairs.append((tuple(a), tuple(b)))
        return original(a, b, dep_names)

    original = frobenius.lie_bracket
    monkeypatch.setattr(frobenius, "lie_bracket", counting)
    names = ("x", "y", "z")
    box = Box.from_dict({n: (-0.2, 0.2) for n in names})
    X1 = (parse("1+y^2", names), Const(0), Const(0))
    X2 = (Const(0), parse("1+x^2", names), Const(0))
    res, worst = rescale_measured([X1, X2], names, box, 25)
    assert "base_pair" in res.stages_run and worst < 1e-6
    # the transports evaluate the bracket at every stage; each field
    # derives it once
    assert 0 < len(pairs) <= 4 * len(set(pairs)), len(pairs)


def count_compiles(monkeypatch):
    compiled = []
    original = frobenius.compile_exprs

    def counting(exprs):
        compiled.append(tuple(exprs))
        return original(exprs)

    monkeypatch.setattr(frobenius, "compile_exprs", counting)
    return compiled


def assert_compiled_once(compiled):
    assert compiled
    repeated = {e for e in compiled if compiled.count(e) > 1}
    assert not repeated, repeated


def test_rescale_compiles_each_expression_tuple_once(monkeypatch):
    compiled = count_compiles(monkeypatch)
    names = ("x", "y", "z")
    box = Box.from_dict({n: (-0.2, 0.2) for n in names})
    X1 = (parse("1+y^2", names), Const(0), Const(0))
    X2 = (Const(0), parse("1+x^2", names), Const(0))
    res, worst = rescale_measured([X1, X2], names, box, 25)
    assert "base_pair" in res.stages_run and worst < 1e-6
    # the transports evaluate fields, brackets and directionals at every
    # stage; each object built there compiles its kernel once
    assert_compiled_once(compiled)


def test_repeated_field_evaluation_compiles_once(monkeypatch):
    compiled = count_compiles(monkeypatch)
    X1, X2 = exp_field_pair()
    Xi = VectorField(X1, NAMES3).with_factor(ScalarFn(pexpr("exp(x)"), NAMES3))
    Xj = VectorField(X2, NAMES3).with_factor(ScalarFn(pexpr("1+z^2"), NAMES3))
    # a numeric term makes the sum a closure
    logfn = ScalarFn.sum([pexpr("x*y"), lambda U: U[:, 2]], NAMES3)
    g = ScalarFn(pexpr("x*y"), NAMES3)
    U = np.random.default_rng(0).uniform(-0.5, 0.5, (6, 3))
    counts = []
    for _ in range(3):
        Xi.directional(g, U)
        Xi.bracket_with(Xj, U)
        logfn.ev(U)
        counts.append(len(compiled))
    # the first round compiles every kernel it needs, later rounds none
    assert counts[0] > 0 and counts == counts[:1] * 3, counts


def test_second_rescaling_of_the_pair_compiles_no_kernel_source(monkeypatch):
    # the benchmark's frames pair builds every object afresh on each
    # operation, but their kernel sources repeat: a second operation takes
    # each code object from the cache and gives the first one's bits
    fields, names, box = benchmark_pair()

    def operation():
        res = rescale_frame(list(fields), names, box, rng=5)
        worst = commutation_residual(res.scaled_fields(), box, rng=6,
                                     n_samples=20)
        return res.stages_run, bits(np.array(res.stage1_residuals)), bits(
            np.float64(worst))

    stages, residuals, worst = operation()
    compiled = []

    def counting(source, *args):
        compiled.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr(expr, "compile", counting, raising=False)
    again, again_residuals, again_worst = operation()
    assert compiled == []
    assert again == stages and "base_pair" in stages
    assert np.array_equal(again_residuals, residuals)
    assert again_worst == worst


def test_rescaled_frame_compiles_each_factor_once(monkeypatch):
    compiled = count_compiles(monkeypatch)
    X1, X2 = exp_field_pair()
    res = rescale_frame([X1, X2], NAMES3, BOX3, rng=6)
    assert all(f.expr is not None for f in res.factors)
    U = np.random.default_rng(0).uniform(-0.8, 0.8, (6, 3))
    counts = []
    for k in range(3):
        for X in res.scaled_fields():
            X.eval(U)
        assert factors_nonvanishing(res, k)
        counts.append(len(compiled))
    # the factors are kept, so their kernels compile in the first round only
    assert counts == counts[:1] * 3, counts


# the operations the construction made before ScalarFn had them: each
# returned an expression when all operands were, else a closure

def reference_negate(h):
    if h.expr is not None:
        return simplify(Call("neg", h.expr))
    return lambda U: -h.ev(U)


def reference_divide(src, factor):
    if src.expr is not None and factor.expr is not None:
        return simplify(Bin("/", src.expr, factor.expr))
    return lambda U: src.ev(U) / factor.ev(U)


def reference_log_sum(terms):
    if all(isinstance(t, Expr) for t in terms):
        return exprmat.sum_exprs(terms)
    fns = [ScalarFn(t, NAMES3) for t in terms]

    def fn(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        return sum((f.ev(U) for f in fns), np.zeros(U.shape[0]))
    return fn


def reference_factor(terms):
    log = reference_log_sum(terms)
    if isinstance(log, Expr):
        return simplify(Call("exp", log))
    logfn = ScalarFn(log, NAMES3)
    return lambda U: np.exp(logfn.ev(U))


def operand(e, symbolic):
    """``e`` as itself, or as a closure evaluating it."""
    if symbolic:
        return e
    f = ScalarFn(e, NAMES3)
    return lambda U: f.ev(U)


def assert_same(got, want, U):
    """``got`` is the node ``want``, or evaluates to its bits."""
    if isinstance(want, Expr):
        assert got.expr is want
    else:
        assert got.expr is None
        with np.errstate(all="ignore"):
            assert np.array_equal(bits(got.ev(U)),
                                  bits(ScalarFn(want, NAMES3).ev(U)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(expr_strategy(NAMES3), st.booleans()),
                min_size=2, max_size=4),
       st.integers(min_value=0, max_value=10_000))
def test_scalar_operations_match_the_construction_they_replace(drawn, seed):
    U = np.random.default_rng(seed).uniform(-1.5, 1.5, (7, 3))
    terms = [operand(e, sym) for e, sym in drawn]
    a, b = (ScalarFn(t, NAMES3) for t in terms[:2])
    assert_same(-a, reference_negate(a), U)
    assert_same(a / b, reference_divide(a, b), U)
    for part in (terms, terms[:1], []):
        assert_same(ScalarFn.sum(part, NAMES3), reference_log_sum(part), U)
        assert_same(ScalarFn.sum(part, NAMES3).exp(), reference_factor(part),
                    U)


# ---------------------------------------------------------------------------
# the bracket table against the per-pair Leibniz loop it replaced

def reference_bracket(Xi, Xj, U, h=1e-5):
    """[X_i, X_j](U) as one pair was assembled before the bracket table:
    both factors evaluated at U for this pair alone, and each central
    difference as two separate evaluations of the factor."""

    def directional(X, g, v):
        if g.expr is not None and X.symbolic:
            return X.directional(g, U)
        eps = h / np.maximum(np.linalg.norm(v, axis=1), 1e-12)
        return (g.ev(U + eps[:, None] * v)
                - g.ev(U - eps[:, None] * v)) / (2.0 * eps)

    B = Xi._bare_bracket(Xj).eval(U)
    fi = Xi.factor.ev(U) if Xi.factor is not None else np.ones(len(U))
    fj = Xj.factor.ev(U) if Xj.factor is not None else np.ones(len(U))
    out = (fi * fj)[:, None] * B
    if Xi.factor is None and Xj.factor is None:
        return out
    Ai, Aj = Xi.bare.eval(U), Xj.bare.eval(U)
    if Xj.factor is not None:
        out += directional(Xi, Xj.factor, Ai * fi[:, None])[:, None] * Aj
    if Xi.factor is not None:
        out -= directional(Xj, Xi.factor, Aj * fj[:, None])[:, None] * Ai
    return out


def reference_commutation_residual(fields, box, rng, n_samples, h=1e-4):
    rng = np.random.default_rng(rng)
    U = frobenius._sample(box, rng, n_samples, fields[0].names)
    size = [float(np.max(np.abs(f.eval(U)))) for f in fields]
    worst = 0.0
    for i, j in combinations(range(len(fields)), 2):
        B = reference_bracket(fields[i], fields[j], U, h)
        worst = max(worst, float(np.max(np.abs(B)))
                    / (1.0 + max(size[i], size[j])))
    return worst


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture(scope="module")
def benchmark_frames():
    """The benchmark's cyclic and pair frames rescaled at seeds 1-3, each
    with the seed of its check and every bracket table its construction
    built, nested ones included."""
    original = frobenius._bracket_table
    out = []
    tables = []

    def recording(fields, pairs, U, h=1e-5):
        got = original(fields, pairs, U, h)
        tables.append((list(fields), list(pairs), U, h, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frobenius, "_bracket_table", recording)
        for seed in (1, 2, 3):
            bench = workloads.FramesWorkload(seed)
            for (label, fields, names, box, opts, _), (r1, r2) in zip(
                    bench.frames, bench.rngs):
                del tables[:]
                res = rescale_frame(list(fields), names, box, rng=r1, **opts)
                out.append((label, res, box, r2, list(tables)))
    return out


def test_bracket_tables_match_per_pair_reference(benchmark_frames):
    stage2 = 0
    for label, res, box, _, tables in benchmark_frames:
        assert tables, label
        for fields, pairs, U, h, (brackets, values) in tables:
            for (i, j), B in zip(pairs, brackets):
                want = reference_bracket(fields[i], fields[j], U, h)
                assert np.array_equal(bits(B), bits(want)), (label, i, j)
            for X, V in zip(fields, values):
                assert np.array_equal(bits(V), bits(X.eval(U))), label
            # stage 2 brackets the two earlier scaled fields with the third
            stage2 += pairs == [(0, 2), (1, 2)] and all(
                X.factor is not None for X in fields)
    assert stage2 == 3


def test_commutation_residual_matches_per_pair_reference(benchmark_frames):
    for label, res, box, r2, _ in benchmark_frames:
        fields = res.scaled_fields()
        got = commutation_residual(fields, box, rng=r2, n_samples=20)
        want = reference_commutation_residual(fields, box, r2, 20)
        assert got == want and 0.0 < got < 1e-6, (label, got, want)


def transport_terms(factors):
    """The distinct transport terms that numeric factors sum, found through
    the closures of their ``ScalarFn``s."""
    found, seen, todo = [], set(), list(factors)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, TransportTerm):
            found.append(obj)
        elif isinstance(obj, ScalarFn):
            todo.append(obj._fn)
        elif isinstance(obj, list):
            todo.extend(obj)
        elif getattr(obj, "__closure__", None):
            todo.extend(c.cell_contents for c in obj.__closure__)
    return found


def test_commutation_residual_marches_each_transport_twice(benchmark_frames,
                                                          monkeypatch):
    label, res, box, r2, _ = benchmark_frames[0]
    assert label == "cyclic"
    terms = transport_terms(res.factors)
    calls = Counter()
    original = TransportTerm.__call__

    def counting(self, U):
        calls[self] += 1
        return original(self, U)

    monkeypatch.setattr(TransportTerm, "__call__", counting)
    commutation_residual(res.scaled_fields(), box, rng=r2, n_samples=20)
    # once at the samples and once at every partner's displaced samples;
    # the per-pair loop marched each term 7 times on this frame
    assert len(terms) == 3 and calls == {t: 2 for t in terms}, calls


def test_numeric_directional_is_one_evaluation_of_both_sides():
    # a transport along e^y d_x to the section x = 0: lanes at different
    # distances take different step counts
    Y = VectorField((pexpr("exp(y)", NAMES4), Const(0), Const(0), Const(0)),
                    NAMES4)
    term = TransportTerm(Y, ScalarFn(pexpr("x*z", NAMES4), NAMES4),
                         np.zeros(4), [1.0, 0.0, 0.0, 0.0])
    rows = []

    def numeric(U):
        rows.append(len(U))
        return term(U)

    X = VectorField((pexpr("exp(z)", NAMES4), pexpr("w", NAMES4), Const(0),
                     Const(1)), NAMES4).with_factor(
        ScalarFn(pexpr("1+y^2", NAMES4), NAMES4))
    U = np.random.default_rng(5).uniform(-0.7, 0.7, (20, 4))
    got = X.directional(ScalarFn(numeric, NAMES4), U)
    assert rows == [40]
    v = X.eval(U)
    eps = 1e-4 / np.maximum(np.linalg.norm(v, axis=1), 1e-12)
    want = (term(U + eps[:, None] * v) - term(U - eps[:, None] * v)) \
        / (2.0 * eps)
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("factors", [("numeric", "numeric"),
                                     ("symbolic", "numeric"),
                                     ("symbolic", "symbolic"),
                                     (None, "numeric")])
def test_bracket_with_matches_per_pair_reference(factors):
    # overlapping components, so the order in which the two directional
    # terms are added shows in the bits
    def field(exprs, kind, text, fn):
        X = VectorField(exprs, NAMES3)
        if kind is None:
            return X
        return X.with_factor(ScalarFn(pexpr(text) if kind == "symbolic"
                                      else fn, NAMES3))

    Xi = field((Const(1), pexpr("y"), pexpr("x*z")), factors[0], "exp(x*y)",
               lambda U: np.exp(U[:, 0] * U[:, 1]))
    Xj = field((pexpr("z"), Const(1), pexpr("x")), factors[1], "1+y^2+z",
               lambda U: 1 + U[:, 1] ** 2 + U[:, 2])
    U = np.random.default_rng(8).uniform(-0.8, 0.8, (30, 3))
    got = Xi.bracket_with(Xj, U)
    assert np.array_equal(bits(got), bits(reference_bracket(Xi, Xj, U)))


def test_transport_value_does_not_depend_on_other_points():
    # lanes farther from the section take more steps; a one-point batch
    # rounds its section distances as any larger batch does (the tilted
    # normal makes them inexact)
    Y = VectorField((pexpr("exp(y)", NAMES4), Const(0.5), Const(0),
                     Const(0)), NAMES4)
    term = TransportTerm(Y, ScalarFn(pexpr("x*z+w", NAMES4), NAMES4),
                         np.zeros(4), [1.0, 0.5, 0.3, 0.0])
    U = np.random.default_rng(6).uniform(-0.4, 0.4, (8, 4))
    alone = term(U)
    corner = np.full((1, 4), 0.7)
    assert np.array_equal(bits(term(np.concatenate([U, corner]))[:8]),
                          bits(alone))
    for k in range(len(U)):
        assert np.array_equal(bits(term(U[k:k + 1])), bits(alone[k:k + 1]))


def test_transport_leaving_the_domain_is_a_frobenius_error():
    # the source is infinite on y = 0, which the first lane's orbit follows
    Y = VectorField((Const(1), Const(0), Const(0)), NAMES3)
    source = ScalarFn(lambda U: 1.0 / U[:, 1], NAMES3)
    term = TransportTerm(Y, source, np.zeros(3), [1.0, 0.0, 0.0])
    U = np.array([[0.5, 0.0, 0.1], [0.3, 0.2, 0.0]])
    with pytest.raises(StraighteningFailed), np.errstate(all="ignore"):
        term(U)


@pytest.mark.parametrize("source, closed_form", [
    ("1", np.arctan),
    ("2*y", lambda y: np.log1p(y ** 2)),
])
def test_transport_matches_closed_form(source, closed_form):
    # Y = (1+y^2) d_y with g = 0 on y = 0: Y(g) = 1 gives g = arctan y and
    # Y(g) = 2y gives g = ln(1+y^2); the point on the section marches a
    # span of zero
    names = ("x", "y")
    Y = VectorField((Const(0), parse("1+y^2", names)), names)
    term = TransportTerm(Y, ScalarFn(parse(source, names), names),
                         np.zeros(2), [0.0, 1.0])
    y = np.array([-1.5, -0.6, -0.05, 0.0, 0.3, 0.9, 2.0])
    U = np.stack([np.linspace(-1.0, 1.0, len(y)), y], axis=1)
    with np.errstate(all="raise"):
        got = term(U)
    assert np.max(np.abs(got - closed_form(y))) < 1e-11
    assert got[3] == 0.0
