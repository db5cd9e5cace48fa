import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwave import frobenius
from rwave.expr import Box, Const, is_zero, parse, simplify
from rwave.frobenius import (
    FrobeniusError,
    IncompatibleSystem,
    LogFactor,
    NotInSpan,
    ScalarFn,
    VectorField,
    commutation_residual,
    compatibility_check,
    pair_bracket_coefficients,
    rescale_frame,
    solve_two_columns,
)
from rwave.geometry import Verdict

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


def test_pair_coefficients_exponential():
    X1, X2 = exp_field_pair()
    pc = pair_bracket_coefficients(X1, X2, NAMES3, BOX3, rng=0)
    assert pc.symbolic
    assert simplify(pc.h_first.expr) == Const(0)
    assert simplify(pc.h_second.expr) == Const(1)
    assert pc.residual_max < 1e-10


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
    res = rescale_frame([X1, X2], NAMES3, BOX3, rng=6)
    f1, f2 = res.factors
    assert f1.expr is not None and f2.expr is not None
    rng = np.random.default_rng(7)
    assert is_zero(simplify(f1.expr - Const(1)), BOX3, rng=rng)
    assert is_zero(simplify(f2.expr - parse("exp(-x)", NAMES3)), BOX3, rng=rng)
    assert res.commutation_max < 1e-10
    assert "compatibility" not in res.stages_run
    assert res.factors_nonvanishing(rng=8)


def test_rescale_already_commuting_identity():
    X1 = (Const(1), Const(0), Const(0))
    X2 = (Const(0), pexpr("1+z^2"), Const(0))
    res = rescale_frame([X1, X2], NAMES3, BOX3, rng=9)
    assert "identity" in res.stages_run
    for f in res.factors:
        assert simplify(f.expr) == Const(1)
    assert res.commutation_max < 1e-10


def test_rescale_wave_pair_identity():
    # characteristic pair of the two-wave fixture: brackets vanish
    names = ("u1", "u2", "u3")
    box = Box.from_dict({"u1": (0.3, 3.0), "u2": (-1, 1), "u3": (-1, 1)})
    gp = (parse("sqrt(u1)", names), Const(1), Const(0))
    gm = (parse("-sqrt(u1)", names), Const(1), Const(0))
    res = rescale_frame([gp, gm], names, box, rng=10)
    assert "identity" in res.stages_run
    assert res.commutation_max < 1e-9


def test_rescale_three_fields_symbolic():
    # d_x, e^x d_y, e^(x+y) d_z: stage 2 is trivial after stage 1
    X1 = (Const(1), Const(0), Const(0), Const(0))
    X2 = (Const(0), parse("exp(x)", NAMES4), Const(0), Const(0))
    X3 = (Const(0), Const(0), parse("exp(x+y)", NAMES4), Const(0))
    res = rescale_frame([X1, X2, X3], NAMES4, BOX4, rng=11)
    assert res.commutation_max < 1e-8
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
    assert res.factors_nonvanishing(rng=14)
    worst = commutation_residual(res.scaled_fields(), BOX4, rng=15,
                                 n_samples=100)
    assert worst < 1e-6, worst


def test_rescale_grid_path_pair_two_variable_coefficients():
    # unscaled commuting fields with two-variable h coefficients force the
    # numeric transport in the base pair
    names = ("x", "y", "z")
    box = Box.from_dict({"x": (-0.6, 0.6), "y": (-0.6, 0.6), "z": (-0.6, 0.6)})
    X1 = (parse("1+y^2", names), Const(0), Const(0))
    X2 = (Const(0), parse("1+x^2", names), Const(0))
    res = rescale_frame([X1, X2], names, box, rng=16)
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
                                                      "y": (0, 1)}))


def test_rescale_full_rank_commuting_frame_is_identity():
    # a commuting frame needs no construction even at full rank
    names = ("u1", "u2")
    box = Box.from_dict({"u1": (0.3, 3.0), "u2": (-1, 1)})
    gp = (parse("sqrt(u1)", names), Const(1))
    gm = (parse("-sqrt(u1)", names), Const(1))
    res = rescale_frame([gp, gm], names, box, rng=30)
    assert "identity" in res.stages_run
    assert res.commutation_max < 1e-9


def test_rescale_constant_input_scaling_spans_same_distribution():
    X1, X2 = exp_field_pair()
    res1 = rescale_frame([X1, X2], NAMES3, BOX3, rng=19)
    X2s = tuple(simplify(Const(2) * e) for e in X2)
    res2 = rescale_frame([X1, X2s], NAMES3, BOX3, rng=20)
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
    assert res1.commutation_max < 1e-10
    assert res2.commutation_max < 1e-10


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
    direct = res.factors[0].as_scalar_fn(NAMES4).ev(U)
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
    # depend on two variables, so they stay pointwise solves, and x d_y
    # vanishes on x = 0, outside the sampling box
    X1 = (pexpr("1+y^2"), Const(0), Const(0))
    X2 = (Const(0), pexpr("x"), Const(0))
    box = Box.from_dict({"x": (0.5, 1.0), "y": (-0.5, 0.5), "z": (-0.5, 0.5)})
    pc = pair_bracket_coefficients(X1, X2, NAMES3, box, rng=24)
    assert not pc.symbolic and pc.h_first.expr is None
    U = np.array([[0.7, 0.3, 0.1], [0.0, 0.2, 0.1]])
    assert np.allclose(pc.h_first.ev(U[:1]), -2 * 0.7 * 0.3 / 1.09)
    for h in (pc.h_first, pc.h_second):
        with pytest.raises(NotInSpan) as err:
            h.ev(U)
        assert err.value.witness == {"x": 0.0, "y": 0.2, "z": 0.1}


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
    res = rescale_frame([X1, X2], names, box, rng=25)
    assert "base_pair" in res.stages_run and res.commutation_max < 1e-6
    # the transports evaluate the bracket at every RK4 stage; each field
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
    res = rescale_frame([X1, X2], names, box, rng=25)
    assert "base_pair" in res.stages_run and res.commutation_max < 1e-6
    # the transports evaluate fields, brackets and directionals at every
    # RK4 stage; each object built there compiles its kernel once
    assert_compiled_once(compiled)


def test_repeated_field_evaluation_compiles_once(monkeypatch):
    compiled = count_compiles(monkeypatch)
    X1, X2 = exp_field_pair()
    Xi = VectorField(X1, NAMES3, factor=ScalarFn(pexpr("exp(x)"), NAMES3))
    Xj = VectorField(X2, NAMES3, factor=ScalarFn(pexpr("1+z^2"), NAMES3))
    log = LogFactor(NAMES3)
    log.add(pexpr("x*y"))
    log.add(lambda U: U[:, 2])      # a numeric term makes the sum a closure
    logfn = log.as_scalar_fn()
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
