"""Shared generators for property tests, and helpers shared by test
modules.

Random expressions are built domain-safe by construction: arguments of
sqrt and ln are wrapped as (1 + (.)^2) and denominators as (2 + (.)^2),
so evaluation anywhere in the sample boxes stays real and finite.
"""

from hypothesis import strategies as st

from rwave.expr import Bin, Call, Const, Var


def safe_sqrt(e):
    return Call("sqrt", Bin("+", Const(1), Bin("^", e, Const(2))))


def safe_ln(e):
    return Call("ln", Bin("+", Const(1), Bin("^", e, Const(2))))


def safe_div(a, b):
    return Bin("/", a, Bin("+", Const(2), Bin("^", b, Const(2))))


def expr_strategy(names, max_depth=6):
    leaves = st.one_of(
        st.sampled_from([Var(n) for n in names]),
        st.integers(min_value=-3, max_value=3).map(Const),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                  allow_infinity=False).map(Const),
    )

    def extend(children):
        binary = st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: Bin(t[0], t[1], t[2]))
        divide = st.tuples(children, children).map(lambda t: safe_div(*t))
        power = st.tuples(children, st.integers(min_value=0, max_value=3)).map(
            lambda t: Bin("^", Bin("+", Const(1), Bin("^", t[0], Const(2))),
                          Const(t[1])))
        unary = st.tuples(
            st.sampled_from(["neg", "sin", "cos", "abs"]), children
        ).map(lambda t: Call(t[0], t[1]))
        guarded = st.one_of(children.map(safe_sqrt), children.map(safe_ln))
        return st.one_of(binary, divide, unary, guarded, power)

    return st.recursive(leaves, extend, max_leaves=max_depth)


def random_polynomial_vector(rng, names, q, max_terms=3):
    """Low-degree polynomial vector field components, safe to evaluate and
    differentiate everywhere."""
    comps = []
    for _ in range(q):
        e = Const(int(rng.integers(-2, 3)))
        for _ in range(int(rng.integers(0, max_terms))):
            term = Const(round(float(rng.uniform(-2, 2)), 3))
            for _ in range(int(rng.integers(1, 3))):
                term = Bin("*", term, Var(str(rng.choice(names))))
            e = Bin("+", e, term)
        comps.append(e)
    return tuple(comps)


def point_env(field, idx):
    """Every variable of a SolutionField at grid point ``idx``, as floats."""
    env = {name: float(field.x[idx, i])
           for i, name in enumerate(field.x_names)}
    env.update(field.params)
    for j, name in enumerate(field.space.dependent):
        env[name] = float(field.u[idx, j])
    return env
