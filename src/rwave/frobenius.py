"""Rescaling a frame of vector fields so that its members commute.

Input: fields X_1..X_r on a coordinate block, with every pairwise bracket
lying in the span of the two fields involved:

    [X_i, X_j] = h^i_{ij} X_i + h^j_{ij} X_j.

Output: nonvanishing scalar factors f_i with [f_i X_i, f_j X_j] = 0.
The construction is inductive: the pair case solves two decoupled
transport equations X_i(ln f_j) = +/- h; each extension step checks the
compatibility symmetry of the new coefficients along the straightened
frame, solves the stage-1 transport system for the new factor, and then
re-rescales the previous fields along the new one (stage 2).  Transport
equations are solved symbolically when the flow field moves a single
coordinate and the source has a recognized antiderivative, and otherwise
by backward flows to a transversal section with an accumulator, one
DOP853 march per term in which every point keeps its own steps, so its
value does not depend on the other points evaluated with it.

The flows evaluate bracket coefficients at every stage.  Each field
derives a symbolic bracket once and caches it on itself, and fields and
scalars compile their expressions into one kernel (`compile_exprs`) once
and keep it.  The span coefficients of expression fields are
expressions: a fit of sampled values where one is recognizable, else the
exact form from the symbolic bracket.  A sampled span check guards their
construction, and the Gram determinant guards the exact forms'
evaluation against dependent fields.  The guard travels: whatever is
derived from a guarded scalar (quotients, sums, exp, directional
derivatives, closed-form transports and so the factors) checks it where
it is evaluated, so a guarded coefficient may take a closed-form
transport, except one through ln|.|, which would be singular where the
flow meets the guard.  Where a numeric factor leaves no
fit, the coefficients are solved pointwise in one batched two-column
least-squares solve (`solve_two_columns`).  Brackets come from one table
per point set (`_bracket_table`): a numeric factor, whose every
evaluation is a transport march, is evaluated once at the points and once
at their displacements along all its partner fields, for the finite
differences of the Leibniz rule, however many pairs share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import exprmat, ode
from .expr import (
    Bin,
    Box,
    Call,
    Const,
    Expr,
    MissingVariableError,
    ZeroVerdict,
    antiderivative,
    compile_exprs,
    is_zero,
    simplify,
)
from .geometry import (
    ConditionCheck,
    Verdict,
    directional_derivative,
    fit_symbolic,
    lie_bracket,
)

# samples and relative tolerance of a bracket's pairwise span decomposition
_PAIR_TRIALS = 40
_SPAN_TOL = 1e-7
# samples and tolerances of a transport solve's residual check and of the
# compatibility check
_TRANSPORT_TRIALS = 24
_TRANSPORT_TOL = 1e-7
_COMPATIBILITY_TOL = 1e-5
_SURROGATE_TOL = 3e-8      # fit of a symbolic stand-in for a numeric source
_COMMUTATION_STEP = 1e-4   # central-difference step of commutation_residual
_DIRECTIONAL_STEP = 1e-4   # central-difference step of a numeric directional
_TRANSPORT_STEP = 1.0      # largest psi move of a transport's first trial step
_GRID_PER_AXIS = 4         # grid points per axis of a serialized numeric factor


class FrobeniusError(Exception):
    pass


class NotInSpan(FrobeniusError):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class IncompatibleSystem(FrobeniusError):
    """The coefficient table violates the compatibility symmetry required
    for the stage-1 transport system to be solvable."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class StraighteningFailed(FrobeniusError):
    pass


# ---------------------------------------------------------------------------
# scalar functions and fields over a coordinate block

class ScalarFn:
    """Uniform wrapper over Expr scalars and plain callables of the
    coordinate matrix U (n, d).  Negation, division, ``exp`` and ``sum``
    build a simplified expression when every operand is symbolic, and
    otherwise a closure over the operands' values.

    ``guards`` is a tuple of span guards (s, det G), with s = |a|^2 +
    |b|^2 and G the Gram matrix of a field pair a, b whose span defines
    an expression scalar: ``ev`` raises NotInSpan (``_check_independent``)
    where any of the pairs is dependent.  Negation, division, ``exp`` and
    ``sum`` keep the union of their operands' guards, and so do the
    derivatives of ``VectorField.directional`` and the closed forms of
    ``solve_transport_system``.  A closure checks the guards of its
    operands as it evaluates them and keeps their union for its callers
    to read."""

    def __init__(self, obj, names, guards=()):
        self.names = tuple(names)
        if isinstance(obj, (int, float)):
            obj = Const(float(obj)) if isinstance(obj, float) else Const(obj)
        self.expr = obj if isinstance(obj, Expr) else None
        self._fn = None if self.expr is not None else obj
        self.guards = tuple(guards)
        self._kernel = None

    def ev(self, U):
        if self.expr is None:
            return np.asarray(self._fn(U), dtype=float).reshape(U.shape[0])
        if isinstance(self.expr, Const) and not self.guards:
            return np.full(U.shape[0], float(self.expr.value))
        if self._kernel is None:
            self._kernel = compile_exprs(
                (self.expr,) + tuple(e for g in self.guards for e in g))
        out = self._kernel(_columns(U, self.names))
        for k in range(1, out.shape[1], 2):
            _check_independent(out[:, k], out[:, k + 1], out[:, 0], U,
                               self.names)
        return out[:, 0]

    def check(self, U):
        """Raise NotInSpan where a guard fails at a row of U."""
        if self.guards:
            self.ev(U)

    def __repr__(self):
        return f"<ScalarFn {self.expr}>" if self.expr is not None \
            else "<ScalarFn numeric>"

    def __neg__(self):
        if self.expr is not None:
            return ScalarFn(simplify(Call("neg", self.expr)), self.names,
                            self.guards)
        return ScalarFn(lambda U: -self.ev(U), self.names, self.guards)

    def __truediv__(self, other):
        guards = _union(self.guards, other.guards)
        if self.expr is not None and other.expr is not None:
            return ScalarFn(simplify(Bin("/", self.expr, other.expr)),
                            self.names, guards)
        return ScalarFn(lambda U: self.ev(U) / other.ev(U), self.names,
                        guards)

    def exp(self):
        if self.expr is not None:
            return ScalarFn(simplify(Call("exp", self.expr)), self.names,
                            self.guards)
        return ScalarFn(lambda U: np.exp(self.ev(U)), self.names, self.guards)

    @classmethod
    def sum(cls, terms, names):
        """The sum of ScalarFn, Expr and callable ``terms``, added in term
        order."""
        fns = [t if isinstance(t, ScalarFn) else cls(t, names) for t in terms]
        guards = _union(*(f.guards for f in fns))
        if all(f.expr is not None for f in fns):
            return cls(exprmat.sum_exprs(f.expr for f in fns), names, guards)
        return cls(lambda U: sum((f.ev(U) for f in fns), np.zeros(len(U))),
                   names, guards)


def _union(*guards):
    """The guard tuples joined in order, each guard once."""
    return tuple(dict.fromkeys(g for gs in guards for g in gs))


class VectorField:
    """Symbolic base field with an optional scalar factor (symbolic or
    numeric); evaluates on coordinate batches and differentiates scalars
    along itself.  Fields are immutable, so each keeps what it derives for
    its own lifetime: the compiled kernel of its components, its bracket
    fields and its directional-derivative functions.  A scaled field
    shares its bare field's kernel and brackets (see ``with_factor``).
    """

    def __init__(self, exprs, names):
        self.exprs = tuple(exprs)
        self.names = tuple(names)
        self.factor = None  # ScalarFn, or None meaning 1
        self._scaled = None
        self._kernel = None
        self.bare = self
        self._brackets = {}     # other.exprs -> bare field [self, other]
        self._directionals = {}  # (expr, guards) -> derivative ScalarFn

    def with_factor(self, factor):
        """The field ``factor`` times this field's components."""
        out = VectorField(self.exprs, self.names)
        out.factor = factor
        out.bare = self.bare
        return out

    @property
    def symbolic(self):
        return self.factor is None or self.factor.expr is not None

    @property
    def guards(self):
        """The factor's guards."""
        return () if self.factor is None else self.factor.guards

    def scaled_exprs(self):
        """Component expressions when fully symbolic, else None."""
        if self.factor is None:
            return self.exprs
        if self.factor.expr is None:
            return None
        if self._scaled is None:
            self._scaled = tuple(simplify(Bin("*", self.factor.expr, e))
                                 for e in self.exprs)
        return self._scaled

    def eval(self, U):
        if self.factor is not None:
            return self.bare.eval(U) * self.factor.ev(U)[:, None]
        if self._kernel is None:
            self._kernel = compile_exprs(self.exprs)
        return self._kernel(_columns(U, self.names))

    def directional_fn(self, scalar: ScalarFn):
        """Symbolic derivative of the expression ``scalar`` along this
        (symbolic) field, guarded by the scalar's and the factor's guards."""
        key = (scalar.expr, scalar.guards)
        out = self._directionals.get(key)
        if out is None:
            (d,) = directional_derivative((scalar.expr,), self.scaled_exprs(),
                                          self.names)
            out = self._directionals[key] = ScalarFn(
                d, self.names, _union(scalar.guards, self.guards))
        return out

    def directional(self, scalar: ScalarFn, U):
        """Derivative of ``scalar`` along this field at rows of U; one
        evaluation of a numeric scalar covers both displaced point sets."""
        if scalar.expr is not None and self.symbolic:
            return self.directional_fn(scalar).ev(U)
        points, eps = _displaced(U, self.eval(U), _DIRECTIONAL_STEP)
        return _difference_quotient(scalar.ev(points), eps)

    def _bare_bracket(self, other):
        """[bare self, bare other] as a field, derived once per pair."""
        brackets = self.bare._brackets
        base = brackets.get(other.exprs)
        if base is None:
            base = brackets[other.exprs] = VectorField(
                lie_bracket(self.exprs, other.exprs, self.names), self.names)
        return base

    def bracket_with(self, other, U):
        """[self, other](U): the one-pair case of ``_bracket_table``."""
        return _bracket_table([self, other], [(0, 1)], U)[0][0]

    def single_direction(self):
        """(index, coefficient expr) when exactly one component is nonzero
        and the factor is symbolic, else None."""
        moving = [i for i, e in enumerate(self.exprs)
                  if simplify(e) != Const(0)]
        if len(moving) != 1 or not self.symbolic:
            return None
        return moving[0], self.scaled_exprs()[moving[0]]


def _displaced(U, v, h):
    """The points U + eps v and U - eps v stacked, with eps = h / |v| per
    row, for a central difference along v."""
    eps = h / np.maximum(np.linalg.norm(v, axis=1), 1e-12)
    step = eps[:, None] * v
    return np.concatenate([U + step, U - step]), eps


def _difference_quotient(values, eps):
    """Central differences from a scalar's values at ``_displaced`` points."""
    n = len(eps)
    return (values[:n] - values[n:]) / (2.0 * eps)


def _bracket_table(fields, pairs, U, h=1e-5):
    """Brackets [X_i, X_j](U) for each (i, j) in ``pairs``, and the values
    X_k(U) of all ``fields``, as (brackets, values).

    Each bracket is the factored Leibniz rule for X = f A, Y = g B,

        [X, Y] = f g [A, B] + X(g) B - Y(f) A,

    symbolic except for the directionals X(g), Y(f) that take central
    differences because a factor or the field it runs along is numeric.
    Each factor is evaluated once at U and once over the displaced points
    U +/- eps_k X_k of all its partners k stacked, so a factor made of
    transport terms marches twice per table however many pairs it is in.
    """
    bare = [X.bare.eval(U) for X in fields]
    fac = [np.ones(len(U)) if X.factor is None else X.factor.ev(U)
           for X in fields]
    values = [b * f[:, None] for b, f in zip(bare, fac)]

    along = {}      # factor k -> the fields its directionals run along
    for i, j in pairs:
        if fields[j].factor is not None:
            along.setdefault(j, {})[i] = None
        if fields[i].factor is not None:
            along.setdefault(i, {})[j] = None
    deriv = {}      # (k, m) -> X_m(f_k)
    for k, partners in along.items():
        g = fields[k].factor
        numeric = []
        for m in partners:
            if g.expr is not None and fields[m].symbolic:
                deriv[k, m] = fields[m].directional(g, U)
            else:
                numeric.append(m)
        if numeric:
            points, eps = zip(*(_displaced(U, values[m], h) for m in numeric))
            vals = np.split(g.ev(np.concatenate(points)), len(numeric))
            for m, e, v in zip(numeric, eps, vals):
                deriv[k, m] = _difference_quotient(v, e)

    brackets = []
    for i, j in pairs:
        Xi, Xj = fields[i], fields[j]
        out = (fac[i] * fac[j])[:, None] * Xi._bare_bracket(Xj).eval(U)
        if Xj.factor is not None:
            out += deriv[j, i][:, None] * bare[j]
        if Xi.factor is not None:
            out -= deriv[i, j][:, None] * bare[i]
        brackets.append(out)
    return brackets, values


# ---------------------------------------------------------------------------
# transport solves Y(g) = source

class TransportTerm:
    """g(u) with Y(g) = source and g = 0 on the section through ``base``
    with normal ``normal``.

    The defining flow is reparametrized by the signed section distance
    psi = <normal, u - base>, which makes the section an exact endpoint
    (no event detection).  All query points march as lanes of one DOP853
    flow in s in [0, 1], each with its right-hand side scaled by its own
    span -psi0, and are read at s = 1.  The flow keeps each lane's steps
    and runs the tangency check row by row, so a point's value does not
    depend on which other points are asked for at the same time.
    Requires <normal, Y> to stay bounded away from zero along the orbits,
    i.e. the field crosses its section transversally throughout the
    working box.
    """

    def __init__(self, Y: VectorField, source: ScalarFn, base, normal):
        self.Y = Y
        self.source = source
        self.base = np.asarray(base, dtype=float)
        normal = np.asarray(normal, dtype=float)
        self.normal = normal / np.linalg.norm(normal)

    def __call__(self, U):
        n, d = U.shape
        span = -exprmat.rows_dot(U - self.base, self.normal)  # psi: psi0 -> 0

        def rhs(s, state):
            u = state[:, :d]
            v = self.Y.eval(u)
            denom = exprmat.rows_dot(v, self.normal)
            if np.any(np.abs(denom) < 1e-12):
                raise StraighteningFailed(
                    "transport field becomes tangent to its section")
            src = self.source.ev(u)
            return span[:, None] * np.concatenate(
                [v / denom[:, None], (src / denom)[:, None]], axis=1)

        state0 = np.concatenate([U, np.zeros((n, 1))], axis=1)
        step = _TRANSPORT_STEP
        try:
            out = ode.flow(rhs, state0, 0.0, [1.0],
                           first_step=step / np.maximum(np.abs(span), step))
        except ode.StiffnessAbort as err:
            raise StraighteningFailed("transport flow left the domain") from err
        return -out[0, :, d]


def solve_transport_system(fields, sources, names, box: Box, base, rng,
                           prefer_symbolic=True):
    """g with Y_i(g) = s_i for all i, built greedily one equation at a
    time; each correction is solved along a single field, and the loop
    relies on the compatibility of the sources (checked by the caller)
    to leave earlier equations intact.  Returns (terms, worst_residual):
    g is the sum of the terms, each a closed-form ScalarFn or a
    TransportTerm.
    """
    g = []
    base_arr = np.asarray([base[nm] for nm in names], dtype=float)
    U_samples = _sample(box, rng, _TRANSPORT_TRIALS, names)

    def residual_fn(i):
        # snapshot the accumulated terms: the transport term created from
        # this residual must not see itself through the growing factor
        src = sources[i]
        prior_fn = ScalarFn.sum(g, names) if g else None

        def fn(U):
            out = src.ev(U)
            if prior_fn is not None:
                out = out - fields[i].directional(prior_fn, U)
            return out
        return ScalarFn(fn, names)

    for i, (Y, s) in enumerate(zip(fields, sources)):
        resid = residual_fn(i)
        vals = resid.ev(U_samples)
        if np.max(np.abs(vals)) <= _TRANSPORT_TOL:
            continue
        term = None
        prior = ScalarFn.sum(g, names)
        guards = _union(s.guards, prior.guards, Y.guards)
        if prefer_symbolic and s.expr is not None and prior.expr is not None:
            term = _symbolic_transport(
                Y, ScalarFn(_residual_expr(Y, s, prior.expr), names, guards),
                names, box, rng)
        if term is None:
            # flow along the bare expression field: f X(g) = s becomes
            # X(g) = s / f, keeping nested factors out of the flow itself
            bare = Y.bare
            src = resid if Y.factor is None else resid / Y.factor
            # the flow evaluates a guarded source at every stage, so it
            # meets the guard; a fitted surrogate would not carry it
            if not guards:
                src = _cheapen_source(src, U_samples, names, box, rng)
            vy = bare.eval(base_arr[None])[0]
            if np.linalg.norm(vy) < 1e-12:
                raise StraighteningFailed(
                    "transport field vanishes at the base point")
            term = TransportTerm(bare, src, base_arr, vy)
        g.append(term)
    # verify the full system
    worst = 0.0
    gfn = ScalarFn.sum(g, names)
    for Y, s in zip(fields, sources):
        vals = s.ev(U_samples) - (Y.directional(gfn, U_samples) if g
                                  else 0.0)
        worst = max(worst, float(np.max(np.abs(vals))))
    return g, worst


def _cheapen_source(src: ScalarFn, U_samples, names, box, rng):
    """Replace an expensive callable source by a fitted symbolic surrogate
    when one reproduces it to tight tolerance on fresh samples."""
    if src.expr is not None:
        return src
    vals = src.ev(U_samples)
    e = fit_symbolic(vals, _columns(U_samples, names), names)
    if e is None:
        return src
    Uf = _sample(box, rng, 12, names)
    cand = ScalarFn(e, names)
    err = float(np.max(np.abs(cand.ev(Uf) - src.ev(Uf))))
    scale = 1.0 + float(np.max(np.abs(vals)))
    if err <= _SURROGATE_TOL * scale:
        return cand
    return src


def _residual_expr(Y, s, ge):
    """s - Y(g) for the symbolic log sum ``ge``."""
    e = s.expr
    comps = Y.scaled_exprs()
    acc = Const(0)
    for c, nm in zip(comps, Y.names):
        acc = Bin("+", acc, Bin("*", c, ge.diff(nm)))
    return simplify(Bin("-", e, acc))


def _symbolic_transport(Y: VectorField, source: ScalarFn, names, box, rng):
    """Solve Y(g) = source symbolically when Y moves one coordinate; g
    keeps the source's guards.  A guarded source takes no closed form
    with ln|.|: that is singular where its argument changes sign, which
    the flow crosses, meeting the guard instead."""
    sd = Y.single_direction()
    if sd is None or source.expr is None:
        return None
    idx, coeff = sd
    rhs = simplify(Bin("/", source.expr, coeff))
    F = antiderivative(rhs, names[idx])
    if F is None or (source.guards and _has_log_abs(F)):
        return None
    # confirm Y(F) - source vanishes on the box
    check = simplify(Bin("-", Bin("*", coeff, F.diff(names[idx])), source.expr))
    try:
        ok = is_zero(check, box, trials=24, rng=rng)
    except Exception:
        return None
    if ok.verdict is not ZeroVerdict.PROBABLY_ZERO:
        return None
    return ScalarFn(F, names, source.guards)


def _has_log_abs(e):
    """Whether ``e`` contains ln(abs(.))."""
    if isinstance(e, Call):
        return (e.fn == "ln" and isinstance(e.arg, Call)
                and e.arg.fn == "abs") or _has_log_abs(e.arg)
    if isinstance(e, Bin):
        return _has_log_abs(e.left) or _has_log_abs(e.right)
    return False


# ---------------------------------------------------------------------------
# sample batches and the batched two-column least squares

def _sample(box: Box, rng, n, names):
    missing = set(names) - set(box.names())
    if missing:
        raise MissingVariableError(f"box lacks ranges for {sorted(missing)}")
    env = box.sample(rng, n)
    return np.stack([env[nm] for nm in names], axis=1)


def _columns(U, names):
    return {nm: U[:, k] for k, nm in enumerate(names)}


def _witness(U, row, names):
    return {nm: float(U[row, k]) for k, nm in enumerate(names)}


def solve_two_columns(a, b, y, U, names):
    """Least-squares (c0, c1) with c0 a + c1 b ~ y on every row of the
    (n, d) batches, by a closed-form two-column QR (Gram-Schmidt).  The
    singular values of R, which are those of [a b], give the dependence
    rule of ``_check_independent``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r11 = np.linalg.norm(a, axis=1)
        q1 = a / r11[:, None]
        r12 = np.einsum("ij,ij->i", q1, b)
        w = b - r12[:, None] * q1
        r22 = np.linalg.norm(w, axis=1)
        s = r11 * r11 + r12 * r12 + r22 * r22
        det = (r11 * r22) ** 2
        c1 = np.einsum("ij,ij->i", w, y) / (r22 * r22)
        c0 = (np.einsum("ij,ij->i", q1, y) - r12 * c1) / r11
    _check_independent(s, det, c0 + c1, U, names)
    return np.stack([c0, c1], axis=1)


def _check_independent(s, det, values, U, names):
    """The dependence rule sigma_min < 1e-10 max(1, sigma_max) on the
    singular values of two columns a, b, from s = |a|^2 + |b|^2 and
    det G, G their Gram matrix: a dependent row, or one where ``values``
    is not finite, raises NotInSpan with that row of U as witness.  It is
    squared, as det G >= 1e-20 t max(1, t) for t = sigma_max^2 > 0, the
    larger root of t^2 - s t + det G, so that no root of det G is taken."""
    with np.errstate(invalid="ignore"):
        t = 0.5 * (s + np.sqrt(np.abs(s * s - 4.0 * det)))
        ok = (det >= 1e-20 * t * np.maximum(1.0, t)) & (t > 0) \
            & np.isfinite(values)
    if not np.all(ok):
        raise NotInSpan("fields are dependent or not finite at a point",
                        _witness(U, int(np.argmin(ok)), names))


def _coefficient_fn(Xi, Xj, col, names):
    """Coefficient ``col`` of [X_i, X_j] in span{X_i, X_j} at rows of U."""

    def fn(U):
        (B,), (Vi, Vj) = _bracket_table([Xi, Xj], [(0, 1)], U)
        return solve_two_columns(Vi, Vj, B, U, names)[:, col]
    return fn


# ---------------------------------------------------------------------------
# pairwise bracket coefficients

@dataclass
class PairCoefficients:
    h_first: ScalarFn
    h_second: ScalarFn


def pair_bracket_coefficients(Xi, Xj, names, box: Box, rng):
    """Coefficients with [X_i, X_j] = h^i X_i + h^j X_j.

    The bracket is checked against the pairwise span at samples, through
    one batched two-column least-squares solve; NotInSpan carries a
    witness point when it leaves the span.  Each coefficient is a fit of
    its sampled values where one is recognizable; otherwise expression
    fields get the exact form from the symbolic bracket
    (``_span_coefficients``), which raises NotInSpan where it is
    evaluated on dependent fields, and other fields a pointwise solve.
    """
    Xi = Xi if isinstance(Xi, VectorField) else VectorField(Xi, names)
    Xj = Xj if isinstance(Xj, VectorField) else VectorField(Xj, names)
    coeffs, U, _ = _span_check(Xi, Xj, names, box, np.random.default_rng(rng))
    hf, hs = _span_fns(Xi, Xj, coeffs, U, names, (0, 1))
    return PairCoefficients(h_first=hf, h_second=hs)


def _span_check(Xi, Xj, names, box, rng):
    """(coefficients, U, worst residual) of [X_i, X_j] in span{X_i, X_j}
    at samples U; NotInSpan with a witness when the bracket leaves it."""
    U = _sample(box, rng, _PAIR_TRIALS, names)
    (B,), (Vi, Vj) = _bracket_table([Xi, Xj], [(0, 1)], U)
    coeffs = solve_two_columns(Vi, Vj, B, U, names)
    resid = np.max(np.abs(coeffs[:, :1] * Vi + coeffs[:, 1:] * Vj - B), axis=1)
    at = int(np.argmax(resid))
    worst = float(resid[at])
    if worst > _SPAN_TOL * (1.0 + float(np.max(np.abs(B)))):
        raise NotInSpan(f"bracket leaves span{{X_i, X_j}} (residual "
                        f"{worst:.2e})", _witness(U, at, names))
    return coeffs, U, worst


def _span_fns(Xi, Xj, coeffs, U, names, cols):
    """ScalarFns of the span coefficients ``cols`` of [X_i, X_j], sampled
    as ``coeffs`` at U: the fit of the samples where there is one, else
    the exact form for expression fields, else a pointwise solve.  The
    fit was the smaller form on every frame measured (simplify leaves
    exp(a)/exp(b) where the fit finds exp(a - b)), and the exact form
    costs a simplify per pair, so it is built only where no fit exists."""
    fits = [fit_symbolic(coeffs[:, k], _columns(U, names), names)
            for k in cols]
    exact = _span_coefficients(Xi, Xj, names) \
        if None in fits and Xi.symbolic and Xj.symbolic else None
    return [ScalarFn(fit, names) if fit is not None
            else exact[k] if exact is not None
            else ScalarFn(_coefficient_fn(Xi, Xj, k, names), names)
            for k, fit in zip(cols, fits)]


def _span_coefficients(Xi, Xj, names):
    """Exact (h^i, h^j) of [X_i, X_j] in span{X_i, X_j} for expression
    fields, by the Gram (normal-equation) solve h = G^-1 (<X_i, B>,
    <X_j, B>).  det G = |X_i|^2 |X_j|^2 - <X_i, X_j>^2 vanishes exactly
    where the fields are dependent.  The span guard both coefficients
    carry takes det G as the sum of the squared 2x2 minors (Lagrange
    identity), which keeps its digits where the fields nearly align; the
    guards of the fields' factors ride along."""
    a, b = Xi.scaled_exprs(), Xj.scaled_exprs()
    B = Xi._bare_bracket(Xj).exprs if Xi.factor is None and Xj.factor is None \
        else lie_bracket(a, b, names)

    def dot(v, w):
        return exprmat.sum_exprs(Bin("*", p, q) for p, q in zip(v, w))

    g11, g12, g22 = dot(a, a), dot(a, b), dot(b, b)
    bi, bj = dot(a, B), dot(b, B)
    det = Bin("-", Bin("*", g11, g22), Bin("*", g12, g12))
    minors = exprmat.sum_exprs(
        Bin("^", Bin("-", Bin("*", a[p], b[q]), Bin("*", a[q], b[p])),
            Const(2)) for p, q in combinations(range(len(a)), 2))
    guards = _union(((simplify(Bin("+", g11, g22)), minors),), Xi.guards,
                    Xj.guards)

    def coefficient(p, q, r, t):
        return ScalarFn(simplify(Bin("/", Bin("-", Bin("*", p, q),
                                              Bin("*", r, t)), det)),
                        names, guards)
    return coefficient(g22, bi, g12, bj), coefficient(g11, bj, g12, bi)


def compatibility_check(h_list, frame_fields, names, box: Box,
                        rng) -> ConditionCheck:
    """Symmetry of the stage-1 sources along the straightened frame:
    Y_j(h_i) = Y_i(h_j) for all i < j.  Exact via is_zero when both
    coefficients and fields are symbolic, sampled finite differences
    otherwise; the symbolic test evaluates the guards of both sides at
    the check's samples, so a dependent sample raises NotInSpan."""
    rng = np.random.default_rng(rng)
    fields = [f if isinstance(f, VectorField) else VectorField(f, names)
              for f in frame_fields]
    hs = [h if isinstance(h, ScalarFn) else ScalarFn(h, names) for h in h_list]
    U = _sample(box, rng, _TRANSPORT_TRIALS, names)
    worst = 0.0
    for i, j in combinations(range(len(fields)), 2):
        sym_ok = (hs[i].expr is not None and hs[j].expr is not None
                  and fields[i].symbolic and fields[j].symbolic)
        if sym_ok:
            lhs = fields[j].directional_fn(hs[i])
            rhs = fields[i].directional_fn(hs[j])
            lhs.check(U)
            rhs.check(U)
            chk = is_zero(simplify(Bin("-", lhs.expr, rhs.expr)), box,
                          trials=_TRANSPORT_TRIALS, rng=rng)
            if chk.verdict is ZeroVerdict.PROVABLY_NONZERO:
                return ConditionCheck(Verdict.FAILS, abs(chk.value), chk.witness,
                                      detail=f"pair ({i}, {j})")
            worst = max(worst, chk.value)
        else:
            vals = fields[j].directional(hs[i], U) - fields[i].directional(hs[j], U)
            m = float(np.max(np.abs(vals)))
            if m > _COMPATIBILITY_TOL:
                at = int(np.argmax(np.abs(vals)))
                return ConditionCheck(Verdict.FAILS, m, _witness(U, at, names),
                                      detail=f"pair ({i}, {j})")
            worst = max(worst, m)
    return ConditionCheck(Verdict.HOLDS, worst)


# ---------------------------------------------------------------------------
# the rescaling pipeline

@dataclass
class FrameRescaling:
    names: tuple
    fields: list                 # input fields as VectorField
    factors: list                # ScalarFn f = exp(ln f) per field
    stage1_residuals: list
    stages_run: list
    box: Box

    def scaled_fields(self):
        return [f.with_factor(fac) for f, fac in zip(self.fields, self.factors)]

    def serializable(self):
        return {
            "names": list(self.names),
            "factors": [_serializable_factor(f, self.names, self.box)
                        for f in self.factors],
            "stages": list(self.stages_run),
        }


def _serializable_factor(fac: ScalarFn, names, box: Box):
    """A factor's expression, or its values on a grid over the box."""
    if fac.expr is not None:
        return {"kind": "expression", "value": str(fac.expr)}
    ranges = {n: (lo, hi) for n, lo, hi in box.ranges}
    axes = {nm: np.linspace(*ranges[nm], _GRID_PER_AXIS).tolist()
            for nm in names}
    mesh = np.meshgrid(*[axes[nm] for nm in names], indexing="ij")
    U = np.stack([m.ravel() for m in mesh], axis=1)
    return {"kind": "sampled_grid", "axes": axes,
            "shape": [_GRID_PER_AXIS] * len(names),
            "values": [float(v) for v in fac.ev(U)],
            "interpolation": "multilinear over the axis product"}


def commutation_residual(fields, box: Box, rng, n_samples=100):
    """Max pairwise commutator magnitude at samples, relative to the field
    scale, via the factored Leibniz expansion."""
    rng = np.random.default_rng(rng)
    names = fields[0].names
    U = _sample(box, rng, n_samples, names)
    pairs = list(combinations(range(len(fields)), 2))
    brackets, values = _bracket_table(fields, pairs, U, _COMMUTATION_STEP)
    size = [float(np.max(np.abs(v))) for v in values]
    worst = 0.0
    for (i, j), B in zip(pairs, brackets):
        scale = 1.0 + max(size[i], size[j])
        worst = max(worst, float(np.max(np.abs(B))) / scale)
    return worst


def rescale_frame(fields, names, box: Box, rng, pair_overrides=None,
                  prefer_symbolic=True) -> FrameRescaling:
    """Factors making the frame commute.

    Construction does not measure the result: ``commutation_residual`` on
    ``scaled_fields()`` is the measurement, and a caller that wants it
    reproducible passes it the generator given here as ``rng``.
    ``pair_overrides`` may supply a precomputed coefficient table
    {(i, j): (h_i, h_j)} (expressions or callables), e.g. from an external
    derivation; it is still subjected to the compatibility check, and an
    inconsistent table raises IncompatibleSystem with a witness.
    Frames of full coordinate rank (r = dimension) are rejected: the
    staged construction needs at least one transversal direction.
    """
    rng = np.random.default_rng(rng)
    names = tuple(names)
    fields = [f if isinstance(f, VectorField) else VectorField(f, names)
              for f in fields]
    r = len(fields)
    d = len(names)
    if r < 2:
        raise ValueError("need at least two fields")
    base = box.midpoint()   # where every factor's transport is anchored
    stages = []

    pair = {}
    for i, j in combinations(range(r), 2):
        if pair_overrides and (i, j) in pair_overrides:
            hi, hj = pair_overrides[(i, j)]
            pair[(i, j)] = PairCoefficients(
                h_first=hi if isinstance(hi, ScalarFn) else ScalarFn(hi, names),
                h_second=hj if isinstance(hj, ScalarFn) else ScalarFn(hj, names))
        elif (i, j) == (0, 1):
            pair[(i, j)] = pair_bracket_coefficients(
                fields[i], fields[j], names, box, rng=rng)
        else:
            # the extension steps take these coefficients along the scaled
            # frame, so only the span is checked here
            _span_check(fields[i], fields[j], names, box, rng)
    stages.append("pair_coefficients")

    U = _sample(box, rng, _PAIR_TRIALS, names)

    def vanishes(B):
        return float(np.max(np.abs(B))) < 1e-7

    # already commuting: identity factors (valid at any rank)
    brackets, _ = _bracket_table(fields, list(combinations(range(r), 2)), U)
    if all(map(vanishes, brackets)) and not pair_overrides:
        stages.append("identity")
        return FrameRescaling(names=names, fields=fields,
                              factors=[_factor([], names) for _ in fields],
                              stage1_residuals=[], stages_run=stages, box=box)

    if r >= d:
        raise FrobeniusError(
            f"rescaling {r} non-commuting fields on a {d}-dimensional block "
            "is not supported; the staged construction needs a transversal "
            "direction (r < dimension)")

    logs = [[] for _ in range(r)]   # the terms of ln f per field
    stage1_residuals = []

    def scaled(i):
        return fields[i].with_factor(_factor(logs[i], names))

    # base pair: X2(ln f1) = h^1_{12}, X1(ln f2) = -h^2_{12}
    pc = pair[(0, 1)]
    g1, res1 = solve_transport_system(
        [fields[1]], [pc.h_first], names, box, base, rng,
        prefer_symbolic=prefer_symbolic)
    logs[0] = g1
    g2, res2 = solve_transport_system(
        [fields[0]], [-pc.h_second],
        names, box, base, rng, prefer_symbolic=prefer_symbolic)
    logs[1] = g2
    stage1_residuals.extend([res1, res2])
    stages.append("base_pair")

    # extension steps
    for nxt in range(2, r):
        commuting = [scaled(i) for i in range(nxt)]
        X_next = fields[nxt]
        hs = []
        for i in range(nxt):
            pci = pair_bracket_coefficients(commuting[i], X_next, names, box,
                                            rng=rng) \
                if not (pair_overrides and (i, nxt) in pair_overrides) \
                else pair[(i, nxt)]
            hs.append(pci.h_second)  # coefficient on X_next
        chk = compatibility_check(hs, commuting, names, box, rng=rng)
        stages.append("compatibility")
        if chk.verdict is Verdict.FAILS:
            raise IncompatibleSystem(
                f"stage-1 sources are asymmetric ({chk.detail}, "
                f"magnitude {chk.magnitude:.2e})", chk.witness)
        sources = [-h for h in hs]
        g_next, res = solve_transport_system(commuting, sources, names, box,
                                             base, rng,
                                             prefer_symbolic=prefer_symbolic)
        logs[nxt] = g_next
        stage1_residuals.append(res)
        stages.append("stage1")

        # stage 2: re-rescale the earlier fields along Z = f_next X_next
        Z = scaled(nxt)
        brackets, values = _bracket_table(
            commuting + [Z], [(i, nxt) for i in range(nxt)], U)
        for i, B in enumerate(brackets):
            if vanishes(B):
                continue
            # rho with [Y_i, Z] = rho Y_i, an expression for exact
            # transports downstream unless a factor is numeric and no fit
            # recognizes it
            (rho,) = _span_fns(
                commuting[i], Z,
                solve_two_columns(values[i], values[nxt], B, U, names), U,
                names, (0,))
            gi, res_i = solve_transport_system(
                [Z], [rho], names, box, base, rng,
                prefer_symbolic=prefer_symbolic)
            logs[i].extend(gi)
            stage1_residuals.append(res_i)
        stages.append("stage2")

    return FrameRescaling(names=names, fields=fields,
                          factors=[_factor(lg, names) for lg in logs],
                          stage1_residuals=stage1_residuals, stages_run=stages,
                          box=box)


def _factor(log_terms, names):
    """f = exp(ln f) from the terms of ln f: positive, hence nonvanishing."""
    return ScalarFn.sum(log_terms, names).exp()

