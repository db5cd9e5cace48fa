"""Wave covectors, characteristic vectors, Lie brackets, and the
existence conditions for multi-wave solutions.

A wave pair (lambda, gamma) satisfies (sum_i lambda_i A^i) gamma = 0.
For a k-element family the four checkable conditions are:

  (a) the gamma frame is involutive under the u-space Lie bracket,
  (b) cross structure coefficients with three distinct indices vanish,
  (c) the gamma-directional derivative of each lambda stays in the span
      of the two covectors involved (a vanishing triple wedge),
  (d) each lambda is closed up to scale in x: d_x lambda ^ lambda = 0.

Closedness enables potentials phi with lambda_i = d phi / d x^i, found
symbolically for recognized forms and by quadrature otherwise; either
way phi is an expression.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import exprmat
from .expr import (
    Bin,
    Box,
    Call,
    Const,
    Expr,
    ONE,
    Var,
    VarSpace,
    ZeroVerdict,
    antiderivative,
    is_zero,
    simplify,
)
from .system import QuasilinearSystem


class GeometryError(Exception):
    pass


class EmptyKernel(GeometryError):
    """The covector is not characteristic: the wave matrix is generically
    invertible on the domain."""


class DegenerateFrame(GeometryError):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class DependentElements(GeometryError):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class NotClosed(GeometryError):
    pass


class PathDependent(GeometryError):
    pass


@dataclass(frozen=True)
class WaveElement:
    """A covector/vector pair satisfying the wave relation."""

    space: VarSpace
    lam: tuple           # p Exprs
    gamma: tuple         # q Exprs
    label: str = ""

    def rescaled(self, factor: Expr):
        lam = tuple(simplify(Bin("*", factor, e)) for e in self.lam)
        gam = tuple(simplify(Bin("*", factor, e)) for e in self.gamma)
        return WaveElement(self.space, lam, gam, self.label)


# ---------------------------------------------------------------------------
# kernels

def kernel_elements(sys: QuasilinearSystem, lam, box: Box, rng, trials=32):
    """Vectors spanning ker(sum_i lambda_i A^i).

    Symbolic adjugate route for q <= 3 (corank one).  Raises EmptyKernel
    when the determinant is provably nonzero on the box, and GeometryError
    when the adjugate route finds no kernel vector (q > 3, or a vanishing
    adjugate): such a kernel is available only numerically.
    """
    if not sys.properly_determined:
        raise GeometryError("kernel computation expects a properly determined system")
    rng = np.random.default_rng(rng)
    W = sys.wave_matrix(lam)
    d = exprmat.det(W)
    verdict = is_zero(d, box, trials=trials, rng=rng)
    if verdict.verdict is ZeroVerdict.PROVABLY_NONZERO:
        raise EmptyKernel(
            f"wave matrix determinant is nonzero (witness {verdict.witness})")
    if sys.q == 1:
        return [(ONE,)]
    if sys.q <= 3:
        adj = exprmat.adjugate(W)
        candidates = []
        for j in range(sys.q):
            col = tuple(adj[i][j] for i in range(sys.q))
            mags = [is_zero(e, box, trials=trials, rng=rng) for e in col]
            if all(m.verdict is ZeroVerdict.PROBABLY_ZERO for m in mags):
                continue
            candidates.append(_normalize_kernel_column(col, box, rng, trials))
        uniq = _dedupe_proportional(candidates, box, rng)
        if uniq:
            verified = []
            for gamma in uniq:
                res = exprmat.mat_vec(W, gamma)
                if all(is_zero(e, box, trials=trials, rng=rng) for e in res):
                    verified.append(gamma)
            if verified:
                return verified
    raise GeometryError("kernel is only available as a numeric sampler; "
                        "supply a symbolic ansatz for the solve stages")


def _normalize_kernel_column(col, box, rng, trials):
    pivot = None
    for e in reversed(col):
        chk = is_zero(e, box, trials=trials, rng=rng)
        if chk.verdict is ZeroVerdict.PROVABLY_NONZERO:
            pivot = e
            break
    if pivot is None:
        return tuple(simplify(e) for e in col)
    return tuple(simplify(Bin("/", e, pivot)) for e in col)


def _proportional(v, w):
    """Whether the sampled vectors v and w (n, m) are proportional: every
    finite cross[:, a, b] = v_a w_b - v_b w_a vanishes."""
    cross = v[:, :, None] * w[:, None, :] - v[:, None, :] * w[:, :, None]
    return not np.any(np.abs(cross[np.isfinite(cross)]) > 1e-7)


_DEDUPE_SAMPLES = 8  # samples of the proportionality test between candidates


def _dedupe_proportional(cands, box, rng):
    if not cands:
        return []
    env = box.sample(rng, _DEDUPE_SAMPLES)
    kept = []
    vals = []
    for c in cands:
        v = exprmat.eval_vector(c, env, strict=False)
        if not any(_proportional(v, w) for w in vals):
            kept.append(c)
            vals.append(v)
    return kept


# ---------------------------------------------------------------------------
# brackets and decompositions

def lie_bracket(a, b, dep_names):
    """[a, b]^beta = a^alpha d b^beta/du^alpha - b^alpha d a^beta/du^alpha
    with the independent variables frozen as parameters."""
    if len(a) != len(b):
        raise ValueError("bracket arguments must have equal length")
    return tuple(exprmat.sum_exprs(
        Bin("-", Bin("*", a[alpha], b[beta].diff(name)),
            Bin("*", b[alpha], a[beta].diff(name)))
        for alpha, name in enumerate(dep_names)) for beta in range(len(a)))


def directional_derivative(vec, direction, dep_names):
    """Componentwise derivative of ``vec`` along ``direction`` in u."""
    return tuple(exprmat.sum_exprs(Bin("*", direction[alpha], comp.diff(name))
                                   for alpha, name in enumerate(dep_names))
                 for comp in vec)


@dataclass
class BracketDecomposition:
    coefficient_samples: np.ndarray   # (n, k) least-squares values
    residual_max: float
    involutive: bool


_FIT_TOL = 1e-7


def fit_symbolic(samples, env, names):
    """Best-effort symbolic form for sampled coefficient values: a constant,
    or a univariate combination c0 + c1 b(v) from a small basis."""
    vals = np.asarray(samples, dtype=float)
    scale = 1.0 + np.max(np.abs(vals))
    if np.max(np.abs(vals - vals[0])) < _FIT_TOL * scale:
        mean = float(np.mean(vals))
        nice = _snap(mean)
        return Const(nice) if nice is not None else Const(mean)
    for name in names:
        x = np.asarray(env[name], dtype=float)
        if np.max(x) - np.min(x) < 1e-9:
            continue
        basis = [
            (np.ones_like(x), ONE),
            (x, Var(name)),
            (x * x, Bin("^", Var(name), Const(2))),
            (1.0 / x, Bin("/", ONE, Var(name))) if np.all(np.abs(x) > 1e-9) else None,
            (np.exp(x), Call("exp", Var(name))) if np.max(np.abs(x)) < 30 else None,
            (np.exp(-x), Call("exp", Call("neg", Var(name)))) if np.max(np.abs(x)) < 30 else None,
        ]
        basis = [bt for bt in basis if bt is not None]
        Bm = np.stack([bt[0] for bt in basis], axis=1)
        coef, res, *_ = np.linalg.lstsq(Bm, vals, rcond=None)
        fit = Bm @ coef
        if np.max(np.abs(fit - vals)) < _FIT_TOL * scale:
            snapped = [(_snap(float(c)), float(c), bexpr)
                       for c, (_, bexpr) in zip(coef, basis) if abs(c) >= 1e-10]
            return exprmat.sum_exprs(
                Bin("*", Const(cs if cs is not None else c), bexpr)
                for cs, c, bexpr in snapped)
    return None


def _snap(v):
    from fractions import Fraction
    fr = Fraction(v).limit_denominator(16)
    if abs(float(fr) - v) < 1e-9:
        return fr
    return None


_FRAME_SAMPLES = 40
_INVOLUTIVE_TOL = 1e-8   # pointwise residual of an involutive decomposition
_CONDITION_TOL = 1e-7    # magnitude a holding existence condition may have


def decompose_in_frame(v, frame, box: Box, rng):
    """Least-squares coefficients of ``v`` in ``frame`` at sampled points.

    One stacked SVD solves every finite sample (``exprmat.lstsq_stack``);
    samples where the frame or ``v`` is not finite are skipped.  The
    involutivity verdict reports whether the pointwise residual stays
    below tolerance; DegenerateFrame carries a witness point where the
    frame loses pointwise linear independence.
    """
    rng = np.random.default_rng(rng)
    env = box.sample(rng, _FRAME_SAMPLES)
    A = np.stack([exprmat.eval_vector(g, env, strict=False) for g in frame],
                 axis=2)                                  # (n, q, k)
    b = exprmat.eval_vector(v, env, strict=False)         # (n, q)
    rows = np.flatnonzero(np.isfinite(A).all(axis=(1, 2))
                          & np.isfinite(b).all(axis=1))
    A, b = A[rows], b[rows]
    coeffs, bad = exprmat.lstsq_stack(A, b, 1e-8)
    if bad is not None:
        witness = {n: float(val[rows[bad]]) for n, val in env.items()}
        raise DegenerateFrame("frame is pointwise dependent", witness)
    resmax = float(np.max(np.abs(np.einsum("nij,nj->ni", A, coeffs) - b),
                          initial=0.0))
    return BracketDecomposition(
        coefficient_samples=coeffs, residual_max=resmax,
        involutive=resmax <= _INVOLUTIVE_TOL)


# ---------------------------------------------------------------------------
# condition report

class Verdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass
class ConditionCheck:
    verdict: Verdict
    magnitude: float = 0.0
    witness: dict | None = None
    detail: str = ""

    @property
    def holds(self):
        return self.verdict is Verdict.HOLDS


@dataclass
class ConditionReport:
    involutivity: ConditionCheck
    cross_coefficients: ConditionCheck
    lambda_profile: ConditionCheck
    closedness: ConditionCheck
    trials: int
    threshold: float

    def all_hold(self):
        return all(c.holds for c in (self.involutivity, self.cross_coefficients,
                                     self.lambda_profile, self.closedness))

    def as_dict(self):
        def enc(c: ConditionCheck):
            return {"verdict": c.verdict.value, "magnitude": c.magnitude,
                    "witness": c.witness, "detail": c.detail}
        return {
            "involutivity": enc(self.involutivity),
            "cross_coefficients": enc(self.cross_coefficients),
            "lambda_profile": enc(self.lambda_profile),
            "closedness": enc(self.closedness),
            "trials": self.trials,
            "seed": None,     # the caller writes its own seed label
            "threshold": self.threshold,
        }


def _x_closedness_two_form(lam, ind_names):
    """Components ((i, j), B_ij) of d_x lambda over pairs i < j in order,
    u frozen; each is built when reached, so a caller may stop early."""
    for i, j in combinations(range(len(ind_names)), 2):
        yield (i, j), simplify(Bin("-", lam[j].diff(ind_names[i]),
                                   lam[i].diff(ind_names[j])))


def closedness_three_form(lam, ind_names):
    """Coefficients of d_x lambda ^ lambda over triples i < j < l."""
    B = dict(_x_closedness_two_form(lam, ind_names))
    out = {}
    for i, j, l in combinations(range(len(ind_names)), 3):
        # (B ^ lam)_{ijl} = B_ij lam_l - B_il lam_j + B_jl lam_i
        out[(i, j, l)] = simplify(
            Bin("+", Bin("-", Bin("*", B[(i, j)], lam[l]),
                         Bin("*", B[(i, l)], lam[j])),
                Bin("*", B[(j, l)], lam[i])))
    return out


def _sample_rows(vectors, env):
    """The vectors evaluated over the lanes of ``env`` as stacked rows
    (n, len(vectors), m), and the indices of the finite samples."""
    M = np.stack([exprmat.eval_vector(v, env, strict=False) for v in vectors],
                 axis=1)
    return M, np.flatnonzero(np.isfinite(M).all(axis=(1, 2)))


def independence_min_singular(vectors, env_samples):
    """Smallest singular value of the stacked vector matrix over the finite
    samples, and the first sample attaining it (inf and 0 when none is
    finite)."""
    M, rows = _sample_rows(vectors, env_samples)
    if not rows.size:
        return np.inf, 0
    s_min = np.linalg.svd(M[rows], compute_uv=False)[:, -1]
    i = int(np.argmin(s_min))
    return float(s_min[i]), int(rows[i])


def check_kwave_conditions(sys: QuasilinearSystem, elements, box: Box,
                           rng, trials=32) -> ConditionReport:
    """Run the four existence checks on a family of wave elements; a
    sampled magnitude above ``_CONDITION_TOL`` fails a check."""
    rng = np.random.default_rng(rng)
    k = len(elements)
    dep = sys.space.dependent
    ind = sys.space.independent
    env = box.sample(rng, trials)

    # precondition: pairwise independence of the lambda and gamma families
    if k >= 2:
        for vectors, kind in ((tuple(e.lam for e in elements), "lambda"),
                              (tuple(e.gamma for e in elements), "gamma")):
            s_min, idx = independence_min_singular(vectors, env)
            if s_min <= 1e-8:
                witness = {n: float(v[idx]) for n, v in env.items()}
                raise DependentElements(
                    f"{kind} family loses independence (sigma_min {s_min:.2e})",
                    witness)

    frame = [e.gamma for e in elements]

    # (a) involutivity and (b) cross coefficients
    inv = ConditionCheck(Verdict.HOLDS, detail="single element" if k == 1 else "")
    cross = ConditionCheck(Verdict.HOLDS,
                           detail="vacuous for k < 3" if k < 3 else "")
    if k >= 2:
        worst = 0.0
        cross_worst = 0.0
        cross_witness = None
        try:
            for s1, s2 in combinations(range(k), 2):
                br = lie_bracket(frame[s1], frame[s2], dep)
                dec = decompose_in_frame(br, frame, box, rng=rng)
                worst = max(worst, dec.residual_max)
                if not dec.involutive:
                    inv = ConditionCheck(Verdict.FAILS, dec.residual_max,
                                         detail=f"bracket ({s1},{s2}) leaves the frame")
                for s3 in range(k):
                    if s3 in (s1, s2):
                        continue
                    mags = np.abs(dec.coefficient_samples[:, s3])
                    if mags.size and float(np.max(mags)) > _CONDITION_TOL:
                        cross_worst = max(cross_worst, float(np.max(mags)))
                        cross_witness = (s1, s2, s3)
            if inv.verdict is Verdict.HOLDS:
                inv = ConditionCheck(Verdict.HOLDS, worst)
            if cross_witness is not None:
                cross = ConditionCheck(Verdict.FAILS, cross_worst,
                                       detail=f"coefficient {cross_witness}")
            elif k >= 3:
                cross = ConditionCheck(Verdict.HOLDS, cross_worst)
        except DegenerateFrame as err:
            inv = ConditionCheck(Verdict.INCONCLUSIVE, witness=err.witness,
                                 detail=str(err))

    # (c) lambda profile: lam_sigma ^ (lam_s),gamma_sigma ^ lam_s == 0
    prof = ConditionCheck(Verdict.HOLDS, detail="vacuous for k == 1" if k == 1 else "")
    if k >= 2 and len(ind) >= 3:
        worst = 0.0
        for sig, s in permutations(range(k), 2):
            deriv = directional_derivative(elements[s].lam, elements[sig].gamma, dep)
            mag, witness = _triple_wedge_max(
                [elements[sig].lam, deriv, elements[s].lam], env)
            worst = max(worst, mag)
            if mag > _CONDITION_TOL:
                prof = ConditionCheck(Verdict.FAILS, mag, witness,
                                      detail=f"pair (sigma={sig}, s={s})")
                break
        if prof.verdict is Verdict.HOLDS:
            prof = ConditionCheck(Verdict.HOLDS, worst)

    # (d) closedness d_x lambda ^ lambda == 0 per element
    closed = ConditionCheck(Verdict.HOLDS)
    worst = 0.0
    for e in elements:
        if len(ind) < 3:
            continue
        comps = closedness_three_form(e.lam, ind)
        for triple, comp in comps.items():
            chk = is_zero(comp, box, trials=trials, threshold=_CONDITION_TOL,
                          rng=rng)
            if chk.verdict is ZeroVerdict.PROVABLY_NONZERO:
                closed = ConditionCheck(Verdict.FAILS, abs(chk.value), chk.witness,
                                        detail=f"element {e.label} triple {triple}")
                break
            worst = max(worst, chk.value)
        if closed.verdict is Verdict.FAILS:
            break
    if closed.verdict is Verdict.HOLDS:
        closed = ConditionCheck(Verdict.HOLDS, worst)

    return ConditionReport(involutivity=inv, cross_coefficients=cross,
                           lambda_profile=prof, closedness=closed,
                           trials=trials, threshold=_CONDITION_TOL)


def _triple_wedge_max(rows, env):
    """Max over samples of the largest 3x3 minor determinant of the stacked
    row-normalized covectors, and the first sample attaining it (None when
    the max is 0)."""
    M, finite = _sample_rows(rows, env)
    norms = np.linalg.norm(M[finite], axis=2)
    # zero rows make the wedge trivially zero
    keep = np.all(norms >= 1e-14, axis=1)
    samples, Mn = finite[keep], M[finite[keep]] / norms[keep][:, :, None]
    dets = [np.abs(np.linalg.det(Mn[:, :, list(cols)]))
            for cols in combinations(range(M.shape[2]), 3)]
    if not dets or not samples.size:
        return 0.0, None
    best = np.max(dets, axis=0)
    i = int(np.argmax(best))
    if best[i] <= 0.0:
        return 0.0, None
    return float(best[i]), {name: float(v[samples[i]]) for name, v in env.items()}


# ---------------------------------------------------------------------------
# potentials

_QUAD_NODES = 48   # Gauss-Legendre nodes per segment of a quadrature potential
_PATH_TOL = 1e-8   # segment-order mismatch a quadrature potential may have


def quadrature_potential(lam, space: VarSpace, basepoint, order):
    """Line-integral potential of an x-closed covector as an expression.

    The path runs from the base point along one axis segment per
    independent variable, in ``order``.  Segment i contributes
    (x_i - lo_i) * sum_k w_k lam_i[x_i -> lo_i + (x_i - lo_i) t_k], with
    the variables later in ``order`` at the base point and the earlier
    ones, u and the parameters left free; the node terms are added left
    to right.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    base = {n: Const(float(basepoint[n])) for n in space.independent}
    at = dict(base)
    phi = None
    for name in order:
        lo = base[name]
        span = Bin("-", Var(name), lo)
        lam_i = lam[space.independent.index(name)]
        total = None
        for t, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
            at[name] = Bin("+", lo, Bin("*", span, Const(float(t))))
            term = Bin("*", lam_i.substitute(at), Const(float(w)))
            total = term if total is None else Bin("+", total, term)
        term = Bin("*", span, total)
        phi = term if phi is None else Bin("+", phi, term)
        del at[name]        # free from here on: the point's value
    return phi


@dataclass
class PotentialResult:
    phi: Expr
    element: WaveElement      # possibly rescaled so lam = d_x phi
    factor: Expr              # integrating factor applied (1 when none)


_FACTOR_CANDIDATE_POWERS = (1, -1, 2, -2)


def _integrating_factor_candidates(space):
    cands = []
    for name in space.independent + space.dependent:
        v = Var(name)
        for p in _FACTOR_CANDIDATE_POWERS:
            cands.append(Bin("^", v, Const(p)))
        cands.append(Call("exp", v))
        cands.append(Call("exp", Call("neg", v)))
    return cands


def find_potential(element: WaveElement, basepoint, box: Box, rng,
                   trials=32) -> PotentialResult:
    """Potential phi with d_x phi = lambda.

    Exact covectors integrate symbolically through the antiderivative
    table when every component involves a single independent variable;
    covectors closed only up to scale are first rescaled by a searched
    integrating factor (the matching gamma is rescaled by the same
    function); everything else falls back to a Gauss-Legendre line
    integral written as an expression (``quadrature_potential``), whose
    two segment orders must agree at the box's upper corner.
    """
    rng = np.random.default_rng(rng)
    space = element.space
    ind = space.independent

    def exact(lam):
        return all(is_zero(comp, box, trials=trials, rng=rng).verdict
                   is not ZeroVerdict.PROVABLY_NONZERO
                   for _, comp in _x_closedness_two_form(lam, ind))

    factor = ONE
    work = element
    if not exact(element.lam):
        if len(ind) >= 3:
            for triple, comp in closedness_three_form(element.lam, ind).items():
                chk = is_zero(comp, box, trials=trials, rng=rng)
                if chk.verdict is ZeroVerdict.PROVABLY_NONZERO:
                    raise NotClosed(
                        f"d_x lambda ^ lambda nonzero at {chk.witness} "
                        f"(triple {triple}, magnitude {abs(chk.value):.2e})")
        found = None
        for cand in _integrating_factor_candidates(space):
            lam_try = tuple(simplify(Bin("*", cand, e)) for e in element.lam)
            if exact(lam_try):
                found = cand
                break
        if found is None:
            raise NotClosed("no integrating factor found in the candidate family")
        factor = found
        work = element.rescaled(found)

    phi = _symbolic_potential(work.lam, space, box, rng, trials)
    if phi is not None:
        return PotentialResult(phi=phi, element=work, factor=factor)

    phi = quadrature_potential(work.lam, space, basepoint, ind)
    # both segment orders at the box's upper corner, away from the base
    # point, where the two paths are not both empty
    probe = {name: hi for name, _, hi in box.ranges}
    gap = abs(phi.evaluate(probe) - quadrature_potential(
        work.lam, space, basepoint, ind[::-1]).evaluate(probe))
    if gap > _PATH_TOL:
        raise PathDependent(f"segment-order mismatch {gap:.2e} at {probe}")
    return PotentialResult(phi=phi, element=work, factor=factor)


def _symbolic_potential(lam, space, box, rng, trials):
    ind = space.independent
    parts = []
    for i, comp in enumerate(lam):
        others = set(ind) - {ind[i]}
        if comp.variables() & others:
            return None
        F = antiderivative(comp, ind[i])
        if F is None:
            return None
        parts.append(F)
    phi = parts[0]
    for Fp in parts[1:]:
        phi = Bin("+", phi, Fp)
    phi = simplify(phi)
    for i, comp in enumerate(lam):
        delta = simplify(Bin("-", phi.diff(ind[i]), comp))
        if not is_zero(delta, box, trials=trials, rng=rng):
            return None
    return phi
