"""Construction of wave solutions: characteristic trajectories, hodograph
surfaces, and the Newton solve of the implicit Riemann-invariant system

    u = f(tau),    tau^a = phi^a(x, f(tau)),

with det(I - (dphi/du)(df/dtau)) monitored as the gradient-catastrophe
indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from . import ode
from .expr import Bin, Const, Expr, VarSpace, compile_exprs, simplify
from .exprmat import distinct_rows, rows_dot
from .geometry import NumericPotential
from .spline import Spline1D, Spline2D

_SWAP_TOL = 1e-7         # flow-order swap mismatch a built sheet may have
_SWAP_PROBES = 5         # probe parameters of the swap-order check
_TANGENCY_TOL = 1e-8     # relative tangent defect a characteristic may have
_TANGENCY_POINTS = 17    # where a characteristic's tangent is checked
_CURVE_POINTS = 241      # samples of a characteristic's spline
_TANGENCY_SAMPLES = 25   # samples of surface_tangency_residual
_SCAN_POINTS = 257       # points of the scalar solve's scan window
_SCAN_BLOCK = 8192       # lane-columns of G per block of the scan
_DU_STEP = 1e-6          # central-difference step of a numeric potential's du
_CATASTROPHE = 1e-8      # |det| below which a converged point is a catastrophe


class SolverError(Exception):
    pass


class NonIntegrable(SolverError):
    def __init__(self, mismatch, point):
        super().__init__(
            f"flow-order swap mismatch {mismatch:.3e} at tau={point}; "
            "the weighted frame does not commute")
        self.mismatch = mismatch
        self.point = point


class SolveFailed(SolverError):
    """No grid point has a solution: Newton diverged at every one, or (k =
    1) none has a sign change in the scan window."""


@dataclass
class ImplicitSolveConfig:
    """Newton settings for the implicit Riemann-invariant solve."""

    newton_tol: float = 1e-12
    max_iter: int = 60
    initial_guess: object = "potential_at_base"  # policy or array
    tau_window: tuple | None = None   # scan window for the scalar solve
    root_select: str = "nearest"      # nearest | lowest | highest
    damping_steps: int = 25

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.root_select not in ("nearest", "lowest", "highest"):
            raise ValueError(f"root_select must be nearest, lowest or "
                             f"highest, got {self.root_select!r}")


@dataclass(frozen=True)
class SurfaceProvenance:
    u0: tuple
    tau_base: tuple


class Surface1D:
    """Hodograph curve u = f(s) sampled on a grid with not-a-knot cubic
    spline interpolation (exact on the low-degree closed forms the fixtures
    produce); beyond the grid the end cubics extrapolate."""

    k = 1

    def __init__(self, s_grid, u_samples, space, tau_names, provenance):
        self.s_grid = np.asarray(s_grid, dtype=float)
        self.u_samples = np.asarray(u_samples, dtype=float)
        self.space = space
        self.tau_names = tuple(tau_names)
        self.provenance = provenance
        self._spline = Spline1D(self.s_grid, self.u_samples)

    @property
    def tau_ranges(self):
        return ((float(self.s_grid[0]), float(self.s_grid[-1])),)

    def value(self, tau):
        return self._spline(np.asarray(tau, float).reshape(-1))

    def cell(self, tau):
        return self._spline.cell(np.asarray(tau, float).reshape(-1))

    def at(self, cells, tau):
        """``value`` with tau taken on the spline cells ``cells``."""
        return self._spline.at(cells, np.asarray(tau, float).reshape(-1))

    def jac(self, tau):
        _, d = self._spline(np.asarray(tau, float).reshape(-1), grad=True)
        return d[:, :, None]


class Surface2D:
    """Hodograph sheet u = f(tau^1, tau^2) built by commuting flows over a
    (possibly rotated) parameter rectangle: tau = axes @ s with s on a grid.

    A rotated rectangle lets the grid hug the strip where the surface is
    regular, e.g. away from the sqrt branch line of the two-wave fixture.
    f is the tensor-product not-a-knot cubic spline of the grid samples,
    clamped to the rectangle; one ``value_and_jac`` lookup gives f, df/dtau.
    """

    k = 2

    def __init__(self, axes, s1_grid, s2_grid, u_grid, space, tau_names,
                 provenance):
        self.axes = np.asarray(axes, dtype=float)
        self.axes_inv = np.linalg.inv(self.axes)
        self.s1_grid = np.asarray(s1_grid, dtype=float)
        self.s2_grid = np.asarray(s2_grid, dtype=float)
        self.u_grid = np.asarray(u_grid, dtype=float)  # (n1, n2, q)
        self.space = space
        self.tau_names = tuple(tau_names)
        self.provenance = provenance
        self._spline = Spline2D(self.s1_grid, self.s2_grid, self.u_grid)

    @property
    def q(self):
        return self.u_grid.shape[2]

    @property
    def tau_ranges(self):
        return ((float(self.s1_grid[0]), float(self.s1_grid[-1])),
                (float(self.s2_grid[0]), float(self.s2_grid[-1])))

    # a lane's coordinates must not depend on which other lanes are asked
    # for, and BLAS rounds a one-row product otherwise (see rows_dot)
    def to_internal(self, tau):
        return rows_dot(np.asarray(tau, dtype=float), self.axes_inv.T)

    def from_internal(self, s):
        return rows_dot(np.asarray(s, dtype=float), self.axes.T)

    def clip(self, tau):
        s = self.to_internal(tau)
        (l1, h1), (l2, h2) = self.tau_ranges
        s[:, 0] = np.clip(s[:, 0], l1, h1)
        s[:, 1] = np.clip(s[:, 1], l2, h2)
        return self.from_internal(s)

    def value(self, tau):
        s = self.to_internal(tau)
        return self._spline(s[:, 0], s[:, 1])

    def value_and_jac(self, tau):
        """f (n, q) and df/dtau (n, q, 2) at tau, from one spline call."""
        s = self.to_internal(tau)
        value, d1, d2 = self._spline(s[:, 0], s[:, 1], grad=True)
        # chain rule to tau over all n*q rows at once: the bits of n stacked
        # (q, 2) @ (2, 2) products, at a fraction of their cost
        dfs = np.stack([d1.ravel(), d2.ravel()], axis=1)  # wrt internal s
        return value, rows_dot(dfs, self.axes_inv).reshape(d1.shape + (2,))

    def jac(self, tau):
        return self.value_and_jac(tau)[1]


# ---------------------------------------------------------------------------
# surface construction

def _gamma_field(gammas, mu, axes, space, tau_names):
    """du/ds_j along internal axis j: sum_a axes[a][j] V_a(tau, u) with
    V_a = sum_a' mu[a'][a](tau) gamma_a'(u).

    ``field(axis, fixed)`` is the right-hand side that flows internal
    coordinate ``axis`` over lanes u (n, q) while the others stay at
    ``fixed``: k coordinates, each a scalar shared by every lane or an
    array with one value per lane, the flowing one ignored (None will do).
    ``axis`` may also be an array with one axis per lane.  When rhs gets
    more lanes than ``fixed`` has, the fixed rows repeat, so the 2n lanes
    of a two-sided march share n rows.
    """
    dep = space.dependent
    k = len(gammas)
    axes = np.asarray(axes, dtype=float)

    def weighted(j):
        # sums accumulated from 0.0 as a loop over zeros does, 0.0 + mu*gamma
        # then 0.0 + c*acc, never simplified: 0.0 + (-0.0) is 0.0, not -0.0
        cols = []
        for g in zip(*gammas):
            out = Const(0.0)
            for a in range(k):
                if axes[a][j] != 0.0:
                    acc = Const(0.0)
                    for ap in range(k):
                        acc = Bin("+", acc, Bin("*", mu[ap][a], g[ap]))
                    out = Bin("+", out, Bin("*", Const(float(axes[a][j])),
                                            acc))
            cols.append(out)
        return cols

    # one kernel per axis, so that each returns a contiguous (n, q) array
    # for the stages of ode.flow, and one over every axis for per-lane axes
    sums = [weighted(j) for j in range(k)]
    kernels = [compile_exprs(cols) for cols in sums]
    every = compile_exprs([e for cols in sums for e in cols])

    def field(axis, fixed):
        fixed = np.column_stack(np.broadcast_arrays(
            *(0.0 if c is None else c for c in fixed)))
        per_lane = np.ndim(axis) > 0
        lanes = np.arange(len(axis)) if per_lane else slice(None)

        def rhs(s, u):
            s_mat = np.empty((len(u), k))
            s_mat.reshape(-1, len(fixed), k)[:] = fixed
            s_mat[lanes, axis] = s
            # a lane's bits must not depend on how many lanes share the call
            tau = rows_dot(s_mat, axes.T)
            env = {name: tau[:, a] for a, name in enumerate(tau_names)}
            for b, name in enumerate(dep):
                env[name] = u[:, b]
            if per_lane:
                return every(env).reshape(len(u), k, -1)[lanes, axis]
            return kernels[axis](env)
        return rhs
    return field


def integrate_characteristic(gamma, u0, s_range, step, space, s0=None):
    """Characteristic trajectory du/ds = gamma(u, s) anchored at
    u(s0) = u0 (s0 defaults to the left end of s_range), sampled at
    ``_CURVE_POINTS`` points and wrapped as a 1-parameter hodograph
    surface."""
    lo, hi = float(s_range[0]), float(s_range[1])
    if s0 is None:
        s0 = lo
    s0 = float(s0)
    if not lo <= s0 <= hi:
        raise ValueError("anchor s0 must lie inside s_range")
    dep = space.dependent
    kernel = compile_exprs(tuple(gamma))

    def rhs(s, u):
        env = {name: u[:, b] for b, name in enumerate(dep)}
        env["s"] = s
        return kernel(env)

    s_grid = np.linspace(lo, hi, _CURVE_POINTS)
    states = ode.flow(rhs, np.asarray(u0, dtype=float)[None], s0, s_grid,
                      tol=1e-12, first_step=step)[:, 0]
    surf = Surface1D(s_grid, states, space, ("s",),
                     SurfaceProvenance(tuple(np.asarray(u0, float)), (s0,)))
    _check_tangency_1d(surf, rhs)
    return surf


def _check_tangency_1d(surf, rhs):
    s = np.linspace(surf.s_grid[0], surf.s_grid[-1], _TANGENCY_POINTS)
    u = surf.value(s)
    want = rhs(s, u)
    got = surf.jac(s)[:, :, 0]
    scale = 1.0 + np.max(np.abs(want))
    worst = np.max(np.abs(got - want)) / scale
    if worst > _TANGENCY_TOL:
        raise SolverError(f"trajectory tangent deviates from the field by {worst:.2e}")


def build_hodograph(gammas, mu, u0, tau_base, axis_ranges, step, space,
                    tau_names=("tau1", "tau2"), axes=None, n_grid=161):
    """Hodograph surface of a commuting weighted frame.

    Solves df/dtau^a = sum_a' mu^a'_a(tau) gamma_(a') by successive flows
    from the anchor (tau_base, u0) over a parameter rectangle in internal
    coordinates (tau = axes @ s; axes defaults to identity).  The flow
    order is swapped at probe points, integrated together as lanes, and a
    mismatch beyond ``_SWAP_TOL`` raises NonIntegrable.  Only k = 2 is
    built here; a k = 1 surface is the characteristic of
    ``integrate_characteristic``.
    """
    k = len(gammas)
    if k != 2:
        raise SolverError("build_hodograph builds k = 2 sheets; integrate a "
                          "k = 1 characteristic instead")
    if axes is None:
        axes = np.eye(k)
    axes = np.asarray(axes, dtype=float)
    prov = SurfaceProvenance(tuple(np.asarray(u0, float)), tuple(tau_base))
    field = _gamma_field(gammas, mu, axes, space, tau_names)
    s_base = np.linalg.solve(axes, np.asarray(tau_base, dtype=float))
    (l1, h1), (l2, h2) = axis_ranges
    s1_grid = np.linspace(l1, h1, n_grid)
    s2_grid = np.linspace(l2, h2, n_grid)

    # sweep axis 1 from the anchor, then all s1 lanes together along axis
    # 2, each sweep one march down and up from the anchor
    line = ode.flow(field(0, [None, s_base[1]]), np.asarray(u0, float)[None],
                    s_base[0], s1_grid, tol=1e-12, first_step=step)[:, 0]
    states = ode.flow(field(1, [s1_grid, None]), line, s_base[1], s2_grid,
                      tol=1e-12, first_step=step)
    u_grid = np.transpose(states, (1, 0, 2))  # (n1, n2, q)

    surf = Surface2D(axes, s1_grid, s2_grid, u_grid, space, tau_names, prov)
    _swap_order_check(surf, field, s_base, np.asarray(u0, float), step,
                      _SWAP_TOL)
    return surf


def _flow_both_orders(field, s_base, u0, probes, step):
    """End states at each probe (s1, s2) flowing axis 1 then axis 2 (a)
    and axis 2 then axis 1 (b).  Probes are lanes, and the first legs of
    both orders are one march, then the second legs: each lane integrates
    sigma in [0, 1] along its own axis with the right-hand side scaled by
    its span, and its first trial step moves it at most ``step`` in s."""
    n = len(probes)
    ends = np.concatenate([probes, probes])

    def legs(axis, fixed, y):
        start = s_base[axis]
        span = np.choose(axis, ends.T) - start
        rhs = field(axis, fixed)

        def f(sigma, u):
            return span[:, None] * rhs(start + sigma * span, u)

        return ode.flow(f, y, 0.0, [1.0], tol=1e-12,
                        first_step=step / np.maximum(np.abs(span), step))[0]

    # a first leg holds the other coordinate at the anchor's, and a second
    # leg at the probe's
    axis = np.repeat([0, 1], n)
    y = legs(axis, s_base, np.tile(u0, (2 * n, 1)))
    y = legs(1 - axis, ends.T, y)
    return y[:n], y[n:]


def _swap_order_check(surf, field, s_base, u0, step, tol):
    rng = np.random.default_rng(0)
    (l1, h1), (l2, h2) = surf.tau_ranges
    probes = np.stack([rng.uniform(l1, h1, _SWAP_PROBES),
                       rng.uniform(l2, h2, _SWAP_PROBES)], axis=1)
    a, b = _flow_both_orders(field, s_base, u0, probes, step)
    m = np.max(np.abs(a - b), axis=1)
    i = int(np.argmax(m))
    worst = float(m[i])
    if worst > tol:
        raise NonIntegrable(worst, (float(probes[i, 0]), float(probes[i, 1])))
    return worst


def flow_order_mismatch(surf: Surface2D, gammas, mu, step=0.01):
    """Worst swap-order defect of the defining flows at probe parameters;
    the construction itself enforces this below its tolerance, so this is
    the independent re-measurement."""
    field = _gamma_field(gammas, mu, surf.axes, surf.space, surf.tau_names)
    s_base = np.linalg.solve(surf.axes,
                             np.asarray(surf.provenance.tau_base, dtype=float))
    u0 = np.asarray(surf.provenance.u0, dtype=float)
    return _swap_order_check(surf, field, s_base, u0, step, tol=np.inf)


def surface_tangency_residual(surf, gammas, mu, rng=None):
    """Max deviation of df/dtau from the mu-weighted gamma frame at random
    surface parameters (the defining property, sampled)."""
    rng = np.random.default_rng(rng)
    k = surf.k
    n = _TANGENCY_SAMPLES
    if k == 1:
        lo, hi = surf.tau_ranges[0]
        tau = rng.uniform(lo, hi, n)[:, None]
    else:
        (l1, h1), (l2, h2) = surf.tau_ranges
        s = np.stack([rng.uniform(l1, h1, n), rng.uniform(l2, h2, n)], axis=1)
        tau = surf.from_internal(s)
    u = surf.value(tau)
    J = surf.jac(tau)
    field = _gamma_field(gammas, mu, np.eye(k), surf.space, surf.tau_names)
    fixed = list(tau.T)
    return float(max(np.max(np.abs(J[:, :, a] - field(a, fixed)(tau[:, a], u)))
                     for a in range(k)))


# ---------------------------------------------------------------------------
# potentials as batch-evaluable functions

class PotentialFn:
    """Uniform batch interface over symbolic and quadrature potentials:
    phi and dphi/du (n, q) at the lanes of an env, where a 0-d value is
    shared by every lane.  ``bind(env)`` fixes the lanes' x and parameters
    and leaves u free (see BoundPotential).  A symbolic phi compiles one
    kernel for the value and one for the derivatives, each staged on u, so
    a bound potential evaluates its u-free subtrees once and each call
    computes only what it returns; a quadrature phi integrates every lane
    in one pass.
    """

    def __init__(self, phi, space: VarSpace):
        self.space = space
        self.phi = phi
        if isinstance(phi, Expr):
            self.symbolic = True
            late = space.dependent
            self._bind_value = compile_exprs([phi], late=late)
            self._bind_du = compile_exprs(
                [simplify(phi.diff(n)) for n in late], late=late)
        elif isinstance(phi, NumericPotential):
            self.symbolic = False
        else:
            raise TypeError(f"unsupported potential {phi!r}")

    def bind(self, env):
        return BoundPotential(self, env)


class BoundPotential:
    """A PotentialFn at the fixed lanes of an env, u free: ``value(u_env)``
    (n,) and ``du(u_env)`` (n, q) read only the dependent variables of
    ``u_env``, per lane or 0-d; ``value`` also takes a block of B values
    of shape (B, 1) and gives (B, n).  ``rows(rows)`` is the potential at
    a subset of the lanes; a symbolic one slices its bound kernels, so
    their u-free parts are evaluated once per bind.
    """

    def __init__(self, pot, env, kernels=None):
        self.pot, self._env = pot, env
        if pot.symbolic and kernels is None:
            kernels = (pot._bind_value(env), pot._bind_du(env))
        self._kernels = kernels

    def rows(self, rows):
        if self.pot.symbolic:
            return BoundPotential(self.pot, None,
                                  tuple(k.rows(rows) for k in self._kernels))
        return BoundPotential(self.pot,
                              {name: v[rows] if np.ndim(v) else v
                               for name, v in self._env.items()})

    def value(self, u_env):
        if self.pot.symbolic:
            return self._kernels[0](u_env)[..., 0]
        value = np.atleast_1d(self.pot.phi.evaluate({**self._env, **u_env}))
        # a phi free of u still spreads over a block of u
        return np.broadcast_to(value, np.broadcast_shapes(
            value.shape, *map(np.shape, u_env.values())))

    def du_only(self):
        """The potential without its bound value kernel, for ``du`` only."""
        if self.pot.symbolic:
            return BoundPotential(self.pot, None, (None, self._kernels[1]))
        return self

    def du(self, u_env):
        if self.pot.symbolic:
            return self._kernels[1](u_env)
        cols = []
        for name in self.pot.space.dependent:
            u = np.asarray(u_env[name])
            up = self.value({**u_env, name: u + _DU_STEP})
            dn = self.value({**u_env, name: u - _DU_STEP})
            cols.append((up - dn) / (2 * _DU_STEP))
        return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# the implicit solve

@dataclass
class SolutionField:
    """The solve's result at every grid point.

    ``det_monitor``, det(I - (dphi/du)(df/dtau)) at each point, is computed
    by ``determinant()`` when it or ``catastrophe`` (|det| below
    ``_CATASTROPHE`` at a converged point) is first read, and kept;
    a re-solve whose caller reads only ``u`` never computes it.
    """

    space: VarSpace
    x_names: tuple
    x: np.ndarray          # (n, p)
    params: dict
    tau_names: tuple
    tau: np.ndarray        # (n, k)
    u: np.ndarray          # (n, q)
    iters: np.ndarray
    converged: np.ndarray
    determinant: object    # callable() -> det_monitor
    resolver: object = None   # callable(env_x, initial_guess) -> SolutionField

    @cached_property
    def det_monitor(self):
        return self.determinant()

    @cached_property
    def catastrophe(self):
        return (np.abs(self.det_monitor) < _CATASTROPHE) & self.converged

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def k(self):
        return self.tau.shape[1]

    def grid_env(self):
        """Every variable at every grid point, as arrays of shape (n,)."""
        env = {name: self.x[:, i] for i, name in enumerate(self.x_names)}
        env.update({k: np.broadcast_to(v, (self.n,))
                    for k, v in self.params.items()})
        for j, name in enumerate(self.space.dependent):
            env[name] = self.u[:, j]
        return env

    def resolve(self, env_x, initial_guess=None):
        """Re-solve at the points of ``env_x``; ``initial_guess`` (one tau
        row per point) warm-starts the Newton iteration."""
        if self.resolver is None:
            raise SolverError("this field does not carry a resolver")
        return self.resolver(env_x, initial_guess)


def _env_from_grid(x_names, grid_env, params):
    n = max(np.shape(v)[0] if np.shape(v) else 1 for v in grid_env.values())
    env = {}
    for name in x_names:
        env[name] = np.broadcast_to(np.asarray(grid_env[name], dtype=float), (n,))
    for k, v in params.items():
        env[k] = np.asarray(v, dtype=float)   # 0-d, shared by every lane
    return env, n


def solve_implicit(surface, potentials, grid_env, cfg: ImplicitSolveConfig,
                   params=None, space=None, plan=None):
    """Solve tau = phi(x, f(tau)) at every grid point.

    ``grid_env`` maps independent-variable names to equal-length arrays.
    ``space`` is the full analysis variable space (defaults to the
    surface's, which suffices only when it already lists the independent
    variables).  The scalar case scans ``cfg.tau_window`` for sign
    changes, selects a root per ``cfg.root_select``, and polishes by
    bisection (see ``_solve_scalar``); the multi-parameter case runs a
    damped, vectorized Newton iteration from the configured initial guess
    with warm-start retries from converged neighbors.  No point failure is
    fatal; SolveFailed is raised only when no point has a solution.  ``plan``
    is an earlier solve's grouping of its lanes into equations, which a
    re-solve takes in place of sorting its own where it still holds (see
    ``exprmat.distinct_rows``).
    """
    params = dict(params or {})
    if space is None:
        space = surface.space
    if tuple(space.dependent) != tuple(surface.space.dependent):
        raise ValueError("surface and analysis space disagree on the "
                         "dependent variables")
    pots = [p if isinstance(p, PotentialFn) else PotentialFn(p, space)
            for p in potentials]
    k = surface.k
    if len(pots) != k:
        raise ValueError(f"need {k} potentials, got {len(pots)}")
    x_names = space.independent
    env_x, n = _env_from_grid(x_names, grid_env, params)
    # lanes are independent, so each distinct equation is solved once: a
    # lane is keyed on the grid columns a potential reads (a quadrature
    # potential reads them all) and on its own warm start, if it has one
    reads = set().union(*(p.phi.variables() if p.symbolic else x_names
                          for p in pots))
    key = [env_x[nm] for nm in x_names if nm in reads]
    guess = _lane_guess(cfg, n, k)
    if guess is not None:
        key += list(guess.T)
    plan = first, inverse = distinct_rows(
        np.column_stack(key) if key else np.empty((n, 0)), plan)
    m = len(first)
    bound = [p.bind({nm: v[first] if np.ndim(v) else v
                     for nm, v in env_x.items()}) for p in pots]
    tau0 = (guess[first] if guess is not None
            else _initial_guess(cfg, bound, surface, m, k))

    if k == 1:
        tau, iters, conv = _solve_scalar(surface, bound, tau0, cfg)
        u = surface.value(tau)
    else:
        tau, iters, conv, u, stale = _newton(surface, bound, tau0, cfg)
        if (~conv).any() and conv.any():
            # warm-start the lanes that failed from their nearest converged,
            # in grid order, so from here on every grid lane is solved
            tau, iters, conv, u = (a[inverse] for a in (tau, iters, conv, u))
            bad = np.flatnonzero(~conv)
            warm = tau[_nearest(np.flatnonzero(conv), bad)]
            tau[bad], more, conv[bad], u[bad], stale = _newton(
                surface, [b.rows(inverse[bad]) for b in bound], warm, cfg)
            iters[bad] += more
            stale = bad[stale]
            bound = [b.rows(inverse) for b in bound]
            # every grid lane is its own equation from here on: no plan
            inverse, plan = np.arange(len(inverse)), None
        if stale.size:
            u[stale] = surface.value(tau[stale])

    if not conv.any():
        raise SolveFailed("no grid point has a sign change of tau - phi in "
                          "the scan window" if k == 1 else
                          "Newton diverged at every grid point")
    du = [b.du_only() for b in bound]    # all that determinant() reads

    def determinant():
        with np.errstate(invalid="ignore"):
            return np.linalg.det(_jacobian(du, _u_env(space.dependent, u),
                                           surface.jac(tau)))[inverse]

    xs = np.stack([env_x[name] for name in x_names], axis=1)

    def resolver(new_grid_env, initial_guess=None):
        cfg2 = cfg
        if initial_guess is not None and k > 1 and conv.all():
            cfg2 = replace(cfg, initial_guess=initial_guess)
        return solve_implicit(surface, pots, new_grid_env, cfg2, params, space,
                              plan)

    return SolutionField(space=space, x_names=x_names, x=xs, params=params,
                         tau_names=surface.tau_names, tau=tau[inverse],
                         u=u[inverse], iters=iters[inverse],
                         converged=conv[inverse], determinant=determinant,
                         resolver=resolver)


def _u_env(dependent, u):
    return {name: u[..., j] for j, name in enumerate(dependent)}


def _phi(bound, u_env):
    """phi (..., n, k) of the bound potentials; k moved last, not stacked"""
    phi = np.array([b.value(u_env) for b in bound])
    return phi.transpose(*range(1, phi.ndim), 0)


def _jacobian(bound, u_env, dfdtau):
    """I - (dphi/du)(df/dtau) at each lane, (n, k, k)."""
    dphi = np.stack([b.du(u_env) for b in bound], axis=1)   # (n, k, q)
    return np.eye(len(bound))[None] - dphi @ dfdtau


def _lane_guess(cfg, n, k):
    """The configured initial guess as one tau row per lane, or None when
    it is a policy or one row for every lane."""
    g = cfg.initial_guess
    if isinstance(g, str) or np.shape(g) == (k,):
        return None
    return np.asarray(g, dtype=float).reshape(n, k)


def _initial_guess(cfg, bound, surface, n, k):
    g = cfg.initial_guess
    if isinstance(g, str) and g == "potential_at_base":
        u0 = surface.provenance.u0
        env = {name: np.full(n, u0[j])
               for j, name in enumerate(surface.space.dependent)}
        return np.stack([b.value(env) for b in bound], axis=1)
    arr = np.asarray(g, dtype=float)
    if arr.shape == (k,):
        return np.tile(arr, (n, 1))
    return arr.reshape(n, k)


def _nearest(good, bad):
    """For each index in ``bad``, the nearest index in the sorted ``good``;
    a tie goes to the lower one."""
    pos = np.searchsorted(good, bad)
    left = good[np.maximum(pos - 1, 0)]
    right = good[np.minimum(pos, len(good) - 1)]
    return np.where(right - bad < bad - left, right, left)


def _lanewise(op, a):
    """``op`` folded over each lane's components of ``a`` (n, ...), one
    elementwise call per component, far faster than numpy's reduction
    along a short axis; with np.fmax, np.nanmax without its warning."""
    return reduce(op, a.reshape(len(a), math.prod(a.shape[1:])).T)


def _newton(surface, bound, tau0, cfg):
    """Damped Newton on tau - phi(x, f(tau)) = 0 at the lanes of the bound
    potentials, from tau0.  Returns tau, iterations, convergence, u and
    the lanes whose u is not that at their final tau (their damping ran
    out).

    Only the lanes still iterating are kept, in compact arrays: tau, the
    point their u, df/dtau (one surface lookup) and phi are at, the step
    and its scale.  A lane leaves them, its results written back, in the
    iteration it converges; the potentials are sliced once per compaction.
    A point is looked up once: an accepted trial is the next iterate, and
    a trial with the bits of the point a lane's values are at is not
    looked up again.  Lookups, clips and potential calls cover only the
    lanes still iterating or, in the damping loop, still halving.
    """
    dep = surface.space.dependent
    t = surface.clip(np.array(tau0, dtype=float))
    (n, k), q = t.shape, surface.q
    tau, u = np.empty((n, k)), np.empty((n, q))
    iters, conv = np.zeros(n, dtype=int), np.zeros(n, dtype=bool)
    lane = np.arange(n)       # the grid lane of each compact lane
    uc, dfdtau, phi = np.empty((n, q)), np.empty((n, q, k)), np.empty((n, k))
    at = np.invert(t.view(np.int64)).view(float)   # no lane looked up yet

    def moved(point, idx):
        # bit patterns, so that -0.0 and 0.0 (or two NaNs) stay apart
        differ = (point.take(idx, 0).view(np.int64)
                  != at.take(idx, 0).view(np.int64))
        return idx[_lanewise(np.logical_or, differ)]

    def look(point, idx):
        idx = moved(point, idx)
        if idx.size == len(at):             # every lane: no gathers
            idx, sliced = slice(None), bound
        elif idx.size:
            sliced = [b.rows(idx) for b in bound]
        else:
            return
        at[idx] = p = point[idx]
        ul, dfdtau[idx] = surface.value_and_jac(p)
        uc[idx], phi[idx] = ul, _phi(sliced, _u_env(dep, ul))

    pending = lane           # the lanes whose t is a trial not looked up
    for it in range(cfg.max_iter):
        look(t, pending)
        G = t - phi
        Gn = _lanewise(np.fmax, np.abs(G))
        done = Gn < cfg.newton_tol
        if done.any():
            out = lane[done]
            tau[out], u[out], iters[out] = t[done], uc[done], it
            conv[out] = True
            keep = np.flatnonzero(~done)
            lane, t, at, uc, dfdtau, phi, G, Gn = (
                a.take(keep, 0) for a in (lane, t, at, uc, dfdtau, phi, G, Gn))
            if not lane.size:
                return tau, iters, conv, u, lane    # no lane left stale
            bound = [b.rows(keep) for b in bound]
        J = _jacobian(bound, _u_env(dep, uc), dfdtau)
        ok = (_lanewise(np.logical_and, np.isfinite(J))
              & _lanewise(np.logical_and, np.isfinite(G)))
        if not ok.all():
            J[~ok] = np.eye(k)     # det sees finite lanes; these take no step
        solvable = ok & (np.abs(np.linalg.det(J)) > 1e-14)
        step = np.zeros_like(t)
        if solvable.any():
            sel = slice(None) if solvable.all() else solvable
            step[sel] = np.linalg.solve(J[sel], G[sel][..., None])[..., 0]
        scale = np.ones(len(t))
        trial = surface.clip(t - scale[:, None] * step)
        pending, Gp = np.arange(len(t)), Gn
        for _ in range(cfg.damping_steps):
            look(trial, pending)
            Gt = _lanewise(np.fmax, np.abs(trial.take(pending, 0)
                                           - phi.take(pending, 0)))
            worse = ~(Gt <= Gp * (1 - 1e-4) + cfg.newton_tol)
            pending, Gp = pending[worse], Gp[worse]
            if not pending.size:
                break
            scale[pending] *= 0.5
            trial[pending] = surface.clip(t.take(pending, 0)
                                          - scale[pending, None]
                                          * step.take(pending, 0))
        t = trial
    tau[lane], u[lane], iters[lane] = t, uc, cfg.max_iter
    return tau, iters, conv, u, lane[moved(t, pending)]


class _CellPicker:
    """Per lane, the sign-change cell ``root_select`` picks, offered a
    block of consecutive cells at a time in scan order: the lowest, the
    highest, or the one whose centre is nearest ``tau0`` (the lowest of
    equals, and the first when ``tau0`` is NaN or infinite).  A lane keeps
    whether it has a cell, its index (0 without one), G at its left end
    and its distance."""

    def __init__(self, tau0, root_select):
        n = len(tau0)
        self.tau0 = tau0
        self.root_select = root_select
        self.found = np.zeros(n, dtype=bool)
        self.idx = np.zeros(n, dtype=int)
        self.g_left = np.zeros(n)
        self.dist = np.full(n, np.inf)

    def offer(self, first, g, centres):
        """The cells ``first``, ``first`` + 1, ... between consecutive rows
        of ``g`` (b + 1, n), G at consecutive scan points; ``centres`` (b,)
        are the cells' centres."""
        # both ends finite, and G changes sign or is zero at an end
        pos, zero, finite = g > 0, g == 0, np.isfinite(g)
        flip = (((pos[:-1] != pos[1:]) | zero[:-1] | zero[1:])
                & finite[:-1] & finite[1:])
        has = flip.any(axis=0)
        if self.root_select == "lowest":
            has &= ~self.found
        lanes = np.flatnonzero(has)
        if not lanes.size:
            return
        flip = flip[:, lanes]
        if self.root_select == "lowest":
            cell = flip.argmax(axis=0)
        elif self.root_select == "highest":
            cell = len(flip) - 1 - flip[::-1].argmax(axis=0)
        else:
            key = np.where(flip, np.abs(centres[:, None] - self.tau0[lanes]),
                           np.inf)
            cell = key.argmin(axis=0)
            dist = key[cell, np.arange(len(lanes))]
            # no finite distance (tau0 NaN or infinite): a cell at a time,
            # the first flip is never replaced
            cell = np.where(dist < np.inf, cell, flip.argmax(axis=0))
            better = ~self.found[lanes] | (dist < self.dist[lanes])
            lanes, cell = lanes[better], cell[better]
            self.dist[lanes] = dist[better]
        self.found[lanes] = True
        self.idx[lanes] = first + cell
        self.g_left[lanes] = g[cell, lanes]


def _mid_cell(ends, cell, ia, b, mid, wide):
    """The spline cell of each bisection midpoint ``mid`` from the cell ia
    of its bracket's lower end and its upper end b, where cell i ends at
    ``ends[i]`` (+inf past the last cell): ia plus one comparison with the
    knot that ends it while the bracket spans one or two cells, and a
    search (``cell``) on the lanes whose bracket reaches a third.
    Brackets only narrow, so once no lane needed a search none will: the
    returned ``wide`` says whether one did, and a False one skips the test."""
    im = ia + (mid >= ends.take(ia))
    if wide:
        lanes = np.flatnonzero(b >= ends.take(ia + 1))
        im[lanes] = cell(mid[lanes])
        wide = lanes.size > 0
    return im, wide


def _solve_scalar(surface, bound, tau0, cfg):
    """Per lane of the bound potential, a root of G(tau) = tau - phi(x,
    f(tau)) on a curve, from the guesses tau0 (n, 1): scan the window for
    sign changes, pick a cell while scanning and bisect it until its ends
    are adjacent floats on every lane.  The scan runs in blocks of B =
    ``_SCAN_BLOCK`` // n columns of G, each one potential call with the
    block's u broadcast over the lanes (never repeated) and one cell pick
    that starts at the last column of the block before, so memory grows
    with the lanes only.  The curve is evaluated once per scan point.
    Under ``lowest`` a lane reads only its first sign change, so the scan
    ends after the block in which every lane has its cell; ``highest``
    and ``nearest`` scan every point.  The bisection slices the potential
    once, to the lanes with a cell, and carries the spline cell of each
    lane's lower bracket end, so a midpoint's curve point takes no search
    (see ``_mid_cell``).  Returns tau (n, 1), bisection steps and whether
    a lane has a root."""
    dep = surface.space.dependent
    (phi,) = bound
    n = len(tau0)
    (lo, hi) = surface.tau_ranges[0]
    if cfg.tau_window is not None:
        lo = max(lo, cfg.tau_window[0])
        hi = min(hi, cfg.tau_window[1])
    if not lo < hi:
        raise SolverError("empty scan window")
    ws = np.linspace(lo, hi, _SCAN_POINTS)
    cw = surface.cell(ws)
    us = surface.at(cw, ws)
    centres = 0.5 * (ws[:-1] + ws[1:])
    pick = _CellPicker(tau0[:, 0], cfg.root_select)
    lowest = cfg.root_select == "lowest"
    size = max(1, _SCAN_BLOCK // max(n, 1))
    g = np.empty((size + 1, n))     # row 0: the block before's last column
    np.subtract(ws[0], phi.value(_u_env(dep, us[:1, None]))[0], out=g[0])
    for j in range(1, len(ws), size):
        cols = slice(j, j + size)
        width = len(ws[cols])
        np.subtract(ws[cols, None], phi.value(_u_env(dep, us[cols, None])),
                    out=g[1:width + 1])
        pick.offer(j - 1, g[:width + 1], centres[j - 1:j - 1 + width])
        if lowest and pick.found.all():
            break
        g[0] = g[width]
    conv = pick.found
    tau = np.full((n, 1), np.nan)
    iters = np.zeros(n, dtype=int)
    if not conv.any():
        return tau, iters, conv

    rows = np.where(conv)[0]
    phi = phi.rows(rows)
    idx = pick.idx[rows]
    a, b, ga = ws[idx], ws[idx + 1], pick.g_left[rows]
    ia, mid, wide = cw[idx], 0.5 * (a + b), True
    ends = np.append(surface.s_grid[1:-1], (np.inf, np.inf))
    # no lane can end before step ``quiet``: with u twice the float spacing
    # at the largest |end|, a step leaves at least w/2 - u/2 of a bracket's
    # width w, so after s steps w > w0/2^s - u, and a midpoint can equal an
    # end only once w <= u
    u = 2 * np.spacing(max(np.abs(a).max(), np.abs(b).max()))
    quiet = int(np.log2((b - a).min() / (2 * u))) - 1
    for steps in range(1, 91):
        im, wide = _mid_cell(ends, surface.cell, ia, b, mid, wide)
        gm = mid - phi.value(_u_env(dep, surface.at(im, mid)))
        left = ga * gm <= 0
        b = np.where(left, mid, b)
        a = np.where(left, a, mid)
        ia = np.where(left, ia, im)
        ga = np.where(left, ga, gm)
        mid = 0.5 * (a + b)
        # adjacent floats on every lane
        if steps > quiet and np.all((mid == a) | (mid == b)):
            break
    iters[rows] = steps
    tau[rows, 0] = mid
    return tau, iters, conv


# ---------------------------------------------------------------------------
# explicit double-wave fixture

def double_wave_fixture(grid_env=None):
    """Explicit two-wave field u = (-ln|y|, t) of the two-dependent,
    three-independent hydrodynamic fixture, on a default 20^3 grid.

    Residuals vanish identically; the tangent map decomposes onto the two
    wave dyads with equal weights 1/2.  The tau columns carry the Riemann
    invariants t +/- 2 sqrt(-ln|y|) of the defining parametrization, and
    the catastrophe determinant equals 2 along the whole family.
    """
    from .fixtures import load_fixture

    sys = load_fixture("example2")
    space = sys.space
    if grid_env is None:
        t = np.linspace(1.0, 3.0, 20)
        x = np.linspace(1.0, 3.0, 20)
        y = np.linspace(0.2, 0.9, 20)
        T, X, Y = np.meshgrid(t, x, y, indexing="ij")
        grid_env = {"t": T.ravel(), "x": X.ravel(), "y": Y.ravel()}
    env_x, n = _env_from_grid(space.independent, grid_env, {})
    tv, yv = env_x["t"], env_x["y"]
    root = np.sqrt(-np.log(np.abs(yv)))
    u = np.stack([-np.log(np.abs(yv)), tv], axis=1)
    tau = np.stack([tv + 2 * root, tv - 2 * root], axis=1)
    xs = np.stack([env_x[nm] for nm in space.independent], axis=1)

    def resolver(new_grid_env, initial_guess=None):
        return double_wave_fixture(new_grid_env)

    return SolutionField(
        space=space, x_names=space.independent, x=xs, params={},
        tau_names=("taup", "taum"), tau=tau, u=u,
        iters=np.zeros(n, dtype=int), converged=np.ones(n, dtype=bool),
        determinant=lambda: np.full(n, 2.0), resolver=resolver)
