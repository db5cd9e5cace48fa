"""Construction of wave solutions: characteristic trajectories, hodograph
surfaces, and the Newton solve of the implicit Riemann-invariant system

    u = f(tau),    tau^a = phi^a(x, f(tau)),

with det(I - (dphi/du)(df/dtau)) monitored as the gradient-catastrophe
indicator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline

from . import ode
from .expr import Expr, VarSpace, compile_exprs, simplify
from .geometry import NumericPotential


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
    """Newton diverged at every grid point."""


@dataclass
class ImplicitSolveConfig:
    """Newton settings for the implicit Riemann-invariant solve."""

    newton_tol: float = 1e-12
    max_iter: int = 60
    catastrophe_threshold: float = 1e-8
    initial_guess: object = "potential_at_base"  # policy, array, or callable
    tau_window: tuple | None = None   # scan window for the scalar solve
    scan_points: int = 257
    root_select: str = "nearest"      # nearest | lowest | highest
    damping_steps: int = 25
    warm_start_retry: bool = True

    def __post_init__(self):
        if self.newton_tol <= 0 or self.catastrophe_threshold <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class SurfaceProvenance:
    gamma_labels: tuple
    mu: tuple | None
    u0: tuple
    tau_base: tuple


class Surface1D:
    """Hodograph curve u = f(s) sampled on a grid with spline interpolation
    (exact on the low-degree closed forms the fixtures produce)."""

    k = 1

    def __init__(self, s_grid, u_samples, space, tau_names, provenance):
        self.s_grid = np.asarray(s_grid, dtype=float)
        self.u_samples = np.asarray(u_samples, dtype=float)
        self.space = space
        self.tau_names = tuple(tau_names)
        self.provenance = provenance
        self._splines = [CubicSpline(self.s_grid, self.u_samples[:, j])
                         for j in range(self.u_samples.shape[1])]
        self._dsplines = [sp.derivative() for sp in self._splines]

    @property
    def q(self):
        return self.u_samples.shape[1]

    @property
    def tau_ranges(self):
        return ((float(self.s_grid[0]), float(self.s_grid[-1])),)

    def clip(self, tau):
        lo, hi = self.tau_ranges[0]
        return np.clip(tau, lo, hi)

    def value(self, tau):
        s = np.asarray(tau, dtype=float).reshape(-1)
        return np.stack([sp(s) for sp in self._splines], axis=1)

    def jac(self, tau):
        s = np.asarray(tau, dtype=float).reshape(-1)
        d = np.stack([sp(s) for sp in self._dsplines], axis=1)
        return d[:, :, None]


class Surface2D:
    """Hodograph sheet u = f(tau^1, tau^2) built by commuting flows over a
    (possibly rotated) parameter rectangle: tau = axes @ s with s on a grid.

    A rotated rectangle lets the grid hug the strip where the surface is
    regular, e.g. away from the sqrt branch line of the two-wave fixture.
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
        self._sp = [RectBivariateSpline(self.s1_grid, self.s2_grid,
                                        self.u_grid[:, :, j], kx=3, ky=3, s=0)
                    for j in range(self.u_grid.shape[2])]

    @property
    def q(self):
        return self.u_grid.shape[2]

    @property
    def tau_ranges(self):
        return ((float(self.s1_grid[0]), float(self.s1_grid[-1])),
                (float(self.s2_grid[0]), float(self.s2_grid[-1])))

    def to_internal(self, tau):
        return np.asarray(tau, dtype=float) @ self.axes_inv.T

    def from_internal(self, s):
        return np.asarray(s, dtype=float) @ self.axes.T

    def clip(self, tau):
        s = self.to_internal(tau)
        (l1, h1), (l2, h2) = self.tau_ranges
        s[:, 0] = np.clip(s[:, 0], l1, h1)
        s[:, 1] = np.clip(s[:, 1], l2, h2)
        return self.from_internal(s)

    def value(self, tau):
        s = self.to_internal(tau)
        return np.stack([sp.ev(s[:, 0], s[:, 1]) for sp in self._sp], axis=1)

    def jac(self, tau):
        s = self.to_internal(tau)
        cols = []
        for sp in self._sp:
            d1 = sp.ev(s[:, 0], s[:, 1], dx=1)
            d2 = sp.ev(s[:, 0], s[:, 1], dy=1)
            cols.append(np.stack([d1, d2], axis=1))
        dfs = np.stack(cols, axis=1)           # (n, q, 2) wrt internal coords
        return dfs @ self.axes_inv             # chain rule to tau


# ---------------------------------------------------------------------------
# surface construction

def _gamma_field(gammas, mu, axes, space, tau_names):
    """du/ds_j along internal axis j: sum_a axes[a][j] V_a(tau, u) with
    V_a = sum_a' mu[a'][a](tau) gamma_a'(u).

    The returned closure flows one internal coordinate while the others
    stay fixed; both the flowing and the fixed coordinates may be scalars
    shared by every lane or arrays with one value per lane.
    """
    dep = space.dependent
    k = len(gammas)
    q = len(dep)
    axes = np.asarray(axes, dtype=float)
    # columns: gamma_a's q components for each a, then mu[a'][a] row-major
    kernel = compile_exprs([e for g in gammas for e in g]
                           + [m for row in mu for m in row])

    def field(axis_idx, fixed_coords):
        terms = [(a, axes[a][axis_idx]) for a in range(k)
                 if axes[a][axis_idx] != 0.0]

        def rhs(s, u):
            u2 = np.atleast_2d(np.asarray(u, dtype=float))
            lanes = u2.shape[0]
            s_mat = np.empty((lanes, k))
            for a in range(k):
                s_mat[:, a] = s if a == axis_idx else fixed_coords[a]
            tau = s_mat @ axes.T
            env = {name: tau[:, a] for a, name in enumerate(tau_names)}
            for b, name in enumerate(dep):
                env[name] = u2[:, b]
            vals = kernel(env)
            out = np.zeros(u2.shape)
            for a, coeff in terms:
                acc = np.zeros(u2.shape)
                for ap in range(k):
                    acc += (vals[:, k * q + ap * k + a, None]
                            * vals[:, ap * q:(ap + 1) * q])
                out += coeff * acc
            return out.reshape(np.shape(u))
        return rhs
    return field


def _flow_from_anchor(rhs, y0, start, targets, step):
    """States at the sorted ``targets``: integrate down and up from the
    anchor y(start) = y0, then stitch the two sweeps in target order."""
    out = np.empty((len(targets),) + np.shape(y0))
    below = targets < start
    if below.any():
        out[np.where(below)[0][::-1]] = ode.rk4_dense(
            rhs, y0, start, targets[below][::-1], max_step=step, tol=1e-12)
    if (~below).any():
        out[np.where(~below)[0]] = ode.rk4_dense(
            rhs, y0, start, targets[~below], max_step=step, tol=1e-12)
    return out


def integrate_characteristic(gamma, alpha, u0, s_range, step, space,
                             s_name="s", s0=None, n_out=241, provenance=None):
    """Characteristic trajectory du/ds = alpha(s) gamma(u, s) anchored at
    u(s0) = u0 (s0 defaults to the left end of s_range), sampled densely
    and wrapped as a 1-parameter hodograph surface."""
    lo, hi = float(s_range[0]), float(s_range[1])
    if s0 is None:
        s0 = lo
    s0 = float(s0)
    if not lo <= s0 <= hi:
        raise ValueError("anchor s0 must lie inside s_range")
    dep = space.dependent
    q = len(gamma)
    kernel = compile_exprs(tuple(gamma) + ((alpha,) if alpha is not None else ()))

    def rhs(s, u):
        u2 = np.atleast_2d(u)
        env = {name: u2[..., b] for b, name in enumerate(dep)}
        env[s_name] = np.asarray(s, dtype=float)
        vals = kernel(env)
        g = vals[:, :q]
        if alpha is not None:
            g = vals[:, q:] * g
        return g.reshape(np.shape(u))

    if step <= 0:
        raise ValueError("step must be positive")
    s_grid = np.linspace(lo, hi, n_out)
    states = _flow_from_anchor(rhs, np.asarray(u0, dtype=float), s0, s_grid,
                               step)
    surf = Surface1D(s_grid, states, space, (s_name,),
                     provenance or SurfaceProvenance(("gamma",), None,
                                                     tuple(np.asarray(u0, float)),
                                                     (s0,)))
    _check_tangency_1d(surf, rhs)
    return surf


def _check_tangency_1d(surf, rhs, n=17, tol=1e-8):
    s = np.linspace(surf.s_grid[0], surf.s_grid[-1], n)
    u = surf.value(s)
    want = rhs(s, u)
    got = surf.jac(s)[:, :, 0]
    scale = 1.0 + np.max(np.abs(want))
    worst = np.max(np.abs(got - want)) / scale
    if worst > tol:
        raise SolverError(f"trajectory tangent deviates from the field by {worst:.2e}")


def build_hodograph(gammas, mu, u0, tau_base, axis_ranges, step, space,
                    tau_names=None, axes=None, n_grid=161, swap_tol=1e-7,
                    labels=None):
    """Hodograph surface of a commuting weighted frame.

    Solves df/dtau^a = sum_a' mu^a'_a(tau) gamma_(a') by successive flows
    from the anchor (tau_base, u0) over a parameter rectangle in internal
    coordinates (tau = axes @ s; axes defaults to identity).  The flow
    order is swapped at probe points, integrated together as lanes, and a
    mismatch beyond ``swap_tol`` raises NonIntegrable.  For k = 1 the
    surface is the characteristic of ``integrate_characteristic``.
    """
    k = len(gammas)
    if tau_names is None:
        tau_names = tuple(f"tau{i+1}" for i in range(k))
    if axes is None:
        axes = np.eye(k)
    axes = np.asarray(axes, dtype=float)
    prov = SurfaceProvenance(tuple(labels or [f"g{i}" for i in range(k)]),
                             tuple(tuple(str(e) for e in row) for row in mu),
                             tuple(np.asarray(u0, float)), tuple(tau_base))
    if k == 1:
        mu_gamma = tuple(simplify(mu[0][0] * g) for g in gammas[0])
        return integrate_characteristic(
            mu_gamma, None, u0, axis_ranges[0], step, space,
            s_name=tau_names[0], s0=tau_base[0], n_out=n_grid, provenance=prov)

    if k != 2:
        raise SolverError("surface construction supports k = 1 or 2")

    field = _gamma_field(gammas, mu, axes, space, tau_names)
    s_base = np.linalg.solve(axes, np.asarray(tau_base, dtype=float))
    (l1, h1), (l2, h2) = axis_ranges
    s1_grid = np.linspace(l1, h1, n_grid)
    s2_grid = np.linspace(l2, h2, n_grid)

    # sweep axis 1 from the anchor, then all s1 lanes together along axis 2
    line = _flow_from_anchor(field(0, [None, s_base[1]]),
                             np.asarray(u0, float), s_base[0], s1_grid, step)
    states = _flow_from_anchor(field(1, [s1_grid, None]), line, s_base[1],
                               s2_grid, step)
    u_grid = np.transpose(states, (1, 0, 2))  # (n1, n2, q)

    surf = Surface2D(axes, s1_grid, s2_grid, u_grid, space, tau_names, prov)
    _swap_order_check(surf, field, s_base, np.asarray(u0, float), step, swap_tol)
    return surf


def _flow_both_orders(field, s_base, u0, probes, step):
    """End states at each probe (s1, s2) flowing axis 1 then axis 2 (a)
    and axis 2 then axis 1 (b).  Probes are lanes: each leg integrates
    sigma in [0, 1] with the right-hand side scaled by each lane's span,
    and no lane moves more than ``step`` in s per step."""
    s1, s2 = probes[:, 0], probes[:, 1]
    y0 = np.tile(u0, (len(probes), 1))

    def leg(axis_idx, fixed_coords, y, start, end):
        span = end - start
        rhs = field(axis_idx, fixed_coords)

        def f(sigma, u):
            return span[:, None] * rhs(start + sigma * span, u)

        return ode.rk4(f, y, 0.0, 1.0, tol=1e-12,
                       max_step=step / max(np.max(np.abs(span)), step))

    a = leg(0, [None, s_base[1]], y0, s_base[0], s1)
    a = leg(1, [s1, None], a, s_base[1], s2)
    b = leg(1, [s_base[0], None], y0, s_base[1], s2)
    b = leg(0, [None, s2], b, s_base[0], s1)
    return a, b


def _swap_order_check(surf, field, s_base, u0, step, tol, n_probe=5):
    rng = np.random.default_rng(0)
    (l1, h1), (l2, h2) = surf.tau_ranges
    probes = np.stack([rng.uniform(l1, h1, n_probe), rng.uniform(l2, h2, n_probe)],
                      axis=1)
    a, b = _flow_both_orders(field, s_base, u0, probes, step)
    m = np.max(np.abs(a - b), axis=1)
    i = int(np.argmax(m))
    worst = float(m[i])
    if worst > tol:
        raise NonIntegrable(worst, (float(probes[i, 0]), float(probes[i, 1])))
    return worst


def flow_order_mismatch(surf: Surface2D, gammas, mu, step=0.01, n_probe=5):
    """Worst swap-order defect of the defining flows at probe parameters;
    the construction itself enforces this below its tolerance, so this is
    the independent re-measurement."""
    field = _gamma_field(gammas, mu, surf.axes, surf.space, surf.tau_names)
    s_base = np.linalg.solve(surf.axes,
                             np.asarray(surf.provenance.tau_base, dtype=float))
    u0 = np.asarray(surf.provenance.u0, dtype=float)
    return _swap_order_check(surf, field, s_base, u0, step, tol=np.inf,
                             n_probe=n_probe)


def surface_tangency_residual(surf, gammas, mu, rng=None, n=25):
    """Max deviation of df/dtau from the mu-weighted gamma frame at random
    surface parameters (the defining property, sampled)."""
    rng = np.random.default_rng(rng)
    k = surf.k
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
    """Uniform batch interface over symbolic and quadrature potentials."""

    def __init__(self, phi, space: VarSpace):
        self.space = space
        self.phi = phi
        if isinstance(phi, Expr):
            self.symbolic = True
            self._kernel = compile_exprs(
                [phi] + [simplify(phi.diff(n)) for n in space.dependent])
        elif isinstance(phi, NumericPotential):
            self.symbolic = False
        else:
            raise TypeError(f"unsupported potential {phi!r}")

    def value(self, env):
        if self.symbolic:
            return self._kernel(env)[:, 0]
        n = max(np.shape(v)[0] if np.shape(v) else 1 for v in env.values())
        out = np.empty(n)
        for i in range(n):
            pt = {k: (float(v[i]) if np.shape(v) else float(v))
                  for k, v in env.items()}
            out[i] = self.phi.evaluate(pt)
        return out

    def du(self, env, h=1e-6):
        if self.symbolic:
            return self._kernel(env)[:, 1:]
        base = self.value(env)
        cols = []
        for name in self.space.dependent:
            up = dict(env)
            dn = dict(env)
            up[name] = np.asarray(env[name]) + h
            dn[name] = np.asarray(env[name]) - h
            cols.append((self.value(up) - self.value(dn)) / (2 * h))
        return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# the implicit solve

@dataclass
class SolutionField:
    space: VarSpace
    x_names: tuple
    x: np.ndarray          # (n, p)
    params: dict
    tau_names: tuple
    tau: np.ndarray        # (n, k)
    u: np.ndarray          # (n, q)
    iters: np.ndarray
    det_monitor: np.ndarray
    converged: np.ndarray
    catastrophe: np.ndarray
    resolver: object = None   # callable(env_x, initial_guess) -> SolutionField
    analytic_jacobian: object = None   # callable(point) -> (q, p), if known

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def k(self):
        return self.tau.shape[1]

    def point_env(self, idx):
        env = {name: float(self.x[idx, i]) for i, name in enumerate(self.x_names)}
        env.update(self.params)
        for j, name in enumerate(self.space.dependent):
            env[name] = float(self.u[idx, j])
        return env

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
        env[k] = np.broadcast_to(np.asarray(v, dtype=float), (n,))
    return env, n


def solve_implicit(surface, potentials, grid_env, cfg: ImplicitSolveConfig,
                   params=None, space=None):
    """Solve tau = phi(x, f(tau)) at every grid point.

    ``grid_env`` maps independent-variable names to equal-length arrays.
    ``space`` is the full analysis variable space (defaults to the
    surface's, which suffices only when it already lists the independent
    variables).  The scalar case scans ``cfg.tau_window`` for sign
    changes, selects a root per ``cfg.root_select``, and polishes by
    bisection; the multi-parameter case runs a damped, vectorized Newton
    iteration from the configured initial guess with warm-start retries
    from converged neighbors.  No point failure is fatal; SolveFailed is
    raised only when every point diverges.
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

    def phi_all(tau):
        u = surface.value(tau)
        env = dict(env_x)
        for j, name in enumerate(space.dependent):
            env[name] = u[:, j]
        vals = np.stack([p.value(env) for p in pots], axis=1)
        return vals, u, env

    def jacobian(tau, env):
        dfdtau = surface.jac(tau)                   # (n, q, k)
        dphi = np.stack([p.du(env) for p in pots], axis=1)  # (n, k, q)
        return np.eye(k)[None] - dphi @ dfdtau

    tau0 = _initial_guess(cfg, pots, surface, env_x, n, k)

    if k == 1:
        tau, iters, conv = _solve_scalar(surface, phi_all, tau0, cfg, n)
    else:
        tau, iters, conv = _newton(surface, phi_all, jacobian, tau0, cfg, n)
        if cfg.warm_start_retry and (~conv).any() and conv.any():
            bad = np.where(~conv)[0]
            good = np.where(conv)[0]
            guess = tau.copy()
            for b in bad:
                guess[b] = tau[good[np.argmin(np.abs(good - b))]]
            tau2, it2, conv2 = _newton(surface, phi_all, jacobian, guess, cfg, n,
                                       only=bad)
            tau[bad] = tau2[bad]
            iters[bad] += it2[bad]
            conv[bad] = conv2[bad]

    if not conv.any():
        raise SolveFailed("Newton diverged at every grid point")

    phi_vals, u, env = phi_all(tau)
    with np.errstate(invalid="ignore"):
        det = np.linalg.det(jacobian(tau, env))
    cat = np.abs(det) < cfg.catastrophe_threshold
    xs = np.stack([env_x[name] for name in x_names], axis=1)

    def resolver(new_grid_env, initial_guess=None):
        cfg2 = cfg
        if initial_guess is not None and k > 1 and conv.all():
            cfg2 = replace(cfg, initial_guess=initial_guess)
        return solve_implicit(surface, pots, new_grid_env, cfg2, params, space)

    return SolutionField(space=space, x_names=x_names, x=xs, params=params,
                         tau_names=surface.tau_names, tau=tau, u=u,
                         iters=iters, det_monitor=det, converged=conv,
                         catastrophe=cat & conv, resolver=resolver)


def _initial_guess(cfg, pots, surface, env_x, n, k):
    g = cfg.initial_guess
    if isinstance(g, str) and g == "potential_at_base":
        u0 = surface.provenance.u0
        env = dict(env_x)
        for j, name in enumerate(surface.space.dependent):
            env[name] = np.full(n, u0[j])
        return np.stack([p.value(env) for p in pots], axis=1)
    if callable(g):
        return np.asarray(g(env_x), dtype=float).reshape(n, k)
    arr = np.asarray(g, dtype=float)
    if arr.shape == (k,):
        return np.tile(arr, (n, 1))
    return arr.reshape(n, k)


def _newton(surface, phi_all, jacobian, tau0, cfg, n, only=None):
    tau = np.array(tau0, dtype=float)
    iters = np.zeros(n, dtype=int)
    conv = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    if only is not None:
        active[:] = False
        active[only] = True
    tau = surface.clip(tau)
    for it in range(cfg.max_iter):
        phi_vals, u, env = phi_all(tau)
        G = tau - phi_vals
        Gn = np.nanmax(np.abs(G), axis=1)
        newly = active & (Gn < cfg.newton_tol)
        conv |= newly
        active &= ~newly
        if not active.any():
            break
        J = jacobian(tau, env)
        delta = np.full_like(tau, np.nan)
        ok = np.all(np.isfinite(J), axis=(1, 2)) & np.all(np.isfinite(G), axis=1)
        solvable = ok & (np.abs(np.linalg.det(np.where(ok[:, None, None], J,
                                                       np.eye(tau.shape[1])))) > 1e-14)
        if solvable.any():
            delta[solvable] = np.linalg.solve(J[solvable],
                                              G[solvable][..., None])[..., 0]
        step = np.where((active & solvable)[:, None], delta, 0.0)
        scale = np.ones(n)
        trial = surface.clip(tau - scale[:, None] * step)
        for _ in range(cfg.damping_steps):
            phi_t, _, _ = phi_all(trial)
            Gt = np.nanmax(np.abs(trial - phi_t), axis=1)
            worse = active & ~(Gt <= Gn * (1 - 1e-4) + cfg.newton_tol)
            if not worse.any():
                break
            scale[worse] *= 0.5
            trial = surface.clip(tau - scale[:, None] * step)
        tau = np.where(active[:, None], trial, tau)
        iters[active] += 1
    return tau, iters, conv


def _solve_scalar(surface, phi_all, tau0, cfg, n):
    (lo, hi) = surface.tau_ranges[0]
    if cfg.tau_window is not None:
        lo = max(lo, cfg.tau_window[0])
        hi = min(hi, cfg.tau_window[1])
    if not lo < hi:
        raise SolverError("empty scan window")
    W = cfg.scan_points
    ws = np.linspace(lo, hi, W)
    Gm = np.empty((n, W))
    for j, w in enumerate(ws):
        phi_vals, _, _ = phi_all(np.full((n, 1), w))
        Gm[:, j] = w - phi_vals[:, 0]
    sign = np.sign(Gm)
    with np.errstate(invalid="ignore"):
        flips = (sign[:, :-1] * sign[:, 1:]) <= 0
    flips &= np.isfinite(Gm[:, :-1]) & np.isfinite(Gm[:, 1:])
    conv = flips.any(axis=1)
    tau = np.full((n, 1), np.nan)
    iters = np.zeros(n, dtype=int)
    if not conv.any():
        return tau, iters, conv

    idx = np.zeros(n, dtype=int)
    for i in np.where(conv)[0]:
        cand = np.where(flips[i])[0]
        if cfg.root_select == "lowest":
            idx[i] = cand[0]
        elif cfg.root_select == "highest":
            idx[i] = cand[-1]
        else:
            centers = 0.5 * (ws[cand] + ws[cand + 1])
            idx[i] = cand[np.argmin(np.abs(centers - tau0[i, 0]))]
    a = ws[idx].astype(float)
    b = ws[idx + 1].astype(float)
    ga = np.take_along_axis(Gm, idx[:, None], axis=1)[:, 0]
    act = conv.copy()
    for _ in range(90):
        mid = 0.5 * (a + b)
        phi_vals, _, _ = phi_all(mid[:, None])
        gm = mid - phi_vals[:, 0]
        left = ga * gm <= 0
        b = np.where(act & left, mid, b)
        a = np.where(act & ~left, mid, a)
        ga = np.where(act & ~left, gm, ga)
        iters[act] += 1
        if np.max(b[act] - a[act]) < 1e-14 * max(1.0, abs(hi), abs(lo)):
            break
    tau[conv, 0] = 0.5 * (a + b)[conv]
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

    def analytic_jacobian(point):
        yy = float(point["y"])
        return np.array([[0.0, 0.0, -1.0 / yy], [1.0, 0.0, 0.0]])

    return SolutionField(
        space=space, x_names=space.independent, x=xs, params={},
        tau_names=("taup", "taum"), tau=tau, u=u,
        iters=np.zeros(n, dtype=int), det_monitor=np.full(n, 2.0),
        converged=np.ones(n, dtype=bool), catastrophe=np.zeros(n, dtype=bool),
        resolver=resolver, analytic_jacobian=analytic_jacobian)
