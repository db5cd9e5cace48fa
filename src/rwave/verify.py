"""Independent numeric verification of solution fields.

Everything here works from finite differences of re-solved points, never
from the solver's own internals: residual reports against the defining
system, tangent-map recovery onto the wave dyads, rank estimation, and
constancy of u along the common kernel of the wave covectors.  Each
check makes one batched pass over the grid: stacked Jacobians, stacked
SVDs, and one re-solve per group of displaced grids.  The solver picks
where each displaced point starts, from the lane it was moved from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprmat
from .system import QuasilinearSystem


class VerifyError(Exception):
    pass


class NeighborDiverged(VerifyError):
    """A displaced re-solve needed for finite differences failed."""


class DegenerateElements(VerifyError):
    pass


SVD_GAP = 1e6  # sigma_i / sigma_{i+1} beyond this marks the rank cut
_RANK_FLOOR = 1e-12  # singular values at or below this never count
_CONSTANCY_TOL = 1e-6  # derivative of u along the kernel counted as zero
_GROUP_LANES = 4096  # lanes of a group of displaced grids per resolve


def fd_jacobian_batch(field, h):
    """Central-difference Jacobians du/dx for every grid point, re-solving
    whole displaced grids; each displaced lane starts as the solver picks
    for the lane it was moved from (see ``SolutionField.resolve``).
    Returns (n, q, p), the Richardson combination of steps h and h/2, an
    O(h^4) estimate.

    The displaced grids are re-solved in groups of consecutive grids of at
    most ``_GROUP_LANES`` lanes, one ``resolve`` per group: lanes share
    nothing in a solve but a k = 1 bisection's step count, where extra
    steps move no finished lane's tau, and a k >= 2 warm-start retry,
    which reads the nearest converged lane in the group's order.  A grid
    none of whose lanes converged fails as any failed lane does, with
    NeighborDiverged, unless its whole group failed.
    """
    names, n = field.x_names, field.n
    base = {nm: field.x[:, j] for j, nm in enumerate(names)}
    steps = (h, h / 2.0)
    # each step, each name, the grid displaced up then down
    moves = [(step, name, up) for step in steps for name in names
             for up in (True, False)]

    def displaced(step, name, up):
        return {**base, name: base[name] + step if up else base[name] - step}

    per = max(1, _GROUP_LANES // n)
    J = np.empty((len(steps), n, field.u.shape[1], len(names)))
    u, ok = [], []
    for first in range(0, len(moves), per):
        group = [displaced(*m) for m in moves[first:first + per]]
        env = {nm: np.concatenate([g[nm] for g in group]) for nm in names}
        sol = field.resolve(env, np.tile(np.arange(n), len(group)))
        u += np.split(sol.u, len(group))
        ok += np.split(sol.converged, len(group))
        # each pair of grids, up and down, once both are solved; its u is
        # let go once read
        for j in range(first // 2, len(ok) // 2):
            s, i = divmod(j, len(names))
            both = ok[2 * j] & ok[2 * j + 1]
            if not both.all():
                raise NeighborDiverged("displaced solve failed at point "
                                       f"{int(np.argmin(both))} along "
                                       f"{names[i]}")
            J[s, :, :, i] = (u[2 * j] - u[2 * j + 1]) / (2.0 * steps[s])
            u[2 * j] = u[2 * j + 1] = None
    return (4.0 * J[1] - J[0]) / 3.0


@dataclass
class ResidualReport:
    norms: np.ndarray
    max: float
    mean: float
    fd_step: float
    failures: list

    def as_dict(self):
        return {"max": self.max, "mean": self.mean, "fd_step": self.fd_step,
                "richardson": True,
                "n_points": int(self.norms.size),
                "failures": list(self.failures)}


def residual_report(sys: QuasilinearSystem, field, jac, h) -> ResidualReport:
    """Finite-difference residual of the system at every converged point.

    ``jac`` holds the (n, q, p) Jacobians from ``fd_jacobian_batch``, made
    with step ``h``, which the report records.
    """
    res = sys.residual_batch(field.grid_env(), jac)
    norms = np.max(np.abs(res), axis=1)
    failures = [int(i) for i in np.where(~field.converged)[0]]
    ok = field.converged
    return ResidualReport(norms=norms, max=float(np.max(norms[ok])),
                          mean=float(np.mean(norms[ok])), fd_step=h,
                          failures=failures)


@dataclass
class DecompositionRecovery:
    """The recovery at n points; every field has a leading axis of length
    n."""

    xi: np.ndarray
    reconstruction_error: float
    rank: int


def estimate_rank(singular_values):
    """Per row of a stack (n, m) of singular values, the count of leading
    ones above ``_RANK_FLOOR`` with no ratio to the predecessor beyond
    ``SVD_GAP``."""
    s = np.asarray(singular_values, dtype=float)
    keep = s > _RANK_FLOOR
    with np.errstate(over="ignore"):
        keep[:, 1:] &= s[:, :-1] / np.maximum(s[:, 1:], 1e-300) <= SVD_GAP
    return np.cumprod(keep, axis=1).sum(axis=1)


def recover_decomposition(jac, elements, env) -> DecompositionRecovery:
    """Least-squares xi with jac ~ sum_sigma xi^sigma gamma_sigma (x) lam^sigma.

    ``jac`` is a stack (n, q, p) of Jacobians, with ``env`` values of
    shape (n,).  Each lam and gamma is evaluated once over the stack; one
    stacked SVD of the dyad matrix (``exprmat.lstsq_stack``) gives both
    the independence guard and the least-squares solution.
    The rank estimate comes from the SVD gap of each Jacobian itself.
    Raises DegenerateElements naming the first point whose dyads are
    linearly dependent.
    """
    J = np.asarray(jac, dtype=float)
    n, q, p = J.shape
    cols = []
    for e in elements:
        lam = exprmat.eval_vector(e.lam, env)
        gam = exprmat.eval_vector(e.gamma, env)
        cols.append((gam[:, :, None] * lam[:, None, :]).reshape(n, q * p))
    G = np.stack(cols, axis=2)                       # (n, q*p, k)
    b = J.reshape(n, q * p)
    # each distinct (G, b) is solved once, in order of first appearance, so
    # the first dependent one is at the first dependent grid index
    first, inverse = exprmat.distinct_rows(
        np.concatenate([G.reshape(n, -1), b], axis=1))
    G, b = G[first], b[first]
    xi, bad = exprmat.lstsq_stack(G, b, 1e-10)
    if bad is not None:
        raise DegenerateElements("wave dyads are linearly dependent at grid "
                                 f"index {int(first[bad])}")
    err = np.linalg.norm(np.einsum("nij,nj->ni", G, xi) - b, axis=1)
    rank = estimate_rank(np.linalg.svd(J[first], compute_uv=False))
    return DecompositionRecovery(xi=xi[inverse],
                                 reconstruction_error=err[inverse],
                                 rank=rank[inverse])


def constancy_along_kernel(field, elements, indices, h):
    """Derivative of u along the common kernel of the wave covectors at
    the grid points ``indices``, by re-solving points displaced by ``h``.

    The kernel at each sample comes from one stacked SVD of the covector
    rows; every displaced point, sample x kernel direction x +-h, is
    re-solved in one grid, started as the solver picks for its sample's
    lane (see ``SolutionField.resolve``).
    Returns (holds, max_derivative).  Vacuously true when the covectors
    span the whole cotangent space.
    """
    idx = np.asarray(list(indices), dtype=int)
    p = len(field.x_names)
    env = {k: v[idx] for k, v in field.grid_env().items()}
    lam_rows = np.stack([exprmat.eval_vector(e.lam, env)
                         for e in elements], axis=1)   # (m, k, p)
    _, s, vt = np.linalg.svd(lam_rows)
    ker_dim = p - np.sum(s > 1e-10 * np.maximum(s[:, :1], 1.0), axis=1)
    kernel = np.arange(p) >= (p - ker_dim)[:, None]  # last rows of vt
    owner, theta = np.nonzero(kernel)[0], vt[kernel]
    if owner.size == 0:
        return True, 0.0
    theta = theta / np.linalg.norm(theta, axis=1, keepdims=True)
    base = field.x[idx[owner]]
    pts = np.concatenate([base + h * theta, base - h * theta])
    sol = field.resolve({nm: pts[:, j] for j, nm in enumerate(field.x_names)},
                        np.tile(idx[owner], 2))
    m = owner.size
    ok = sol.converged[:m] & sol.converged[m:]
    if not ok.all():
        raise NeighborDiverged("displaced solve failed at index "
                               f"{int(idx[owner[np.argmin(ok)]])}")
    worst = float(np.max(np.abs(sol.u[:m] - sol.u[m:]))) / (2 * h)
    return worst <= _CONSTANCY_TOL, worst
