"""Command-line pipeline: system file -> homogenization -> wave elements
-> existence conditions -> frame rescaling -> implicit solve -> numeric
verification, with reports and solution grids written per stage.

Exit codes: 0 all requested stages succeeded; 2 file, parse, or request
errors; 3 a mathematical condition failed (the report carries the
witness); 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import exprmat, ode, reports
from .expr import Box, Const, ExprError, ParseError, VarSpace, parse, simplify
from .fixtures import PRESETS, SYSTEMS, load_fixture, system_from_dict, system_to_dict
from .frobenius import FrobeniusError, commutation_residual, rescale_frame
from .geometry import (
    GeometryError,
    WaveElement,
    check_kwave_conditions,
    find_potential,
    kernel_elements,
)
from .solver import (
    ImplicitSolveConfig,
    SolverError,
    build_hodograph,
    integrate_characteristic,
    solve_implicit,
)
from .system import SystemError, homogenize, homogenizing_variable
from .verify import (
    DegenerateElements,
    NeighborDiverged,
    constancy_along_kernel,
    fd_jacobian_batch,
    recover_decomposition,
    residual_report,
)

PIPELINE = ("homogenize", "elements", "conditions", "rescale", "solve", "verify")

EXIT_OK = 0
EXIT_REQUEST = 2
EXIT_CONDITION = 3
EXIT_SOLVER = 4


class RequestError(Exception):
    pass


# the solver-config keys that the solve stage reads, the ImplicitSolveConfig
# fields among them first
_SOLVE_KEYS = ("initial_guess", "tau_window", "root_select")
_SOLVER_KEYS = frozenset((*_SOLVE_KEYS, "u0", "s_range", "s0", "grid_step",
                          "gamma_scale", "mu", "tau_base", "axis_ranges",
                          "axes"))


@dataclass
class AnalysisRequest:
    system: str                      # path or bundled fixture name
    domain: dict                     # name -> (lo, hi)
    stages: tuple
    grid: dict                       # name -> (lo, hi, count)
    out_dir: str
    seed: int = 0
    lambdas: list = field(default_factory=list)   # ansatz covector strings
    parameters: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    homogenize_var: str | None = None
    tol_newton: float = 1e-12
    tol_zero: float = 1e-9
    fd_step: float = 1e-4
    trials: int = 32

    def validate(self):
        if tuple(self.stages) != PIPELINE[:len(self.stages)]:
            raise RequestError(
                f"stages must form a prefix of {list(PIPELINE)}, got "
                f"{list(self.stages)}")
        if any(count <= 0 for _, _, count in self.grid.values()) or (
                "solve" in self.stages and not self.grid):
            raise RequestError("empty grid")
        if not all(math.isfinite(b) for lo_hi in (
                *self.domain.values(), *self.grid.values()) for b in lo_hi[:2]):
            raise RequestError("--domain and --grid bounds must be finite")
        if not all(math.isfinite(v) for v in self.parameters.values()):
            raise RequestError("--param values must be finite")
        if not all(math.isfinite(v) and v > 0 for v in (
                self.tol_newton, self.tol_zero, self.fd_step, self.trials)):
            raise RequestError("--tol-newton, --tol-zero, --fd-step and "
                               "--trials must be positive")
        if not isinstance(self.solver, dict):
            raise RequestError("the solver config must be a JSON object")
        unread = set(self.solver) - _SOLVER_KEYS
        if unread:
            raise RequestError(f"the solver config has keys no stage reads "
                               f"{sorted(map(str, unread))}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise RequestError(f"--seed must be a non-negative integer, got "
                               f"{self.seed!r}")


def load_system(spec: str):
    """A bundled fixture name, or a path to a JSON system definition."""
    if spec in SYSTEMS:
        return load_fixture(spec), PRESETS.get(spec, {})
    path = Path(spec)
    if not path.exists():
        raise RequestError(f"system file '{spec}' not found")
    try:
        return system_from_dict(json.loads(path.read_text())), {}
    except (ParseError, ValueError, KeyError) as err:
        raise RequestError(f"system file '{spec}': {err}")


def describe(spec: str) -> str:
    sys_obj, _ = load_system(spec)
    space = sys_obj.space
    homogeneous = sys_obj.is_homogeneous()
    lines = [
        f"p={space.p} ({', '.join(space.independent)}), q={space.q} "
        f"({', '.join(space.dependent)}), m={sys_obj.m}",
        "homogeneous" if homogeneous else "inhomogeneous",
    ]
    if space.parameters:
        lines.append(f"parameters: {', '.join(space.parameters)}")
    ident = exprmat.identity(space.q)
    for i, A in enumerate(sys_obj.coeffs):
        if tuple(tuple(simplify(e) for e in row) for row in A) == ident:
            lines.append(f"evolutionary in {space.independent[i]}")
            break
    return "\n".join(lines)


def _grid_env(grid):
    axes = {name: np.linspace(lo, hi, int(n)) for name, (lo, hi, n)
            in grid.items()}
    names = list(axes)
    mesh = np.meshgrid(*[axes[n] for n in names], indexing="ij")
    return {n: m.ravel() for n, m in zip(names, mesh)}


class _Run:
    """What the stages share: the request with its presets merged in, and
    the results of the stages run so far.  Construction makes the request
    checks, raising RequestError before any file is written."""

    def __init__(self, request: AnalysisRequest):
        request.validate()
        self.request = request
        self.system, self.preset = load_system(request.system)
        space = self.system.space
        undeclared = set(request.parameters) - set(space.parameters)
        if undeclared:
            raise RequestError(f"--param names undeclared parameters "
                               f"{sorted(undeclared)}")
        new_var = request.homogenize_var or self.preset.get("homogenize_var")
        undeclared = (set(request.domain) - set(space.all_names)
                      - {homogenizing_variable(space, new_var)})
        if undeclared:
            raise RequestError(f"--domain names undeclared variables "
                               f"{sorted(undeclared)}")
        domain = {**self.preset.get("domain", {}), **request.domain}
        if not domain:
            raise RequestError("no domain box given")
        try:
            self.box = Box.from_dict(domain)
        except ValueError as err:
            raise RequestError(f"domain: {err}") from err
        self.out = Path(request.out_dir)
        # a child per stage, in pipeline order, and the potentials step's
        # last: a child's stream depends only on its index
        names = PIPELINE + ("potentials",)
        seeds = np.random.SeedSequence(request.seed).spawn(len(names))
        self.seed_of = dict(zip(names, seeds))
        self.artifacts, self.elements, self.potentials = {}, [], []
        self.solution = None

    def rng(self, stage):
        return np.random.default_rng(self.seed_of[stage])


def _homogenize(st):
    res = homogenize(st.system, box=st.box, rng=st.rng("homogenize"),
                     new_var=st.request.homogenize_var
                     or st.preset.get("homogenize_var"))
    st.artifacts["homogenized_system"] = reports.write_json(
        st.out / "homogenized_system.json", system_to_dict(res.system))
    reports.write_json(st.out / "homogenization.json", {
        "all_sources_zero": res.all_sources_zero,
        "new_variable": res.substitution.new_var,
        "shifted_dependent": res.substitution.shifted_dependent,
        "row_permutation": list(res.substitution.row_permutation),
        "m_matrix": [[str(e) for e in row] for row in res.m_matrix],
    })
    if not res.all_sources_zero:
        st.system = res.system


def _elements(st):
    lambdas = st.request.lambdas or st.preset.get("lambdas", [])
    if not lambdas:
        raise RequestError("needs a wave-covector ansatz (--covector)")
    rng = st.rng("elements")
    space = st.system.space
    for idx, lam_strings in enumerate(lambdas):
        lam = tuple(parse(s, space) for s in lam_strings)
        try:
            kers = kernel_elements(st.system, lam, st.box, rng=rng,
                                   trials=st.request.trials)
        except (GeometryError, ValueError) as err:  # a bad ansatz
            raise RequestError(str(err)) from err
        st.elements.append(WaveElement(space, lam, kers[0], label=f"w{idx}"))
    st.artifacts["elements"] = reports.write_json(st.out / "elements.json", {
        "elements": [{"label": e.label, "lambda": [str(x) for x in e.lam],
                      "gamma": [str(g) for g in e.gamma]}
                     for e in st.elements]})


def _conditions(st):
    report = check_kwave_conditions(st.system, st.elements, st.box,
                                    rng=st.rng("conditions"),
                                    trials=st.request.trials)
    st.artifacts["conditions"] = reports.write_json(
        st.out / "conditions.json",
        reports.condition_report_payload(report, st.box,
                                         [e.label for e in st.elements],
                                         f"request:{st.request.seed}"))
    if not report.all_hold():
        raise GeometryError("a k-wave existence condition failed; see "
                            "conditions.json")


def _potentials(st):
    rng = st.rng("potentials")
    base = st.box.midpoint()
    for elem in st.elements:
        st.potentials.append(find_potential(elem, base, st.box, rng=rng,
                                            trials=st.request.trials))


def _rescale(st):
    dep = st.system.space.dependent
    gammas = [p.element.gamma for p in st.potentials]
    payload = {"fields": len(gammas)}
    failure = None
    if len(gammas) < 2:
        payload["result"] = "single field; identity rescaling"
    elif any(set().union(*(g.variables() for g in gamma)) - set(dep)
             for gamma in gammas):
        payload["result"] = ("skipped: frame depends on independent "
                             "variables; rescale applies per fixed x")
    else:
        rng = st.rng("rescale")
        try:
            resc = rescale_frame(gammas, dep, st.box.restrict(dep), rng=rng)
            payload["result"] = "rescaled"
            payload.update(resc.serializable())
            payload["commutation_max"] = commutation_residual(
                resc.scaled_fields(), resc.box, rng=rng)
        except FrobeniusError as err:
            payload["result"] = f"failed: {err}"
            failure = err
    st.artifacts["rescaling"] = reports.write_json(st.out / "rescaling.json",
                                                   payload)
    if failure:
        raise failure


def _solve(st):
    independent = st.system.space.independent   # homogenize may add one
    if set(st.request.grid) != set(independent):
        raise RequestError(f"grid axes {list(st.request.grid)} must be the "
                           f"independent variables {list(independent)}")
    cfg = {**st.preset.get("solver", {}), **st.request.solver}
    try:
        # the settings are checked before the surface is built
        solve_cfg = ImplicitSolveConfig(
            newton_tol=st.request.tol_newton,
            **{key: cfg[key] for key in _SOLVE_KEYS if key in cfg})
        surface = _build_surface(st.system, st.potentials, cfg)
        st.solution = solve_implicit(
            surface, [p.phi for p in st.potentials],
            _grid_env(st.request.grid), solve_cfg,
            params={**st.preset.get("parameters", {}), **st.request.parameters},
            space=st.system.space)
    except (KeyError, ValueError, IndexError, TypeError) as err:  # bad settings
        raise SolverError(f"{type(err).__name__}: {err}") from err
    conv = st.solution.converged
    if not conv.all() or "verify" not in st.request.stages:
        st.artifacts["solution"] = reports.write_solution_field(
            st.out / "solution.csv", st.solution)
    if not conv.all():
        raise SolverError(f"{int((~conv).sum())} of {conv.size} grid points "
                          "diverged")
    return f"{int(conv.sum())}/{conv.size}"


def _verify(st):
    sol, h = st.solution, st.request.fd_step
    elements = [p.element for p in st.potentials]
    sample = st.rng("verify").choice(sol.n, size=min(sol.n, 20),
                                     replace=False)
    try:
        jacs = fd_jacobian_batch(sol, h=h)
        rep = residual_report(st.system, sol, jacs, h=h)
        rec = recover_decomposition(jacs, elements, sol.grid_env())
        const_ok, const_worst = constancy_along_kernel(sol, elements, sample,
                                                       h)
    except (NeighborDiverged, DegenerateElements):
        st.artifacts["solution"] = reports.write_solution_field(
            st.out / "solution.csv", sol)
        raise
    st.artifacts["verification"] = reports.write_json(
        st.out / "verification.json", {
            "residual": rep.as_dict(),
            "xi_mean": [float(v) for v in rec.xi.mean(axis=0)],
            "xi_min": [float(v) for v in rec.xi.min(axis=0)],
            "xi_max": [float(v) for v in rec.xi.max(axis=0)],
            "xi_spread": [float(v) for v in np.ptp(rec.xi, axis=0)],
            "rank_min": int(rec.rank.min()), "rank_max": int(rec.rank.max()),
            "reconstruction_error_max": float(rec.reconstruction_error.max()),
            "constancy_along_kernel": {"holds": bool(const_ok),
                                       "max_derivative": float(const_worst)},
        })
    st.artifacts["solution"] = reports.write_solution_field(
        st.out / "solution.csv", sol, residual_norms=rep.norms)
    if not (rep.max < 1e-6 and const_ok and not rep.failures):
        raise GeometryError(
            f"verification missed its bounds: residual max {rep.max:.3e} "
            f"(bound 1e-6), u constant along the kernel: {bool(const_ok)}, "
            f"unconverged points: {len(rep.failures)}")


# (name, stage, the requested stage that makes it run); the potentials
# are found whenever the frame is rescaled, and are reported only on failure
STAGES = (("homogenize", _homogenize, "homogenize"),
          ("elements", _elements, "elements"),
          ("conditions", _conditions, "conditions"),
          ("potentials", _potentials, "rescale"),
          ("rescale", _rescale, "rescale"),
          ("solve", _solve, "solve"),
          ("verify", _verify, "verify"))

EXIT_CODES = {RequestError: EXIT_REQUEST, ExprError: EXIT_REQUEST,
              SystemError: EXIT_REQUEST, GeometryError: EXIT_CONDITION,
              FrobeniusError: EXIT_CONDITION,
              DegenerateElements: EXIT_CONDITION, SolverError: EXIT_SOLVER,
              NeighborDiverged: EXIT_SOLVER, ode.StiffnessAbort: EXIT_SOLVER}


def run(request: AnalysisRequest):
    """Execute the requested pipeline prefix; returns (exit_code, artifacts).

    A request error found before the first stage writes nothing.  Every
    later exit writes outcomes.json, naming the failed stage and its
    message, and then metadata.json with each stage's wall time."""
    try:
        st = _Run(request)
        st.out.mkdir(parents=True, exist_ok=True)
    except (RequestError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_REQUEST, {}
    reports.write_json(st.out / "request.json",
                       {k: v for k, v in asdict(request).items()
                        if k != "out_dir"})
    code, outcomes, seconds = EXIT_OK, {}, {}
    try:
        for name, stage, needed_by in STAGES:
            if needed_by not in request.stages:
                continue
            t0 = time.perf_counter()
            try:
                detail = stage(st)
            except tuple(EXIT_CODES) as err:
                print(f"{name}: {err}", file=sys.stderr)
                outcomes[name] = {"ok": False, "detail": str(err)}
                code = next(c for cls, c in EXIT_CODES.items()
                            if isinstance(err, cls))
                break
            finally:
                seconds[name] = time.perf_counter() - t0
            if name in request.stages:
                outcomes[name] = {"ok": True, "detail": detail or ""}
    finally:
        reports.write_json(st.out / "outcomes.json", outcomes)
        reports.write_metadata(st.out / "metadata.json",
                               {"system": request.system,
                                "stage_seconds": seconds})
    return code, st.artifacts


def _build_surface(system, potentials, solver_cfg):
    """Hodograph surface from the solver settings (bundled with fixtures,
    or user-supplied via --solver-config)."""
    k = len(potentials)
    space = system.space
    if k == 1:
        scale = Const(float(solver_cfg.get("gamma_scale", 1.0)))
        gamma = tuple(simplify(scale * g) for g in potentials[0].element.gamma)
        return integrate_characteristic(
            gamma, solver_cfg["u0"], solver_cfg["s_range"],
            step=solver_cfg.get("grid_step", 0.01), space=space,
            s0=solver_cfg.get("s0"))
    if k == 2:
        tau_names = ("tau1", "tau2")
        tau_space = VarSpace((), (), tau_names)
        mu = [[parse(str(e), tau_space) for e in row]
              for row in solver_cfg["mu"]]
        gammas = [p.element.gamma for p in potentials]
        return build_hodograph(
            gammas, mu, solver_cfg["u0"], solver_cfg["tau_base"],
            solver_cfg["axis_ranges"], step=solver_cfg.get("grid_step", 0.02),
            space=space, tau_names=tau_names, axes=solver_cfg.get("axes"))
    raise SolverError("solve stage supports one or two wave elements")


# ---------------------------------------------------------------------------
# argument handling

def _parse_ranges(text, with_count=False):
    out = {}
    if not text:
        return out
    for part in text.split(","):
        name, _, spec = part.partition("=")
        name, bits = name.strip(), spec.split(":")
        if name in out:
            raise RequestError(f"{'grid' if with_count else 'domain'} names "
                               f"'{name}' twice")
        if with_count:
            if len(bits) != 3:
                raise RequestError(f"grid entry '{part}' must be name=lo:hi:count")
            out[name] = (float(bits[0]), float(bits[1]), int(bits[2]))
        else:
            if len(bits) != 2:
                raise RequestError(f"domain entry '{part}' must be name=lo:hi")
            out[name] = (float(bits[0]), float(bits[1]))
    return out


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rwave",
        description="construct and verify Riemann wave solutions of "
                    "first-order quasilinear systems")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("describe", help="summarize a system definition")
    d.add_argument("--system", required=True,
                   help="path to a system JSON file or a bundled fixture name")

    r = sub.add_parser("run", help="run the analysis pipeline")
    r.add_argument("--system", required=True)
    r.add_argument("--domain", default="",
                   help="box spec, e.g. t=1:3,y=0.2:0.9,u1=0.25:4")
    r.add_argument("--stages", default=",".join(PIPELINE),
                   help="comma list forming a prefix of: " + ",".join(PIPELINE))
    r.add_argument("--grid", default="",
                   help="grid spec, e.g. t=1:3:20,x=1:3:20,y=0.2:0.9:20")
    r.add_argument("--seed", type=int, default=AnalysisRequest.seed)
    r.add_argument("--out", required=True)
    r.add_argument("--covector", action="append", default=[],
                   help="wave covector ansatz as comma-joined expressions; "
                        "repeat per element")
    r.add_argument("--param", action="append", default=[],
                   help="parameter value name=value; repeatable")
    r.add_argument("--solver-config", default=None,
                   help="JSON file with surface/solve settings")
    r.add_argument("--homogenize-var", default=None)
    r.add_argument("--tol-newton", type=float, default=AnalysisRequest.tol_newton)
    r.add_argument("--tol-zero", type=float, default=AnalysisRequest.tol_zero)
    r.add_argument("--fd-step", type=float, default=AnalysisRequest.fd_step)
    r.add_argument("--trials", type=int, default=AnalysisRequest.trials)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "describe":
        try:
            print(describe(args.system))
        except RequestError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_REQUEST
        return EXIT_OK

    try:
        solver_cfg = {}
        if args.solver_config:
            solver_cfg = json.loads(Path(args.solver_config).read_text())
        params = {}
        for kv in args.param:
            name, sep, val = kv.partition("=")
            name = name.strip()
            if not (sep and name):
                raise RequestError(f"--param {kv!r} must be name=value")
            if name in params:
                raise RequestError(f"--param names '{name}' twice")
            params[name] = float(val)
        request = AnalysisRequest(
            system=args.system,
            domain=_parse_ranges(args.domain),
            stages=tuple(s.strip() for s in args.stages.split(",") if s.strip()),
            grid=_parse_ranges(args.grid, with_count=True) if args.grid else
            {k: tuple(v) for k, v in
             PRESETS.get(args.system, {}).get("grid", {}).items()},
            out_dir=args.out,
            seed=args.seed,
            lambdas=[c.split(",") for c in args.covector],
            parameters=params,
            solver=solver_cfg,
            homogenize_var=args.homogenize_var,
            tol_newton=args.tol_newton,
            tol_zero=args.tol_zero,
            fd_step=args.fd_step,
            trials=args.trials,
        )
    except (RequestError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_REQUEST

    code, _ = run(request)
    return code


if __name__ == "__main__":
    sys.exit(main())
