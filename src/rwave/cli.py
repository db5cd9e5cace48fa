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
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import exprmat, reports
from .expr import Box, Const, ParseError, VarSpace, parse, simplify
from .fixtures import PRESETS, SYSTEMS, load_fixture, system_from_dict, system_to_dict
from .frobenius import FrobeniusError, rescale_frame
from .geometry import (
    GeometryError,
    NumericKernelSampler,
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
from .system import SystemError, homogenize
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
        for name, (lo, hi, count) in self.grid.items():
            if count <= 0:
                raise RequestError("empty grid")

    def as_dict(self):
        return {
            "system": self.system, "domain": {k: list(v) for k, v in
                                              sorted(self.domain.items())},
            "stages": list(self.stages),
            "grid": {k: list(v) for k, v in sorted(self.grid.items())},
            "seed": self.seed, "lambdas": self.lambdas,
            "parameters": dict(sorted(self.parameters.items())),
            "solver": self.solver, "homogenize_var": self.homogenize_var,
            "tol_newton": self.tol_newton, "tol_zero": self.tol_zero,
            "fd_step": self.fd_step, "trials": self.trials,
        }


def load_system(spec: str):
    """A bundled fixture name, or a path to a JSON system definition."""
    if spec in SYSTEMS:
        return load_fixture(spec), PRESETS.get(spec, {})
    path = Path(spec)
    if not path.exists():
        raise RequestError(f"system file '{spec}' not found")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise RequestError(f"system file '{spec}': {err}")
    try:
        return system_from_dict(data), {}
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


@dataclass
class StageOutcome:
    ok: bool
    detail: str = ""


def run(request: AnalysisRequest):
    """Execute the requested pipeline prefix; returns (exit_code, artifacts)."""
    try:
        request.validate()
        system, preset = load_system(request.system)
    except RequestError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_REQUEST, {}

    out = Path(request.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    reports.write_metadata(out / "metadata.json", {"system": request.system})
    reports.write_json(out / "request.json", request.as_dict())

    solver_cfg = dict(preset.get("solver", {}))
    solver_cfg.update(request.solver or {})
    lambdas = request.lambdas or preset.get("lambdas", [])
    params = dict(preset.get("parameters", {}))
    params.update(request.parameters or {})
    domain = dict(preset.get("domain", {}))
    domain.update(request.domain or {})
    if not domain:
        print("error: no domain box given", file=sys.stderr)
        return EXIT_REQUEST, {}
    box = Box.from_dict(domain)
    seeds = np.random.SeedSequence(request.seed).spawn(len(PIPELINE))
    seed_of = {stage: seeds[i] for i, stage in enumerate(PIPELINE)}
    outcomes = {}

    def finish(code):
        reports.write_json(out / "outcomes.json",
                           {k: {"ok": v.ok, "detail": v.detail}
                            for k, v in outcomes.items()})
        return code, artifacts

    def fail(stage, code, err):
        print(f"{stage}: {err}", file=sys.stderr)
        outcomes[stage] = StageOutcome(False, str(err))
        return finish(code)

    work_system = system
    if "homogenize" in request.stages:
        try:
            res = homogenize(system, box=box,
                             rng=np.random.default_rng(seed_of["homogenize"]),
                             new_var=request.homogenize_var
                             or preset.get("homogenize_var"))
        except SystemError as err:
            return fail("homogenize", EXIT_REQUEST, err)
        artifacts["homogenized_system"] = reports.write_json(
            out / "homogenized_system.json", system_to_dict(res.system))
        reports.write_json(out / "homogenization.json", {
            "all_sources_zero": res.all_sources_zero,
            "new_variable": res.substitution.new_var,
            "shifted_dependent": res.substitution.shifted_dependent,
            "row_permutation": list(res.substitution.row_permutation),
            "m_matrix": [[str(e) for e in row] for row in res.m_matrix],
        })
        outcomes["homogenize"] = StageOutcome(True)
        if not res.all_sources_zero:
            work_system = res.system

    elements = []
    if "elements" in request.stages:
        if not lambdas:
            return fail("elements", EXIT_REQUEST,
                        "needs a wave-covector ansatz (--covector)")
        rng = np.random.default_rng(seed_of["elements"])
        payload = []
        try:
            for idx, lam_strings in enumerate(lambdas):
                lam = tuple(parse(s, work_system.space) for s in lam_strings)
                kers = kernel_elements(work_system, lam, box, rng=rng,
                                       trials=request.trials)
                if isinstance(kers, NumericKernelSampler):
                    raise GeometryError(
                        "kernel is only available as a numeric sampler; "
                        "supply a symbolic ansatz for the solve stages")
                elem = WaveElement(work_system.space, lam, kers[0],
                                   label=f"w{idx}")
                elements.append(elem)
                payload.append({
                    "label": elem.label,
                    "lambda": [str(e) for e in lam],
                    "gamma": [str(e) for e in elem.gamma],
                })
        except (ParseError, GeometryError) as err:
            return fail("elements", EXIT_REQUEST, err)
        artifacts["elements"] = reports.write_json(out / "elements.json",
                                                   {"elements": payload})
        outcomes["elements"] = StageOutcome(True)

    if "conditions" in request.stages:
        rng = np.random.default_rng(seed_of["conditions"])
        try:
            report = check_kwave_conditions(work_system, elements, box,
                                            rng=rng, trials=request.trials)
        except GeometryError as err:
            return fail("conditions", EXIT_CONDITION, err)
        artifacts["conditions"] = reports.write_json(
            out / "conditions.json",
            reports.condition_report_payload(report, box,
                                             [e.label for e in elements],
                                             seed_label=f"request:{request.seed}"))
        ok = report.all_hold()
        outcomes["conditions"] = StageOutcome(ok)
        if not ok:
            print("conditions: a k-wave existence condition failed; see "
                  "conditions.json", file=sys.stderr)
            return EXIT_CONDITION, artifacts

    potentials = []
    if len(request.stages) >= 4:  # rescale and beyond need potentials
        rngp = np.random.default_rng(seed_of["conditions"])
        base = box.midpoint()
        try:
            for elem in elements:
                potentials.append(find_potential(elem, base, box, rng=rngp,
                                                 trials=request.trials))
        except GeometryError as err:
            return fail("potentials", EXIT_CONDITION, err)

    if "rescale" in request.stages:
        rng = np.random.default_rng(seed_of["rescale"])
        dep = work_system.space.dependent
        gammas = [p.element.gamma for p in potentials]
        payload = {"fields": len(gammas)}
        ok = True
        if len(gammas) < 2:
            payload["result"] = "single field; identity rescaling"
        elif any(set().union(*(g.variables() for g in gamma)) -
                 set(dep) for gamma in gammas):
            payload["result"] = ("skipped: frame depends on independent "
                                 "variables; rescale applies per fixed x")
        else:
            try:
                resc = rescale_frame(gammas, dep, box.restrict(dep), rng=rng)
                payload["result"] = "rescaled"
                payload.update(resc.serializable())
            except FrobeniusError as err:
                payload["result"] = f"failed: {err}"
                ok = False
        artifacts["rescaling"] = reports.write_json(out / "rescaling.json",
                                                    payload)
        outcomes["rescale"] = StageOutcome(ok)
        if not ok:
            return EXIT_CONDITION, artifacts

    field_solution = None
    if "solve" in request.stages:
        rng = np.random.default_rng(seed_of["solve"])
        grid_env = _grid_env(request.grid)
        n_points = len(next(iter(grid_env.values()), []))
        if n_points == 0:
            print("error: empty grid", file=sys.stderr)
            return EXIT_REQUEST, artifacts
        try:
            surface = _build_surface(work_system, potentials, solver_cfg)
            cfg = ImplicitSolveConfig(
                newton_tol=request.tol_newton,
                initial_guess=solver_cfg.get("initial_guess",
                                             "potential_at_base"),
                tau_window=tuple(solver_cfg["tau_window"])
                if solver_cfg.get("tau_window") else None,
                root_select=solver_cfg.get("root_select", "nearest"))
            field_solution = solve_implicit(
                surface, [p.phi for p in potentials], grid_env, cfg,
                params=params, space=work_system.space)
        except (SolverError, KeyError, ValueError) as err:
            print(f"solve: {err}", file=sys.stderr)
            return EXIT_SOLVER, artifacts
        conv = field_solution.converged
        outcomes["solve"] = StageOutcome(bool(conv.all()),
                                         f"{int(conv.sum())}/{conv.size}")
        if not conv.all():
            artifacts["solution"] = reports.write_solution_field(
                out / "solution.csv", field_solution)
            print(f"solve: {int((~conv).sum())} grid points diverged",
                  file=sys.stderr)
            return EXIT_SOLVER, artifacts

    if "verify" in request.stages and field_solution is not None:
        rng = np.random.default_rng(seed_of["verify"])
        elements_final = [p.element for p in potentials]
        sample = rng.choice(field_solution.n, size=min(field_solution.n, 20),
                            replace=False)
        try:
            jacs = fd_jacobian_batch(field_solution, h=request.fd_step,
                                     richardson=True)
            rep = residual_report(work_system, field_solution,
                                  h=request.fd_step, richardson=True, jac=jacs)
            rec = recover_decomposition(jacs, elements_final,
                                        field_solution.grid_env())
            const_ok, const_worst = constancy_along_kernel(
                field_solution, elements_final, indices=sample,
                h=request.fd_step)
        except (NeighborDiverged, DegenerateElements) as err:
            artifacts["solution"] = reports.write_solution_field(
                out / "solution.csv", field_solution)
            code = (EXIT_SOLVER if isinstance(err, NeighborDiverged)
                    else EXIT_CONDITION)
            return fail("verify", code, err)
        payload = {
            "residual": rep.as_dict(),
            "xi_mean": [float(v) for v in rec.xi.mean(axis=0)],
            "xi_min": [float(v) for v in rec.xi.min(axis=0)],
            "xi_max": [float(v) for v in rec.xi.max(axis=0)],
            "xi_spread": [float(v) for v in np.ptp(rec.xi, axis=0)],
            "rank_min": int(rec.rank.min()), "rank_max": int(rec.rank.max()),
            "reconstruction_error_max": float(rec.reconstruction_error.max()),
            "constancy_along_kernel": {"holds": bool(const_ok),
                                       "max_derivative": float(const_worst)},
        }
        artifacts["verification"] = reports.write_json(
            out / "verification.json", payload)
        artifacts["solution"] = reports.write_solution_field(
            out / "solution.csv", field_solution, residual_norms=rep.norms)
        outcomes["verify"] = StageOutcome(
            rep.max < 1e-6 and const_ok and not rep.failures)
    elif field_solution is not None:
        artifacts["solution"] = reports.write_solution_field(
            out / "solution.csv", field_solution)

    return finish(EXIT_OK if all(v.ok for v in outcomes.values())
                  else EXIT_CONDITION)


def _build_surface(system, potentials, solver_cfg):
    """Hodograph surface from the solver settings (bundled with fixtures,
    or user-supplied via --solver-config)."""
    k = len(potentials)
    space = system.space
    u_space = VarSpace((), space.dependent, space.parameters)
    if k == 1:
        scale = Const(float(solver_cfg.get("gamma_scale", 1.0)))
        gamma = tuple(simplify(scale * g) for g in potentials[0].element.gamma)
        return integrate_characteristic(
            gamma, None, solver_cfg["u0"], solver_cfg["s_range"],
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
        bits = spec.split(":")
        if with_count:
            if len(bits) != 3:
                raise RequestError(f"grid entry '{part}' must be name=lo:hi:count")
            out[name.strip()] = (float(bits[0]), float(bits[1]), int(bits[2]))
        else:
            if len(bits) != 2:
                raise RequestError(f"domain entry '{part}' must be name=lo:hi")
            out[name.strip()] = (float(bits[0]), float(bits[1]))
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
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", required=True)
    r.add_argument("--covector", action="append", default=[],
                   help="wave covector ansatz as comma-joined expressions; "
                        "repeat per element")
    r.add_argument("--param", action="append", default=[],
                   help="parameter value name=value; repeatable")
    r.add_argument("--solver-config", default=None,
                   help="JSON file with surface/solve settings")
    r.add_argument("--homogenize-var", default=None)
    r.add_argument("--tol-newton", type=float, default=1e-12)
    r.add_argument("--tol-zero", type=float, default=1e-9)
    r.add_argument("--fd-step", type=float, default=1e-4)
    r.add_argument("--trials", type=int, default=32)
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
            name, _, val = kv.partition("=")
            params[name.strip()] = float(val)
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
    except (RequestError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_REQUEST

    code, _ = run(request)
    return code


if __name__ == "__main__":
    sys.exit(main())
