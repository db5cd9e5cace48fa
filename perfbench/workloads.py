"""The benchmark's workloads: inputs made from a seed, one operation, and
the correctness gate each operation's output must pass.

Every workload exposes
  ``run(i, tag, pause)`` the timed operation number ``i``; ``pause()`` may
                       be called between independent parts of it, and
                       the time spent there is not counted;
  ``check(i, result)`` an untimed ``Outcome`` for what ``run`` returned;
  ``trace_ops``        how many operations one traced unit holds;
  ``known_counts()``   per-layer call counts the traced unit is known to make.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path
from typing import NamedTuple

import numpy as np

# rwave functions are called through their modules so that the tracer's
# wrappers, installed as module attributes, see these calls too
from rwave import cli, frobenius, geometry, system as rsystem
from rwave.expr import Box, Const, parse
from rwave.fixtures import PRESETS, SYSTEMS, system_from_dict

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# acceptance bounds the CLI itself applies to a verified run
RESIDUAL_MAX = 1e-6
COMMUTATION_MAX = 1e-6
# agreement with the solution recorded at the seed commit: far above the
# solvers' convergence tolerances (1e-12), far below any wrong root
REFERENCE_ATOL = 1e-8


def _nothing():
    return None


class Outcome(NamedTuple):
    ok: bool
    detail: str
    record: bytes          # deterministic output, compared traced vs untraced
    extra: dict


# ---------------------------------------------------------------------------
# full pipeline on a preset grid

def solution_columns(path):
    """{column: float array} of a solution.csv table."""
    with open(path) as fh:
        fh.readline()                              # schema line
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {}
    for j, name in enumerate(header):
        vals = [r[j] for r in body]
        if name == "converged" or name == "catastrophe":
            cols[name] = np.array([v == "True" for v in vals])
        else:
            cols[name] = np.array([float(v) for v in vals])
    return cols


def fingerprint(cols, n_probe=32):
    """Compact summary of a solution: u and tau at evenly spread points
    plus the column sums."""
    names = [c for c in cols if c.startswith(("u:", "tau:"))]
    n = len(cols[names[0]])
    idx = np.linspace(0, n - 1, n_probe).round().astype(int)
    return {"n": n, "idx": idx.tolist(),
            "values": {c: cols[c][idx].tolist() for c in names},
            "sums": {c: float(cols[c].sum()) for c in names}}


class GridWorkload:
    """``cli.run`` through all six stages on a bundled fixture's preset grid;
    the request ``--seed`` is the workload seed."""

    trace_ops = 1

    def __init__(self, system, k, seed, workdir, known):
        self.system = system
        self.k = k
        self.seed = seed
        self.workdir = Path(workdir)
        self._known = known
        self.grid = {n: tuple(v) for n, v in PRESETS[system]["grid"].items()}
        self.n_points = int(np.prod([v[2] for v in self.grid.values()]))

    def run(self, i, tag, pause=_nothing):
        out = self.workdir / tag
        request = cli.AnalysisRequest(system=self.system, domain={},
                                      stages=cli.PIPELINE, grid=self.grid,
                                      out_dir=str(out), seed=self.seed)
        code, _ = cli.run(request)
        return code, out

    def check(self, i, result):
        code, out = result
        try:
            return self._check(code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, code, out):
        if code != cli.EXIT_OK:
            return Outcome(False, f"exit code {code}", b"", {})
        outcomes = json.loads((out / "outcomes.json").read_text())
        if not all(v["ok"] for v in outcomes.values()):
            return Outcome(False, f"stage not ok: {outcomes}", b"", {})
        ver = json.loads((out / "verification.json").read_text())
        cols = solution_columns(out / "solution.csv")
        problems = []
        if len(cols["converged"]) != self.n_points:
            problems.append(f"{len(cols['converged'])} rows, want "
                            f"{self.n_points}")
        elif not cols["converged"].all():
            problems.append(f"{int((~cols['converged']).sum())} points "
                            "did not converge")
        if not ver["residual"]["max"] < RESIDUAL_MAX:
            problems.append(f"residual max {ver['residual']['max']:.3e}")
        if not ver["constancy_along_kernel"]["holds"]:
            problems.append("u not constant along the kernel")
        if not ver["rank_min"] == ver["rank_max"] == self.k:
            problems.append(f"rank {ver['rank_min']}..{ver['rank_max']}, "
                            f"want {self.k}")
        if not problems:
            problems += self._against_reference(cols)
        record = b"".join(
            p.name.encode() + b"\0" + p.read_bytes()
            for p in sorted(out.iterdir()) if p.name != "metadata.json")
        extra = {"newton_iters_mean": float(cols["newton_iters"].mean()),
                 "converged_frac": float(cols["converged"].mean())}
        return Outcome(not problems, "; ".join(problems), record, extra)

    def _against_reference(self, cols):
        ref = json.loads(REFERENCE.read_text())[self.system]
        got = fingerprint(cols, n_probe=len(ref["idx"]))
        if got["idx"] != ref["idx"]:
            return ["solution size differs from the reference"]
        worst = 0.0
        for c, vals in ref["values"].items():
            worst = max(worst, float(np.max(np.abs(
                np.asarray(got["values"][c]) - vals))))
        for c, s in ref["sums"].items():
            worst = max(worst, abs(got["sums"][c] - s) / self.n_points)
        if worst > REFERENCE_ATOL:
            return [f"solution differs from the reference by {worst:.3e}"]
        return []

    def known_counts(self):
        return dict(self._known)


# ---------------------------------------------------------------------------
# frame rescaling through the numeric transport path

def frames():
    """(label, fields, names, box, rescale options, stage the frame must
    reach) for the two frames whose rescaling needs numeric transport."""
    names4 = ("x", "y", "z", "w")
    cyclic = ((parse("exp(y)", names4), Const(0), Const(0), Const(0)),
              (Const(0), parse("exp(z)", names4), Const(0), Const(0)),
              (Const(0), Const(0), parse("exp(x)", names4), Const(0)))
    names3 = ("x", "y", "z")
    pair = ((parse("1+y^2", names3), Const(0), Const(0)),
            (Const(0), parse("1+x^2", names3), Const(0)))
    # the pair's box is narrower than in the test suite (+-0.6) to fit the
    # run budget: at +-0.2 each transport takes its minimum of 60 RK4 steps,
    # and every step still makes the per-row lstsq calls and lie_bracket
    # re-derivations the wider box makes
    return (
        ("cyclic", cyclic, names4,
         Box.from_dict({n: (-0.7, 0.7) for n in names4}),
         {"prefer_symbolic": False}, "stage2"),
        ("pair", pair, names3,
         Box.from_dict({n: (-0.2, 0.2) for n in names3}), {},
         "base_pair"),
    )


class FramesWorkload:
    """``rescale_frame`` then ``commutation_residual`` on both frames; the
    seed picks the sample points of the construction and of the check."""

    trace_ops = 1
    check_samples = 20

    def __init__(self, seed):
        self.frames = frames()
        seeds = np.random.SeedSequence(seed).generate_state(
            2 * len(self.frames)).tolist()
        self.rngs = list(zip(seeds[::2], seeds[1::2]))

    def run(self, i, tag, pause=_nothing):
        results = []
        for (label, fields, names, box, opts, _), (r1, r2) in zip(self.frames,
                                                                self.rngs):
            res = frobenius.rescale_frame(list(fields), names, box, rng=r1,
                                          **opts)
            pause()
            worst = frobenius.commutation_residual(
                res.scaled_fields(), box, rng=r2,
                n_samples=self.check_samples)
            results.append((label, res.stages_run, res.stage1_residuals,
                            worst))
            pause()
        return results

    def check(self, i, results):
        problems = []
        for (label, stages, _, worst), frame in zip(results, self.frames):
            if not worst < COMMUTATION_MAX:
                problems.append(f"{label}: commutation residual {worst:.3e}")
            if frame[5] not in stages:
                problems.append(f"{label}: stages {stages} lack {frame[5]}")
        record = json.dumps([[label, stages, [repr(float(r)) for r in res1],
                              repr(float(worst))]
                             for label, stages, res1, worst in results])
        return Outcome(not problems, "; ".join(problems), record.encode(), {})

    def known_counts(self):
        return {"frobenius.rescale_frame_calls": len(self.frames)}


# ---------------------------------------------------------------------------
# a stream of existence-condition requests

CONDITIONS = ("involutivity", "cross_coefficients", "lambda_profile",
              "closedness")
HOMOGENIZE_SYSTEMS = ("brownian", "trautman")


def _constant(rng):
    return f"{rng.uniform(0.5, 2.0):.6f}"


def verdict_requests(seed):
    """Endless request stream; the same seed yields the same stream.

    About 45 % are the example2 wave pair with each covector scaled by a
    fresh constant (all four verdicts hold, two potentials exist), 40 %
    the same pair with the first covector perturbed by c*x (closedness
    fails with a witness), and 15 % homogenizations of brownian or
    trautman with the source scaled by a fresh constant.  Each request
    carries the outcome expected of it.
    """
    rng = np.random.default_rng(seed)
    while True:
        u = rng.random()
        req_seed = int(rng.integers(2**32))
        if u < 0.85:
            req = {"kind": "pair", "seed": req_seed,
                   "scales": [_constant(rng), _constant(rng)],
                   "perturb": _constant(rng) if u >= 0.45 else None}
            req["expect"] = {c: "holds" for c in CONDITIONS}
            if req["perturb"]:
                req["expect"]["closedness"] = "fails"
            req["expect"]["potentials"] = 0 if req["perturb"] else 2
        else:
            name = HOMOGENIZE_SYSTEMS[int(rng.integers(2))]
            req = {"kind": "homogenize", "seed": req_seed, "system": name,
                   "scale": _constant(rng),
                   "expect": {"all_sources_zero": False,
                              "new_var": PRESETS[name]["homogenize_var"],
                              "m_property": True}}
        yield req


class VerdictsWorkload:
    """One request per operation, taken in order from ``verdict_requests``."""

    trace_ops = 300

    def __init__(self, seed):
        self._stream = verdict_requests(seed)
        self.requests = []
        self.system, preset = cli.load_system("example2")
        self.box = Box.from_dict(preset["domain"])
        self.lambdas = preset["lambdas"]
        self.boxes = {n: Box.from_dict(PRESETS[n]["domain"])
                      for n in HOMOGENIZE_SYSTEMS}

    def request(self, i):
        while len(self.requests) <= i:
            self.requests.append(next(self._stream))
        return self.requests[i]

    def run(self, i, tag, pause=_nothing):
        req = self.request(i)
        rng = np.random.default_rng(req["seed"])
        if req["kind"] == "homogenize":
            return self._homogenize(req, rng)
        space = self.system.space
        elements = []
        for idx, (scale, lam_strings) in enumerate(zip(req["scales"],
                                                       self.lambdas)):
            lam = tuple(parse(f"{scale}*({s})", space) for s in lam_strings)
            gamma = geometry.kernel_elements(self.system, lam, self.box,
                                             rng=rng)[0]
            if idx == 0 and req["perturb"]:
                lam = (parse(f"{scale}*({lam_strings[0]})+{req['perturb']}*x",
                             space),) + lam[1:]
            elements.append(geometry.WaveElement(space, lam, gamma,
                                                 label=f"w{idx}"))
        report = geometry.check_kwave_conditions(self.system, elements,
                                                 self.box, rng=rng)
        potentials = []
        if report.all_hold():
            potentials = [geometry.find_potential(e, self.box.midpoint(),
                                                  self.box, rng=rng)
                          for e in elements]
        return {"report": report, "potentials": potentials}

    def _homogenize(self, req, rng):
        data = dict(SYSTEMS[req["system"]])
        data["b"] = [f"{req['scale']}*({s})" for s in data["b"]]
        system = system_from_dict(data)
        box = self.boxes[req["system"]]
        new_var = PRESETS[req["system"]]["homogenize_var"]
        res = rsystem.homogenize(system, box=box, rng=rng, new_var=new_var)
        return {"homogenization": res,
                "m_property": rsystem.check_m_property(res, system, box,
                                                       rng=rng)}

    def check(self, i, result):
        req = self.request(i)
        if req["kind"] == "homogenize":
            res = result["homogenization"]
            got = {"all_sources_zero": res.all_sources_zero,
                   "new_var": res.substitution.new_var,
                   "m_property": all(bool(c) for c in result["m_property"])}
            record = {"m_matrix": [[str(e) for e in row]
                                   for row in res.m_matrix],
                      "system": [[[str(e) for e in row] for row in A]
                                 for A in res.system.coeffs]}
        else:
            data = result["report"].as_dict()
            data.pop("seed")       # the generator's repr, not a result
            got = {c: data[c]["verdict"] for c in CONDITIONS}
            got["potentials"] = len(result["potentials"])
            if req["perturb"] and data["closedness"]["witness"] is None:
                got["closedness"] = "fails without a witness"
            record = {"report": data,
                      "potentials": [str(p.phi) for p in result["potentials"]]}
        ok = got == req["expect"]
        detail = "" if ok else f"request {i}: got {got}, want {req['expect']}"
        return Outcome(ok, detail, json.dumps(record, sort_keys=True).encode(),
                       {})

    def known_counts(self):
        """Calls the first ``trace_ops`` requests make by construction."""
        reqs = [self.request(i) for i in range(self.trace_ops)]
        pairs = sum(r["kind"] == "pair" for r in reqs)
        return {"geometry.check_kwave_conditions_calls": pairs,
                "geometry.kernel_elements_calls": 2 * pairs,
                "geometry.find_potential_calls":
                    2 * sum(r["kind"] == "pair" and not r["perturb"]
                            for r in reqs),
                "system.homogenize_calls": len(reqs) - pairs}


def make(name, seed, workdir):
    if name == "example2-grid":
        return GridWorkload("example2", 2, seed, workdir, {
            "verify.recover_decomposition_calls": 8000,
            "verify.fd_jacobian_batch_calls": 2})
    if name == "example3-grid":
        return GridWorkload("example3", 1, seed, workdir, {
            "verify.recover_decomposition_calls": 1000,
            "verify.fd_jacobian_batch_calls": 2})
    if name == "frames":
        return FramesWorkload(seed)
    if name == "verdicts":
        return VerdictsWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


# fixture each workload's set-up loads (frames use no fixture)
SETUP_FIXTURE = {"example2-grid": "example2", "example3-grid": "example3",
                 "frames": "example2", "verdicts": "example2"}
