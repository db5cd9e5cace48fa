import builtins
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rwave import cli, expr
from rwave.cli import (
    EXIT_CONDITION,
    EXIT_OK,
    EXIT_REQUEST,
    EXIT_SOLVER,
    PIPELINE,
    AnalysisRequest,
    describe,
    main,
    run,
)
from rwave.fixtures import PRESETS, load_fixture, system_to_dict
from rwave.frobenius import NotInSpan
from rwave.solver import SolutionField


def read_solution_field_table(path):
    # the header and the cells of each row of a solution.csv
    with open(path) as fh:
        fh.readline()                      # the schema version line
        header = fh.readline().strip().split(",")
        return header, [line.strip().split(",") for line in fh]


def base_request(tmp_path, **overrides):
    kw = dict(system="example2", domain={}, stages=("homogenize", "elements",
                                                    "conditions", "rescale",
                                                    "solve", "verify"),
              grid={"t": (1.0, 3.0, 5), "x": (1.0, 3.0, 3),
                    "y": (0.2, 0.9, 5)},
              out_dir=str(tmp_path / "out"), seed=11)
    kw.update(overrides)
    return AnalysisRequest(**kw)


def read_report(req, name):
    return json.loads((Path(req.out_dir) / name).read_text())


def example2_file(tmp_path):
    """example2 as a system file, which carries none of the presets."""
    path = tmp_path / "example2.json"
    path.write_text(json.dumps(system_to_dict(load_fixture("example2"))))
    return str(path)


def test_describe_brownian():
    text = describe("brownian")
    assert "p=2 (t, x)" in text
    assert "q=2" in text
    assert "inhomogeneous" in text


def test_describe_homogenized_brownian(tmp_path):
    req = base_request(tmp_path, system="brownian", stages=("homogenize",),
                       grid={"t": (0.0, 1.0, 2)})
    code, artifacts = run(req)
    assert code == EXIT_OK
    text = describe(str(artifacts["homogenized_system"]))
    assert "p=3" in text
    assert "homogeneous" in text
    assert "evolutionary in y" in text


def test_describe_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    assert main(["describe", "--system", str(bad)]) == EXIT_REQUEST


def test_describe_bad_expression_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "independent": ["t"], "dependent": ["u"], "parameters": [],
        "A": [[["u +"]]], "b": ["0"]}))
    assert main(["describe", "--system", str(bad)]) == EXIT_REQUEST


def test_run_full_pipeline_example2(tmp_path):
    req = base_request(tmp_path)
    code, artifacts = run(req)
    assert code == EXIT_OK
    out = Path(req.out_dir)
    for name in ("homogenized_system.json", "elements.json", "conditions.json",
                 "rescaling.json", "solution.csv", "verification.json",
                 "metadata.json", "outcomes.json"):
        assert (out / name).exists(), name
    ver = json.loads((out / "verification.json").read_text())
    assert ver["residual"]["max"] < 1e-6
    assert max(abs(v - 0.5) for v in ver["xi_mean"]) < 1e-8
    assert ver["rank_min"] == ver["rank_max"] == 2
    header, rows = read_solution_field_table(out / "solution.csv")
    assert header[:3] == ["x:t", "x:x", "x:y"]
    assert len(rows) == 5 * 3 * 5
    assert all(r[header.index("converged")] == "True" for r in rows)
    # the potentials step is reported only when it fails
    outcomes = read_report(req, "outcomes.json")
    assert outcomes == {stage: {"ok": True, "detail": ""}
                        for stage in PIPELINE if stage != "solve"} | {
        "solve": {"ok": True, "detail": "75/75"}}
    # example2's frame already commutes: identity factors, measured by the
    # rescale stage after construction
    assert read_report(req, "rescaling.json")["commutation_max"] == 0.0
    seconds = read_report(req, "metadata.json")["stage_seconds"]
    assert set(seconds) == set(PIPELINE) | {"potentials"}
    assert all(s >= 0.0 for s in seconds.values())


def test_run_homogenize_stage_brownian_round_trip(tmp_path):
    req = base_request(tmp_path, system="brownian", stages=("homogenize",),
                       grid={"t": (0.0, 1.0, 2)})
    code, artifacts = run(req)
    assert code == EXIT_OK
    data = json.loads(Path(artifacts["homogenized_system"]).read_text())
    assert data["independent"] == ["t", "x", "y"]
    assert data["b"] == ["0", "0"]
    # loading and re-serializing the emitted file is bit-exact
    from rwave.fixtures import system_from_dict, system_to_dict
    again = system_to_dict(system_from_dict(data))
    assert again == data


def test_run_empty_grid_exit2(tmp_path, capsys):
    req = base_request(tmp_path, grid={"t": (1.0, 2.0, 0)})
    code, _ = run(req)
    assert code == EXIT_REQUEST


def test_run_bad_stage_order_exit2(tmp_path):
    with_bad = base_request(tmp_path, stages=("elements", "homogenize"))
    code, _ = run(with_bad)
    assert code == EXIT_REQUEST


def test_run_condition_failure_exit3(tmp_path):
    # a characteristic covector chosen with a non-closed profile: the
    # conditions stage fails with a witness and the run exits 3
    req = base_request(
        tmp_path,
        domain={"u2": (0.5, 2.0)},
        stages=("homogenize", "elements", "conditions"),
        lambdas=[["-sqrt((x+y*u1)*(x*u2+y))", "1", "1"],
                 ["1", "0", "1/(y*sqrt(u1))"]])
    code, _ = run(req)
    assert code == EXIT_CONDITION
    rep = json.loads((Path(req.out_dir) / "conditions.json").read_text())
    assert rep["closedness"]["verdict"] == "fails"
    assert rep["closedness"]["witness"] is not None
    assert rep["closedness"]["magnitude"] > 1e-3
    assert read_report(req, "outcomes.json")["conditions"] == {
        "ok": False,
        "detail": "a k-wave existence condition failed; see conditions.json"}
    seconds = read_report(req, "metadata.json")["stage_seconds"]
    assert set(seconds) == {"homogenize", "elements", "conditions"}


def test_run_dependent_covectors_exit3(tmp_path, capsys):
    req = base_request(
        tmp_path, stages=("homogenize", "elements", "conditions"),
        lambdas=[["1", "0", "-(1/(y*sqrt(u1)))"],
                 ["2", "0", "-(2/(y*sqrt(u1)))"]])
    code, _ = run(req)
    assert code == EXIT_CONDITION
    assert "conditions:" in capsys.readouterr().err
    outcomes = json.loads((Path(req.out_dir) / "outcomes.json").read_text())
    assert outcomes["conditions"]["ok"] is False


def test_run_example2_displaced_resolves_make_no_sort(tmp_path, monkeypatch):
    # the 12 finite-difference re-solves take the base solve's lane plan:
    # each lane's displaced key and warm start have the bits of the rest of
    # its group, so no re-solve falls back to sorting its lanes
    sorts, resolves, inside = [], [], []
    lexsort, resolve = np.lexsort, SolutionField.resolve
    fd_jacobian_batch = cli.fd_jacobian_batch

    def counted_sort(keys):
        if inside:
            sorts.append(len(keys))
        return lexsort(keys)

    def counted_resolve(field, *args):
        if inside:
            resolves.append(field.n)
        return resolve(field, *args)

    def traced(*args, **kwargs):
        inside.append(True)
        try:
            return fd_jacobian_batch(*args, **kwargs)
        finally:
            inside.clear()

    monkeypatch.setattr(np, "lexsort", counted_sort)
    monkeypatch.setattr(SolutionField, "resolve", counted_resolve)
    monkeypatch.setattr(cli, "fd_jacobian_batch", traced)
    req = base_request(tmp_path)
    assert run(req)[0] == EXIT_OK
    assert resolves == [75] * 12
    assert sorts == []


def test_run_verify_neighbor_diverged_exit4(tmp_path, monkeypatch, capsys):
    real_solve = cli.solve_implicit

    def solve_with_failing_resolver(*args, **kwargs):
        field = real_solve(*args, **kwargs)
        resolve = field.resolver

        def resolver(env, initial_guess=None, lanes=None):
            out = resolve(env, initial_guess, lanes)
            out.converged[:] = False
            return out

        field.resolver = resolver
        return field

    monkeypatch.setattr(cli, "solve_implicit", solve_with_failing_resolver)
    req = base_request(tmp_path)
    code, _ = run(req)
    assert code == EXIT_SOLVER
    assert "verify: displaced solve failed" in capsys.readouterr().err
    out = Path(req.out_dir)
    assert (out / "solution.csv").exists()
    assert not (out / "verification.json").exists()
    outcomes = json.loads((out / "outcomes.json").read_text())
    assert outcomes["solve"]["ok"] is True
    assert outcomes["verify"]["ok"] is False


def test_run_verify_dependent_dyads_exit3(tmp_path, monkeypatch, capsys):
    real_build = cli._build_surface

    def build_then_duplicate_element(system, potentials, solver_cfg):
        surface = real_build(system, potentials, solver_cfg)
        # the solve keeps both potentials; verify sees one element twice
        potentials[1] = dataclasses.replace(potentials[1],
                                            element=potentials[0].element)
        return surface

    monkeypatch.setattr(cli, "_build_surface", build_then_duplicate_element)
    req = base_request(tmp_path)
    code, _ = run(req)
    assert code == EXIT_CONDITION
    assert "linearly dependent at grid index 0" in capsys.readouterr().err
    out = Path(req.out_dir)
    assert (out / "solution.csv").exists()
    outcomes = json.loads((out / "outcomes.json").read_text())
    assert outcomes["verify"]["ok"] is False


def test_run_noncharacteristic_ansatz_exit2(tmp_path):
    req = base_request(tmp_path, stages=("homogenize", "elements"),
                       lambdas=[["1", "0", "0"]])
    code, _ = run(req)
    assert code == EXIT_REQUEST


def test_run_constancy_grid_of_field_size_not_warm_started(tmp_path):
    # 40 points, and the constancy check re-solves 2 x 20 samples x 1
    # kernel direction = 40 displaced points, unrelated to the grid points
    # of the same index; a cold start finds u exactly constant there
    req = base_request(tmp_path, seed=4, grid={"t": (1.0, 3.0, 2),
                                               "x": (1.0, 3.0, 4),
                                               "y": (0.2, 0.9, 5)})
    assert run(req)[0] == EXIT_OK
    ver = json.loads((Path(req.out_dir) / "verification.json").read_text())
    assert ver["constancy_along_kernel"] == {"holds": True,
                                             "max_derivative": 0.0}


def test_run_seed_reproducibility_byte_identical(tmp_path):
    req1 = base_request(tmp_path, out_dir=str(tmp_path / "a"), seed=42)
    req2 = base_request(tmp_path, out_dir=str(tmp_path / "b"), seed=42)
    assert run(req1)[0] == EXIT_OK
    assert run(req2)[0] == EXIT_OK
    names = ["request.json", "homogenization.json", "elements.json",
             "conditions.json", "rescaling.json", "solution.csv",
             "verification.json", "outcomes.json"]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical seeded runs"


def count_source_compiles(monkeypatch):
    """The sources ``rwave.expr`` hands to Python's ``compile`` from now on."""
    compiled = []

    def counting(source, *args):
        compiled.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr(expr, "compile", counting, raising=False)
    return compiled


@pytest.mark.parametrize("system, grid", [
    ("example2", {"t": (1.0, 3.0, 5), "x": (1.0, 3.0, 3), "y": (0.2, 0.9, 5)}),
    ("example3", {"t": (0.1, 1.0, 5), "x": (1.0, 3.0, 4), "y": (1.0, 3.0, 4)})])
def test_second_run_compiles_no_kernel_source(tmp_path, monkeypatch, system,
                                              grid):
    # every kernel source of a run is compiled by the first run in a
    # process; a second run takes each code object from the cache and
    # writes the first run's bytes (the lane contract, README)
    first = base_request(tmp_path, system=system, grid=grid,
                         out_dir=str(tmp_path / "first"))
    assert run(first)[0] == EXIT_OK
    compiled = count_source_compiles(monkeypatch)
    again = dataclasses.replace(first, out_dir=str(tmp_path / "again"))
    assert run(again)[0] == EXIT_OK
    assert compiled == []
    names = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "again").iterdir())
    for name in names:
        if name != "metadata.json":
            assert ((tmp_path / "first" / name).read_bytes()
                    == (tmp_path / "again" / name).read_bytes()), name


def test_run_example3_pipeline(tmp_path):
    req = base_request(tmp_path, system="example3",
                       grid={"t": (0.1, 1.0, 5), "x": (1.0, 3.0, 4),
                             "y": (1.0, 3.0, 4)})
    code, _ = run(req)
    assert code == EXIT_OK
    ver = json.loads((Path(req.out_dir) / "verification.json").read_text())
    assert ver["residual"]["max"] < 1e-6
    assert ver["rank_min"] == ver["rank_max"] == 1


def test_run_solver_failure_exit4(tmp_path):
    # shift the scan window away from every root: all points diverge
    req = base_request(tmp_path, system="example3",
                       grid={"t": (0.1, 1.0, 3), "x": (1.0, 3.0, 3),
                             "y": (1.0, 3.0, 3)},
                       solver={"tau_window": [0.5, 0.9]})
    code, _ = run(req)
    assert code == 4
    assert read_report(req, "outcomes.json")["solve"] == {
        "ok": False, "detail": "16 of 27 grid points diverged"}
    assert (Path(req.out_dir) / "solution.csv").exists()
    assert not (Path(req.out_dir) / "verification.json").exists()


def test_run_solver_config_errors_exit4(tmp_path):
    # a mu of the wrong shape or type, a system file without solver
    # settings, and a u0 that is not a number
    cases = {
        "IndexError": base_request(tmp_path, out_dir=str(tmp_path / "mu"),
                                   solver={"mu": [["1"]]}),
        "TypeError": base_request(tmp_path, out_dir=str(tmp_path / "mu5"),
                                  solver={"mu": 5}),
        "KeyError": base_request(
            tmp_path, system=example2_file(tmp_path),
            out_dir=str(tmp_path / "file"),
            domain=PRESETS["example2"]["domain"],
            lambdas=PRESETS["example2"]["lambdas"]),
        "ValueError": base_request(tmp_path, out_dir=str(tmp_path / "u0"),
                                   solver={"u0": ["a", "b"]}),
    }
    for name, req in cases.items():
        assert run(req)[0] == EXIT_SOLVER, name
        outcomes = read_report(req, "outcomes.json")
        assert outcomes["rescale"]["ok"] is True, name
        assert outcomes["solve"]["ok"] is False, name
        assert outcomes["solve"]["detail"].startswith(name + ": "), name
        assert "verify" not in outcomes, name


def test_run_singular_domain_box_exit2(tmp_path, capsys):
    # u1 < 0 makes sqrt(u1) singular at every sample of the zero test
    req = base_request(tmp_path, domain={"u1": (-4.0, -0.25)},
                       stages=PIPELINE[:3])
    assert run(req)[0] == EXIT_REQUEST
    assert "elements: more than 320 samples hit singular points" in (
        capsys.readouterr().err)
    outcomes = read_report(req, "outcomes.json")
    assert outcomes["homogenize"]["ok"] is True
    assert outcomes["elements"]["ok"] is False
    assert "conditions" not in outcomes


def test_run_surface_step_underflow_exit4(tmp_path):
    # the preset's second axis starts at 0.08, off the sqrt branch line at
    # 0; a range across it makes the surface flow's step size underflow
    req = base_request(tmp_path, grid={"t": (1.0, 3.0, 3), "x": (1.0, 3.0, 3),
                                       "y": (0.2, 0.9, 3)},
                       solver={"axis_ranges": [[0.8, 3.4], [-6.0, 1.8]]})
    assert run(req)[0] == EXIT_SOLVER
    outcomes = read_report(req, "outcomes.json")
    assert outcomes["rescale"]["ok"] is True
    assert outcomes["solve"]["ok"] is False
    assert outcomes["solve"]["detail"].startswith("step underflow at t=")
    assert "verify" not in outcomes


def test_run_rescale_failure_exit3(tmp_path, monkeypatch, capsys):
    def dependent_frame(*args, **kwargs):
        raise NotInSpan("bracket not in the span of the frame",
                        witness={"u1": 1.0, "u2": 0.0})

    monkeypatch.setattr(cli, "rescale_frame", dependent_frame)
    req = base_request(tmp_path)
    assert run(req)[0] == EXIT_CONDITION
    assert "rescale: bracket not in the span" in capsys.readouterr().err
    assert read_report(req, "rescaling.json")["result"] == (
        "failed: bracket not in the span of the frame")
    outcomes = read_report(req, "outcomes.json")
    assert outcomes["rescale"] == {
        "ok": False, "detail": "bracket not in the span of the frame"}
    assert "solve" not in outcomes


def test_run_verify_misses_bounds_exit3(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "constancy_along_kernel",
                        lambda *args, **kwargs: (False, 0.25))
    req = base_request(tmp_path)
    assert run(req)[0] == EXIT_CONDITION
    ver = read_report(req, "verification.json")
    assert ver["constancy_along_kernel"] == {"holds": False,
                                             "max_derivative": 0.25}
    assert (Path(req.out_dir) / "solution.csv").exists()
    verify = read_report(req, "outcomes.json")["verify"]
    assert verify["ok"] is False
    assert verify["detail"].startswith("verification missed its bounds")
    assert "u constant along the kernel: False" in verify["detail"]


def test_run_bad_arguments_exit2_write_nothing(tmp_path, capsys):
    # a reversed range, non-finite bounds and parameter values, a --param
    # entry that is not name=value, a --solver-config file that does not exist, and numeric flags that must
    # be positive (and finite): nothing is written
    cases = [("empty range for t", ["--domain", "t=3:1"]),
             ("bounds must be finite", ["--domain", "t=0:inf"]),
             ("bounds must be finite", ["--domain", "t=-inf:1"]),
             ("bounds must be finite",
              ["--grid", "t=1:3:20,x=1:3:20,y=0.2:inf:20"]),
             ("--param values must be finite", ["--param", "m=nan"]),
             ("--param values must be finite", ["--param", "m=inf"]),
             ("--param 'foo' must be name=value", ["--param", "foo"]),
             ("--param '=1' must be name=value", ["--param", "=1"]),
             ("No such file", ["--solver-config",
                               str(tmp_path / "missing.json")]),
             ("must be positive", ["--trials", "0", "--fd-step", "0"]),
             *(("must be positive", [flag, value])
               for flag in ("--tol-newton", "--tol-zero", "--fd-step")
               for value in ("nan", "inf"))]
    for message, argv in cases:
        out = tmp_path / "out"
        assert main(["run", "--system", "example2", "--out", str(out),
                     *argv]) == EXIT_REQUEST, argv
        assert message in capsys.readouterr().err
        assert not out.exists(), argv
    # --trials parses as an integer, so NaN and inf stop at the parser,
    # and a request that carries them anyway stops at its validation
    for value in ("nan", "inf"):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            main(["run", "--system", "example2", "--out", str(out),
                  "--trials", value])
        assert stop.value.code == EXIT_REQUEST
        assert "invalid int value" in capsys.readouterr().err
        req = base_request(tmp_path, trials=float(value))
        assert run(req)[0] == EXIT_REQUEST
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists(), value
    # an --out that names a file
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    assert main(["run", "--system", "brownian", "--stages", "homogenize",
                 "--out", str(blocker)]) == EXIT_REQUEST
    assert "File exists" in capsys.readouterr().err
    assert blocker.read_text() == "kept"


def test_run_solver_config_not_an_object_exit2(tmp_path, capsys):
    # a solver-config file that parses to a list or a string: exit 2 before
    # any stage runs, and nothing is written
    for name, text in (("list", "[1]"), ("string", '"abc"')):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(text)
        out = tmp_path / f"out-{name}"
        assert main(["run", "--system", "example3", "--solver-config",
                     str(cfg), "--out", str(out)]) == EXIT_REQUEST, name
        assert "solver config must be a JSON object" in capsys.readouterr().err
        assert not out.exists(), name


def test_run_negative_seed_exit2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--system", "example3", "--seed", "-1",
                 "--out", str(out)]) == EXIT_REQUEST
    assert "--seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_run_unread_solver_config_key_exit2(tmp_path, capsys):
    # a misspelt root_select would be silently ignored by every stage
    cfg = tmp_path / "k.json"
    cfg.write_text('{"root_selct": "highest"}')
    out = tmp_path / "out"
    assert main(["run", "--system", "example3", "--solver-config", str(cfg),
                 "--out", str(out)]) == EXIT_REQUEST
    assert "keys no stage reads ['root_selct']" in capsys.readouterr().err
    assert not out.exists()


def test_run_unknown_root_select_exit4(tmp_path):
    # the preset asks for the lowest root; a misspelling must not fall back
    # to the nearest one
    cfg = tmp_path / "k.json"
    cfg.write_text('{"root_select": "lowset"}')
    out = tmp_path / "out"
    assert main(["run", "--system", "example3", "--grid",
                 "t=0.1:1:3,x=1:3:3,y=1:3:3", "--solver-config", str(cfg),
                 "--out", str(out)]) == EXIT_SOLVER
    outcomes = json.loads((out / "outcomes.json").read_text())
    assert outcomes["rescale"]["ok"] is True
    assert outcomes["solve"]["ok"] is False
    assert outcomes["solve"]["detail"].startswith(
        "ValueError: root_select must be nearest, lowest or highest")
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize("window", ["[NaN, -0.3]", "[-0.3]", "[-0.3, -24.0]",
                                    "[-2.0, -2.0]", "[]"],
                         ids=["NaN end", "one end", "lo > hi", "lo = hi",
                              "no ends"])
def test_run_bad_tau_window_exit4(tmp_path, window):
    # a NaN end must not fall back to the curve's own end, one end must not
    # fail as an IndexError, and no ends must not scan the whole curve
    cfg = tmp_path / "w.json"
    cfg.write_text(f'{{"tau_window": {window}}}')
    out = tmp_path / "out"
    assert main(["run", "--system", "example3", "--grid",
                 "t=0.1:1:3,x=1:3:3,y=1:3:3", "--solver-config", str(cfg),
                 "--out", str(out)]) == EXIT_SOLVER
    outcomes = json.loads((out / "outcomes.json").read_text())
    assert outcomes["rescale"]["ok"] is True
    assert outcomes["solve"]["ok"] is False
    assert outcomes["solve"]["detail"].startswith(
        "ValueError: tau_window must be two finite numbers lo < hi")
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize("guess, detail", [
    ('"bogus"', "initial_guess must be 'potential_at_base' or numbers, got "
                "'bogus'"),
    ("null", "initial_guess must be 'potential_at_base' or numbers, got "
             "None"),
    ("[-2.0, -1.0, -0.5]", "initial_guess must hold k = 1 or n*k = 27 "
                           "values, got 3"),
], ids=["a string", "null", "3 values on 27 lanes"])
def test_run_bad_initial_guess_exit4(tmp_path, guess, detail):
    # the solve fails naming the setting, not as a float conversion or a
    # reshape deep in the solve
    cfg = tmp_path / "g.json"
    cfg.write_text(f'{{"initial_guess": {guess}}}')
    out = tmp_path / "out"
    assert main(["run", "--system", "example3", "--grid",
                 "t=0.1:1:3,x=1:3:3,y=1:3:3", "--solver-config", str(cfg),
                 "--out", str(out)]) == EXIT_SOLVER
    outcomes = json.loads((out / "outcomes.json").read_text())
    assert outcomes["rescale"]["ok"] is True
    assert outcomes["solve"]["ok"] is False
    assert outcomes["solve"]["detail"].startswith("ValueError: " + detail)
    assert not (out / "solution.csv").exists()


def test_run_verifies_with_a_guess_per_lane(tmp_path):
    # the displaced re-solves of verify, grouped or at the constancy
    # check's samples, give each point the guess of the lane it came from
    guess = [0.5 if i % 2 == 0 else -0.8 * (1 + 4.5 * (i // 9))
             for i in range(27)]
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"initial_guess": guess,
                               "root_select": "nearest",
                               "tau_window": [-24.0, 0.99]}))
    out = tmp_path / "out"
    assert main(["run", "--system", "example3", "--grid",
                 "t=0.1:1:3,x=1:3:3,y=1:3:3", "--solver-config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    ver = json.loads((out / "verification.json").read_text())
    assert ver["constancy_along_kernel"]["holds"] is True


def test_run_unknown_root_select_fails_before_the_surface(tmp_path,
                                                          monkeypatch):
    built = []
    monkeypatch.setattr(cli, "_build_surface",
                        lambda *args: built.append(args))
    req = base_request(tmp_path, system="example3",
                       grid={"t": (0.1, 1.0, 3), "x": (1.0, 3.0, 3),
                             "y": (1.0, 3.0, 3)},
                       solver={"root_select": "lowset"})
    assert run(req)[0] == EXIT_SOLVER
    assert built == []
    assert read_report(req, "outcomes.json")["solve"]["detail"].startswith(
        "ValueError: root_select must be nearest, lowest or highest")


def test_run_partial_domain_box(tmp_path):
    # a box without u2: the conditions still hold, and the rescale stage,
    # which samples every dependent variable, exits 2
    partial = {k: v for k, v in PRESETS["example2"]["domain"].items()
               if k != "u2"}
    kw = dict(system=example2_file(tmp_path), domain=partial,
              lambdas=PRESETS["example2"]["lambdas"])
    upto_conditions = base_request(tmp_path, out_dir=str(tmp_path / "c"),
                                   stages=PIPELINE[:3], **kw)
    assert run(upto_conditions)[0] == EXIT_OK
    full = base_request(tmp_path, out_dir=str(tmp_path / "full"), **kw)
    assert run(full)[0] == EXIT_REQUEST
    outcomes = read_report(full, "outcomes.json")
    assert outcomes["conditions"]["ok"] is True
    assert outcomes["rescale"] == {"ok": False,
                                   "detail": "box lacks ranges for ['u2']"}


def test_cli_entrypoint_subprocess(tmp_path):
    out = tmp_path / "cli"
    proc = subprocess.run(
        [sys.executable, "-m", "rwave.cli", "run", "--system", "example2",
         "--out", str(out), "--seed", "5",
         "--grid", "t=1:3:4,x=1:3:3,y=0.25:0.85:4",
         "--stages", "homogenize,elements,conditions"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (out / "conditions.json").exists()


def test_run_early_request_errors_write_outcomes(tmp_path, capsys):
    # no covector for the elements stage, a covector that does not parse,
    # one of the wrong length, and one whose kernel has no symbolic basis
    # (a q = 4 block system with a two-dimensional kernel at lambda =
    # (1, 0)): exit 2, with outcomes.json naming the failed stage
    block = tmp_path / "block.json"
    block.write_text(json.dumps({
        "independent": ["x", "y"], "dependent": ["w1", "w2", "w3", "w4"],
        "A": [[["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0"] * 4,
               ["0"] * 4],
              [["0"] * 4, ["0"] * 4, ["0", "0", "1", "0"],
               ["0", "0", "0", "1"]]],
        "b": ["0"] * 4}))
    cases = {
        "brownian": base_request(tmp_path, system="brownian",
                                 out_dir=str(tmp_path / "brownian"),
                                 stages=("homogenize", "elements")),
        "trautman": base_request(tmp_path, system="trautman",
                                 out_dir=str(tmp_path / "trautman")),
        "parse": base_request(tmp_path, out_dir=str(tmp_path / "parse"),
                              stages=("homogenize", "elements"),
                              lambdas=[["1", "0", "sqrt(("]]),
        "arity": base_request(tmp_path, out_dir=str(tmp_path / "arity"),
                              stages=("homogenize", "elements"),
                              lambdas=[["1", "0"]]),
        "kernel": base_request(tmp_path, system=str(block),
                               out_dir=str(tmp_path / "kernel"),
                               stages=("homogenize", "elements"),
                               domain={n: (0.0, 1.0) for n in
                                       ("x", "y", "w1", "w2", "w3", "w4")},
                               lambdas=[["1", "0"]]),
    }
    for name, req in cases.items():
        code, _ = run(req)
        assert code == EXIT_REQUEST, name
        outcomes = json.loads((Path(req.out_dir) / "outcomes.json").read_text())
        assert outcomes["homogenize"]["ok"] is True, name
        assert outcomes["elements"]["ok"] is False, name
        assert outcomes["elements"]["detail"], name
    err = capsys.readouterr().err
    assert "--covector" in err
    refused = ("kernel is only available as a numeric sampler; supply a "
               "symbolic ansatz for the solve stages")
    assert f"elements: {refused}\n" in err
    assert read_report(cases["kernel"], "outcomes.json")["elements"][
        "detail"] == refused


def test_run_homogenize_error_writes_outcomes(tmp_path):
    # two equations in one unknown: homogenize refuses it with exit 2
    path = tmp_path / "overdetermined.json"
    path.write_text(json.dumps({
        "independent": ["t", "x"], "dependent": ["u"],
        "A": [[["1"], ["0"]], [["u"], ["1"]]], "b": ["0", "0"]}))
    req = base_request(tmp_path, system=str(path), stages=("homogenize",),
                       domain={"t": (0.0, 1.0), "x": (0.0, 1.0),
                               "u": (0.0, 1.0)})
    assert run(req)[0] == EXIT_REQUEST
    outcomes = json.loads((Path(req.out_dir) / "outcomes.json").read_text())
    assert outcomes == {"homogenize": {
        "ok": False,
        "detail": "homogenization requires a properly determined system"}}


def test_malformed_system_file_exit2(tmp_path, capsys):
    # an expression entry that is not a string, a top level that is not an
    # object, and names that are not a list of strings: describe and run
    # exit 2 naming the key, and run writes nothing
    good = {"independent": ["t", "x"], "dependent": ["u"],
            "A": [[["1"]], [["u"]]], "b": ["0"]}
    cases = {"'b'": dict(good, b=[0]),
             "'A'": dict(good, A=[[[1]], [["u"]]]),
             "JSON object": [good],
             "'independent'": dict(good, independent="tx"),
             "'parameters'": dict(good, parameters=[["m"]])}
    for i, (message, data) in enumerate(cases.items()):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(data))
        assert main(["describe", "--system", str(path)]) == EXIT_REQUEST
        assert message in capsys.readouterr().err, message
        out = tmp_path / f"out{i}"
        assert main(["run", "--system", str(path), "--domain",
                     "t=0:1,x=0:1,u=0:1", "--grid", "t=0:1:2,x=0:1:2",
                     "--out", str(out)]) == EXIT_REQUEST
        assert message in capsys.readouterr().err, message
        assert not out.exists(), message


def test_run_undeclared_param_exit2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--system", "example3", "--param", "zz=2",
                 "--out", str(out)]) == EXIT_REQUEST
    assert "undeclared parameters ['zz']" in capsys.readouterr().err
    assert not out.exists()


def test_run_undeclared_domain_name_exit2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--system", "example3", "--domain", "zz=0:1",
                 "--stages", "homogenize,elements,conditions",
                 "--out", str(out)]) == EXIT_REQUEST
    assert "undeclared variables ['zz']" in capsys.readouterr().err
    assert not out.exists()
    # the variable homogenization adds is declared, under its given name
    out = tmp_path / "homogenized"
    assert main(["run", "--system", "brownian", "--homogenize-var", "w",
                 "--domain", "w=-0.4:0.4", "--stages", "homogenize",
                 "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "homogenization.json").read_text())[
        "new_variable"] == "w"


def test_run_repeated_range_name_exit2(tmp_path, capsys):
    # the last range, or the last --param value, used to win silently
    for message, argv in (
            ("grid names 't' twice",
             ["--grid", "t=0.1:1:3,t=0.2:1:3,x=1:3:3,y=1:3:3"]),
            ("domain names 't' twice",
             ["--domain", "t=0.1:1,x=1:3,t=0.2:1"]),
            ("--param names 'm' twice", ["--param", "m=1", "--param", "m=2"])):
        out = tmp_path / argv[0].strip("-")
        assert main(["run", "--system", "example3", *argv,
                     "--out", str(out)]) == EXIT_REQUEST, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_run_grid_axes_must_be_the_independent_variables(tmp_path):
    # an extra axis (each point was solved twice) and a missing one (a
    # KeyError in the solver): exit 2 from the solve stage, no solution
    for name, grid in (("extra", "t=0.1:1:3,x=1:3:3,y=1:3:3,zz=0:1:2"),
                       ("missing", "t=0.1:1:3,x=1:3:3")):
        out = tmp_path / name
        assert main(["run", "--system", "example3", "--grid", grid,
                     "--out", str(out)]) == EXIT_REQUEST, name
        outcomes = json.loads((out / "outcomes.json").read_text())
        assert outcomes["rescale"]["ok"] is True, name
        assert outcomes["solve"]["ok"] is False, name
        assert "must be the independent variables ['t', 'x', 'y']" in \
            outcomes["solve"]["detail"], name
        assert not (out / "solution.csv").exists(), name
