import dataclasses
import json
import subprocess
import sys
from pathlib import Path

from rwave import cli
from rwave.cli import (
    EXIT_CONDITION,
    EXIT_OK,
    EXIT_REQUEST,
    EXIT_SOLVER,
    AnalysisRequest,
    describe,
    main,
    run,
)
from rwave.reports import read_solution_field_table


def base_request(tmp_path, **overrides):
    kw = dict(system="example2", domain={}, stages=("homogenize", "elements",
                                                    "conditions", "rescale",
                                                    "solve", "verify"),
              grid={"t": (1.0, 3.0, 5), "x": (1.0, 3.0, 3),
                    "y": (0.2, 0.9, 5)},
              out_dir=str(tmp_path / "out"), seed=11)
    kw.update(overrides)
    return AnalysisRequest(**kw)


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


def test_run_verify_neighbor_diverged_exit4(tmp_path, monkeypatch, capsys):
    real_solve = cli.solve_implicit

    def solve_with_failing_resolver(*args, **kwargs):
        field = real_solve(*args, **kwargs)
        resolve = field.resolver

        def resolver(env):
            out = resolve(env)
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
