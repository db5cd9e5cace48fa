import numpy as np

from rwave import reports
from rwave.expr import VarSpace
from rwave.solver import SolutionField


def reference_write_solution_field(path, field, residual_norms=None):
    # the per-cell writer the table format was defined by
    res = residual_norms if residual_norms is not None \
        else np.full(field.n, np.nan)
    with open(path, "w") as fh:
        fh.write("# solution-field v%d\n" % reports.SOLUTION_SCHEMA_VERSION)
        fh.write(",".join(reports.solution_field_header(field)) + "\n")
        for i in range(field.n):
            row = [repr(float(v)) for v in field.x[i]]
            row += [repr(float(v)) for v in field.tau[i]]
            row += [repr(float(v)) for v in field.u[i]]
            row += [repr(float(res[i])), repr(float(field.det_monitor[i])),
                    str(int(field.iters[i])), str(bool(field.converged[i])),
                    str(bool(field.catastrophe[i]))]
            fh.write(",".join(row) + "\n")


def awkward_field():
    rng = np.random.default_rng(2)
    n = 40
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e308, 1 / 3]
    x = rng.uniform(-3, 3, (n, 3))
    x[:8, 0] = special
    tau = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-20, 20, (n, 2))
    tau[8:16, 1] = special
    u = rng.standard_normal((n, 2))
    u[16:24, 0] = special
    conv = rng.random(n) < 0.7
    tau[~conv] = np.nan
    u[~conv] = np.nan
    det = rng.standard_normal(n)
    det[24:32] = special
    det[32] = 1e-12                        # a catastrophe
    conv[32] = True
    return SolutionField(
        space=VarSpace(("t", "x", "y"), ("u1", "u2")),
        x_names=("t", "x", "y"), x=x, params={}, tau_names=("a", "b"),
        tau=tau, u=u, iters=rng.integers(0, 90, n), converged=conv,
        determinant=lambda: det, resolver=None)


def repeating_field():
    # every column draws from a few values, -0.0 beside 0.0, NaN and both
    # infinities among them, so that each value repeats down its column
    rng = np.random.default_rng(4)
    n = 60
    pool = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1 / 3, -2.5e-17])
    conv = rng.random(n) < 0.8
    conv[0] = True
    det = rng.choice(pool, n)
    det[0] = 1e-12                         # a catastrophe
    return SolutionField(
        space=VarSpace(("t", "x", "y"), ("u1", "u2")),
        x_names=("t", "x", "y"), x=rng.choice(pool, (n, 3)), params={},
        tau_names=("a", "b"), tau=rng.choice(pool, (n, 2)),
        u=rng.choice(pool, (n, 2)), iters=rng.integers(0, 3, n),
        converged=conv, determinant=lambda: det, resolver=None)


def test_solution_writer_bytes_match_per_cell_writer(tmp_path):
    for field in (awkward_field(), repeating_field()):
        assert field.catastrophe.any() and not field.converged.all()
        res = np.abs(np.random.default_rng(3).standard_normal(field.n))
        res[::5] = np.nan
        res[1] = -0.0
        res[2] = np.inf
        for norms in (None, res, list(res)):
            reports.write_solution_field(tmp_path / "got.csv", field, norms)
            reference_write_solution_field(tmp_path / "want.csv", field,
                                           norms)
            assert ((tmp_path / "got.csv").read_bytes()
                    == (tmp_path / "want.csv").read_bytes())
