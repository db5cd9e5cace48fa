"""Per-layer tracing of rwave from outside the package.

``Tracer.install`` wraps the module-level functions (and a few methods)
that each rwave layer exposes.  A wrapper replaces the function in every
loaded ``rwave`` module that holds a reference to it, not only in the
defining module, so ``cli.recover_decomposition`` and
``geometry.is_zero`` are counted as well as ``verify.recover_decomposition``
and ``expr.is_zero``.  ``Tracer.uninstall`` puts every original back.

Counting rule: ``calls`` counts every invocation, recursive ones included;
``seconds`` is inclusive wall time of the outermost invocation only, so a
recursive function is not double counted.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

MARKER = "__perfbench_original__"

# cli stages in pipeline order, each ended by the event named here
STAGES = ("homogenize", "elements", "conditions", "potentials", "rescale",
          "surface", "solve", "verify")
_STAGE_END_FILES = {"homogenization.json": "homogenize",
                    "elements.json": "elements",
                    "conditions.json": "conditions",
                    "rescaling.json": "rescale",
                    "outcomes.json": "verify"}

# (module, qualified name, metric prefix, extra behaviour)
TARGETS = (
    ("rwave.cli", "run", "cli.run", "run"),
    ("rwave.cli", "_build_surface", "cli.build_surface", "mark:surface"),
    ("rwave.solver", "build_hodograph", "solver.build_hodograph", None),
    ("rwave.solver", "integrate_characteristic",
     "solver.integrate_characteristic", None),
    ("rwave.solver", "_swap_order_check", "solver.swap_order_check", None),
    ("rwave.solver", "solve_implicit", "solver.solve_implicit", "solve"),
    ("rwave.solver", "SolutionField.resolve", "solver.resolve", None),
    ("rwave.ode", "rk4", "ode.rk4", "rhs"),
    ("rwave.ode", "rk4_lanes", "ode.rk4_lanes", "rhs"),
    ("rwave.exprmat", "eval_vector", "exprmat.eval_vector", "lanes"),
    ("rwave.exprmat", "eval_matrix", "exprmat.eval_matrix", None),
    ("rwave.expr", "is_zero", "expr.is_zero", None),
    ("rwave.expr", "simplify", "expr.simplify", None),
    ("rwave.geometry", "kernel_elements", "geometry.kernel_elements", None),
    ("rwave.geometry", "check_kwave_conditions",
     "geometry.check_kwave_conditions", None),
    ("rwave.geometry", "find_potential", "geometry.find_potential",
     "mark:potentials"),
    ("rwave.geometry", "lie_bracket", "geometry.lie_bracket", None),
    ("rwave.frobenius", "rescale_frame", "frobenius.rescale_frame", None),
    ("rwave.frobenius", "pair_bracket_coefficients",
     "frobenius.pair_bracket_coefficients", None),
    ("rwave.frobenius", "solve_transport_system",
     "frobenius.solve_transport_system", None),
    ("rwave.frobenius", "compatibility_check", "frobenius.compatibility_check",
     None),
    ("rwave.frobenius", "commutation_residual",
     "frobenius.commutation_residual", None),
    ("rwave.frobenius", "VectorField.bracket_with", "frobenius.bracket_with",
     None),
    ("rwave.frobenius", "ScalarFn.ev", "frobenius.scalar_ev", None),
    ("numpy.linalg", "lstsq", "numpy.lstsq", None),
    ("rwave.verify", "residual_report", "verify.residual_report", None),
    ("rwave.verify", "fd_jacobian_batch", "verify.fd_jacobian_batch", None),
    ("rwave.verify", "recover_decomposition", "verify.recover_decomposition",
     None),
    ("rwave.verify", "constancy_along_kernel", "verify.constancy_along_kernel",
     None),
    ("rwave.system", "homogenize", "system.homogenize", None),
    ("rwave.system", "QuasilinearSystem.residual_batch",
     "system.residual_batch", None),
    ("rwave.reports", "write_json", "reports.write", "report"),
    ("rwave.reports", "write_solution_field", "reports.write", "report"),
)


def _is_wrapper(value):
    return isinstance(value, types.FunctionType) and MARKER in vars(value)


def _resolve(module_name, qualname):
    """(owner object, attribute name) for a module function or a method."""
    owner = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _holders(module_name, original):
    """Every (module, attribute) that refers to ``original``: the defining
    module plus each loaded rwave module that imported it by name."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == module_name or name == "rwave"
                               or name.startswith("rwave.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr))
    return found


class Tracer:
    """Counters and timers filled by the wrappers while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)    # other work counters
        self._depth = defaultdict(int)
        self._patches = []                  # (owner, attribute, original)
        self._marks = {}
        self._run_start = None

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, qualname, metric, extra in TARGETS:
                owner, attr = _resolve(module_name, qualname)
                original = vars(owner)[attr]
                if _is_wrapper(original):
                    raise RuntimeError(f"{module_name}.{qualname} is already "
                                       "wrapped")
                wrapper = self._wrap(original, metric, extra)
                holders = ([(owner, attr)] if "." in qualname
                           else _holders(module_name, original))
                for holder, name in holders:
                    self._patches.append((holder, name, original))
                    setattr(holder, name, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, metric, extra):
        tracer = self
        skip_under = "solver.resolve" if extra == "solve" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[metric] += 1
            if extra == "rhs":    # rwave passes the right-hand side first
                args = (tracer._count_rhs(args[0]),) + args[1:]
            if extra == "run":
                tracer._marks = {}
                tracer._run_start = time.perf_counter()
            outermost = not tracer._depth[metric] and not (
                skip_under and tracer._depth[skip_under])
            tracer._depth[metric] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._depth[metric] -= 1
                if outermost:
                    tracer.seconds[metric] += t1 - t0
            tracer._after(extra, metric, outermost, result, t1)
            return result

        setattr(wrapper, MARKER, fn)
        return wrapper

    def _count_rhs(self, f):
        tracer = self

        def rhs(s, y):
            tracer.counts["ode.rhs_calls"] += 1
            tracer.counts["ode.rhs_lanes"] += y.shape[0] if y.ndim == 2 else 1
            return f(s, y)

        return rhs

    def _after(self, extra, metric, outermost, result, t_end):
        if extra is None:
            return
        if extra == "lanes":
            self.counts[metric + "_lanes"] += (result.shape[0]
                                               if result.ndim == 2 else 1)
        elif extra == "report":
            path = Path(result)
            self.counts["reports.bytes_written"] += os.path.getsize(path)
            stage = _STAGE_END_FILES.get(path.name)
            if stage:
                self._marks[stage] = t_end
        elif extra.startswith("mark:"):
            self._marks[extra[5:]] = t_end
        elif extra == "solve" and outermost:
            self._marks["solve"] = t_end
        elif extra == "run":
            prev = self._run_start
            for stage in STAGES:
                if stage in self._marks:
                    end = self._marks[stage]
                    self.seconds[f"cli.stage.{stage}"] += end - prev
                    prev = end

    # -- results ----------------------------------------------------------

    def snapshot(self):
        """Flat {metric: value} of everything recorded so far."""
        out = {}
        for metric, n in self.calls.items():
            out[metric + "_calls"] = n
        for metric, s in self.seconds.items():
            out[metric + "_s"] = s
        out.update(self.counts)
        return out


def installed_wrappers():
    """(module, attribute) pairs in loaded rwave/numpy.linalg modules and
    traced classes that still hold a wrapper; empty once uninstalled."""
    left = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name in ("rwave", "numpy.linalg")
                               or name.startswith("rwave.")):
            continue
        for attr, value in list(vars(mod).items()):
            if _is_wrapper(value):
                left.append((name, attr))
    for module_name, qualname, _, _ in TARGETS:
        if "." in qualname:
            owner, attr = _resolve(module_name, qualname)
            if _is_wrapper(vars(owner)[attr]):
                left.append((module_name, qualname))
    return left
