#!/usr/bin/env python3
"""rwave benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rwave is imported from ``src``.
One process, one client, closed loop: the next operation starts when the
previous one has returned.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json for
``--seconds`` seconds.  ``--trace 1`` runs one traced unit of work (see
``workloads``) untraced and then traced, checks that both give the same
reports byte for byte, and prints the per-layer metrics.
"""

from __future__ import annotations

import os

# one thread of work: pin BLAS before numpy is imported, here and in the
# set-up child processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import probes  # noqa: E402
from speed import Speedometer  # noqa: E402
from stats import median, min_samples_for, tail_percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("example2-grid", "example3-grid", "frames", "verdicts")
SETUP_REPS = 3

SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import rwave.cli
t1 = time.perf_counter()
rwave.cli.load_system(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def measure_setup(fixture, reps=SETUP_REPS):
    """Fresh interpreter -> ``import rwave.cli`` + ``load_system``, timed
    from outside.  Returns the median wall seconds and the child's own
    median import / load_system split.  Called after this process has
    imported rwave, so byte-code caches are as warm as a user's."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports, loads = [], [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, fixture],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        walls.append(time.perf_counter() - t0)
        imp, load = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(imp)
        loads.append(load)
    return median(walls), median(imports), median(loads)


def timed_run(workload, i, tag, pause=None):
    """Run operation ``i``; returns (seconds, result or the exception).
    Time the operation spends in ``pause`` (which it may call between its
    parts) is not counted."""
    paused = 0.0

    def hold():
        nonlocal paused
        if pause is not None:
            t = time.perf_counter()
            pause()
            paused += time.perf_counter() - t

    t0 = time.perf_counter()
    try:
        result = workload.run(i, tag, hold)
    except Exception as err:       # a failed operation is counted, not fatal
        result = err
    return time.perf_counter() - t0 - paused, result


def outcome_of(workload, i, result):
    from workloads import Outcome
    if isinstance(result, Exception):
        return Outcome(False, repr(result), b"", {})
    try:
        return workload.check(i, result)
    except Exception as err:
        return Outcome(False, f"check: {err!r}", b"", {})


def attempt(workload, i, tag, pause=None):
    """Run and check one operation; returns (seconds, Outcome)."""
    elapsed, result = timed_run(workload, i, tag, pause)
    return elapsed, outcome_of(workload, i, result)


def measure(workload, seconds, speedo):
    """Closed loop for ``seconds``: returns (latencies of passing
    operations, attempted, failed).

    Operations start while the window lasts, unless the next one, judged
    by the last, would end after 1.5 windows; so a run takes at most 1.5
    windows or one operation, whichever is longer.  Reference slices are
    taken between operations, outside the latencies.
    """
    latencies, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        speedo.sample()
        elapsed, outcome = attempt(workload, attempted, "op", speedo.sample)
        attempted += 1
        if outcome.ok:
            latencies.append(elapsed)
        else:
            failed += 1
            log(f"operation {attempted - 1} failed: {outcome.detail}")
        used = time.perf_counter() - start
        if used >= seconds or used + elapsed > 1.5 * seconds:
            return latencies, attempted, failed


def end_to_end(workload, seconds, setup_s, speedo):
    """Times are reported in nominal seconds (see ``speed``); the wall
    values are printed alongside."""
    latencies, attempted, failed = measure(workload, seconds, speedo)
    speedo.sample(force=True)
    if not latencies:
        return False, attempted, failed, None
    scale = speedo.scale()
    p50, p95 = median(latencies), tail_percentile(latencies)
    print(f"operations: {len(latencies)} passed of {attempted}; speed scale "
          f"{scale:.4f} from {len(speedo.slices)} reference slices")
    print(f"wall: setup_s {setup_s:.6f} s, op_s_p50 {p50:.6f} s, op_s_p95 "
          + (f"{p95:.6f} s" if p95 is not None else
             f"n/a (needs {min_samples_for()} samples)"))
    metrics = {
        "setup_s": setup_s * scale,
        "op_s_p50": p50 * scale,
        "ops_per_s": len(latencies) / sum(latencies) / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return failed == 0, attempted, failed, metrics


def per_layer(workload, setup_split):
    """Untraced unit, traced unit, restore, compare; returns
    (correct, attempted, failed, metrics)."""
    n = workload.trace_ops

    def unit(tag):
        t0 = time.perf_counter()
        results = [timed_run(workload, i, tag)[1] for i in range(n)]
        return time.perf_counter() - t0, results

    t_plain, plain = unit("plain")
    tracer = probes.Tracer()
    with tracer:
        t_traced, traced = unit("traced")
    plain = [outcome_of(workload, i, r) for i, r in enumerate(plain)]
    traced = [outcome_of(workload, i, r) for i, r in enumerate(traced)]

    correct = True
    left = probes.installed_wrappers()
    if left:
        log(f"wrappers left installed: {left}")
        correct = False
    failed = sum(not o.ok for o in plain + traced)
    if failed:
        details = [o.detail for o in plain + traced if not o.ok]
        log(f"{failed} operations failed: {details[:3]}")
        correct = False
    elif any(a.record != b.record for a, b in zip(plain, traced)):
        log("traced reports differ from the untraced reports")
        correct = False

    metrics = tracer.snapshot()
    for key in ("newton_iters_mean", "converged_frac"):
        vals = [o.extra[key] for o in traced if key in o.extra]
        if vals:
            metrics[f"solver.{key}"] = sum(vals) / len(vals)
    metrics["trace.overhead_s"] = t_traced - t_plain
    metrics["setup.import_s"], metrics["setup.load_system_s"] = setup_split

    mismatches = 0
    for name, want in workload.known_counts().items():
        got = metrics.get(name, 0)
        if got != want:
            mismatches += 1
            log(f"count {name} = {got}, known value {want}")
    metrics["trace.count_mismatches"] = mismatches
    print(f"untraced unit {t_plain:.3f} s, traced unit {t_traced:.3f} s, "
          f"{n} operation(s) each")
    return correct, 2 * n, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rwave" / "__init__.py").is_file():
        log(f"error: no rwave sources under {SRC}; run from a checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    speedo = Speedometer()
    speedo.sample(force=True)
    fixture = workloads.SETUP_FIXTURE[args.workload]
    setup_s, import_s, load_s = measure_setup(fixture)
    speedo.sample(force=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        if args.trace:
            correct, attempted, failed, values = per_layer(workload,
                                                           (import_s, load_s))
            wanted = spec["per_layer"]
        else:
            correct, attempted, failed, values = end_to_end(
                workload, args.seconds, setup_s, speedo)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if values is None:
        log("no operation passed; nothing to report")
        return 1
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
