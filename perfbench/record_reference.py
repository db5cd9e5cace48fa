#!/usr/bin/env python3
"""Write reference.json: a fingerprint of the solution each grid workload
produces (u and tau at 32 spread points, plus column sums).

    python3 perfbench/record_reference.py

The committed file was recorded at the commit that introduced the
benchmark; the grid workloads' correctness gate compares against it.
Re-record only when a change to the mathematics is intended.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main():
    workdir = HERE.parent / ".bench_work" / "reference"
    out = {}
    try:
        for name in ("example2-grid", "example3-grid"):
            w = workloads.make(name, 0, workdir)
            code, path = w.run(0, "ref")
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            cols = workloads.solution_columns(path / "solution.csv")
            out[w.system] = workloads.fingerprint(cols)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
