#!/usr/bin/env python3
"""Reproduce the ROADMAP baseline table with the benchmark's own builders.

    python3 perfbench/baseline.py

Run by hand, once per machine; it is not one of the benchmark's workloads.
Prints one line per row (median wall seconds over the stated repeats) and
the numbers behind the ``test_hard_regimes_against_reference`` finding.
The BLAS thread cap is the benchmark's.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402  (caps BLAS threads before numpy loads)

NPROC, THREADS = run.cap_blas_threads()

import numpy as np  # noqa: E402

import fracdelay as fd  # noqa: E402
import workloads as W  # noqa: E402


def timed(fn, repeats=1):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def row(what, seconds, note=""):
    print(f"{what:58s} {seconds:9.3f} s {note}", flush=True)


def main():
    print(json.dumps({"nproc": NPROC, "blas_threads": THREADS,
                      "python": sys.version.split()[0],
                      "numpy": np.__version__, "git_sha": run.git_sha()}))

    # Mittag-Leffler hard regimes: library versus the test's reference
    from test_mlf import ml_reference
    cases = [(0.5, 1.0, -40.0), (0.7, 0.7, -12.0), (1.5, 1.5, -80.0),
             (0.7, 1.0, complex(-4, 6)), (0.6, 1.6, -7.0),
             (1.2, 1.2, -60.0), (0.9, 2.0, -18.0), (0.4, 1.0, -3.0)]
    row("hard regimes: library ml_scalar, 8 cases (cold)",
        timed(lambda: [fd.ml_scalar(a, b, z) for a, b, z in cases]))
    row("hard regimes: library ml_scalar, 8 cases (warm, x5)",
        timed(lambda: [fd.ml_scalar(a, b, z) for a, b, z in cases], 5))
    row("hard regimes: test reference ml_reference, 8 cases",
        timed(lambda: [ml_reference(a, b, z) for a, b, z in cases]))

    code = ("import time; t = time.perf_counter(); import fracdelay; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    imports = [float(subprocess.run([sys.executable, "-c", code], env=env,
                                    capture_output=True, text=True,
                                    check=True).stdout)
               for _ in range(5)]
    row("import fracdelay (5 fresh processes)", statistics.median(imports))

    scalar = fd.load_problem(ROOT / "tests" / "fixtures" /
                             "frac_delay_a07.json")
    row("certify, default grid, scalar alpha=0.7 one delay (x3)",
        timed(lambda: fd.certify(scalar), 3))
    rng = W.rng_for("baseline", 0)
    six = W.make_problem(rng, 6, 0.8, W.spectrum(6, 0.5, 2.0), None,
                         [0.0, 0.5], None, None, t_end=10.0)
    row("certify, default grid, 6x6 alpha=0.8 one delay (x1)",
        timed(lambda: fd.certify(six)))

    for L in (1250, 2500, 5000, 10000):
        grid = fd.align_grid(10.0 / L, 10.0, scalar.system.delays)
        row(f"march, scalar, L = {grid.node_count - 1} (x3)",
            timed(lambda: fd.solve_trajectory(scalar, grid), 3))
    six_sim = W.make_problem(rng, 6, 0.8, W.spectrum(6, 0.5, 2.0), 0.15,
                             [0.0, 0.5], None, None, t_end=10.0)
    for L in (1250, 2500, 5000):
        grid = fd.align_grid(10.0 / L, 10.0, six_sim.system.delays)
        row(f"march, 6x6, L = {grid.node_count - 1} (x3)",
            timed(lambda: fd.solve_trajectory(six_sim, grid), 3))


if __name__ == "__main__":
    main()
