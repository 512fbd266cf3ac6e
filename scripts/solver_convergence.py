#!/usr/bin/env python3
"""Grid-refinement study: the march and the oracle (the product-trapezoid
cross-check) on the same problem, each with its self-convergence error
against its own finest grid and the rate, plus their disagreement.

An error that is exactly 0 (a march that is exact on the problem) has no
rate; it prints as "-".

Example:
    python scripts/solver_convergence.py --problem tests/fixtures/frac_delay_a07.json --horizon 3
"""

import argparse
import sys
import time

import numpy as np

from fracdelay import align_grid, load_problem, solve_oracle, solve_trajectory


def _rate(prev_err, err) -> str:
    if prev_err is None or prev_err == 0 or err == 0:
        return "-"
    return f"{np.log2(prev_err / err):.2f}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problem", required=True)
    ap.add_argument("--horizon", type=float, default=3.0)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--base-step", type=float, default=0.02)
    args = ap.parse_args()

    prob = load_problem(args.problem)
    fine = align_grid(args.base_step / 2 ** (args.levels + 1), args.horizon,
                      prob.system.delays)
    ref = solve_trajectory(prob, fine)
    ref_orac = solve_oracle(prob, fine)

    print(f"{'step':>10} {'march_err':>11} {'rate':>5} {'oracle_err':>11} "
          f"{'rate':>5} {'oracle_diff':>11} {'march_s':>8} {'oracle_s':>9}")
    prev = (None, None)
    for level in range(args.levels):
        step = args.base_step / 2 ** level
        grid = align_grid(step, args.horizon, prob.system.delays)
        t0 = time.perf_counter()
        traj = solve_trajectory(prob, grid)
        t_march = time.perf_counter() - t0
        t0 = time.perf_counter()
        orac = solve_oracle(prob, grid)
        t_orac = time.perf_counter() - t0
        stride = round(grid.step / fine.step)
        n = traj.states.shape[0]
        errs = tuple(float(np.max(np.abs(s.states - r.states[::stride][:n])))
                     for s, r in ((traj, ref), (orac, ref_orac)))
        diff = float(np.max(np.abs(traj.states - orac.states)))
        cols = [f"{e:11.4e} {_rate(p, e):>5}" for p, e in zip(prev, errs)]
        print(f"{grid.step:10.5g} {cols[0]} {cols[1]} {diff:11.4e} "
              f"{t_march:8.2f} {t_orac:9.2f}")
        prev = errs
    return 0


if __name__ == "__main__":
    sys.exit(main())
