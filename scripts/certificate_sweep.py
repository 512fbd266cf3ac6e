#!/usr/bin/env python3
"""Sweep the certificate value over a delta grid and print the value at the
delay next to the measured decay of consecutive delay windows of a
simulation.  The value is not a bound on those window ratios (README,
"Interpreting certificates"); only the verdict is claimed.

Example:
    python scripts/certificate_sweep.py --problem tests/fixtures/scalar_contractive.json
"""

import argparse
import sys

import numpy as np

from fracdelay import align_grid, certify, load_problem, solve_trajectory


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problem", required=True)
    ap.add_argument("--delta-min", type=float, default=0.01)
    ap.add_argument("--delta-max", type=float, default=100.0)
    ap.add_argument("--count", type=int, default=25)
    ap.add_argument("--windows", type=int, default=20,
                    help="number of delay windows to simulate")
    args = ap.parse_args()

    prob = load_problem(args.problem)
    grid_deltas = np.geomspace(args.delta_min, args.delta_max, args.count)
    report = certify(prob, delta_grid=grid_deltas)
    print(f"verdict: {report.verdict}")
    if report.contraction_constant is not None:
        print(f"best value {report.contraction_constant:.6f} "
              f"at delta = {report.witness_delta:.4g}")
    print(f"{'delta':>12} {'value':>12} {'feasible':>9}")
    for e in report.grid:
        print(f"{e.delta:12.5g} {e.value:12.6g} {str(e.feasible):>9}")

    r1 = next((d for d in prob.system.delays if d > 0), None)
    if r1 is None:
        return 0
    at_delay = certify(prob, delta_grid=[r1])
    if at_delay.verdict != "ContractiveGAS":
        print(f"\nno contraction certificate at delta = r1 = {r1}")
        return 0
    kc = at_delay.contraction_constant
    sim = align_grid(r1 / 200, args.windows * r1, prob.system.delays)
    traj = solve_trajectory(prob, sim)
    lag = int(round(r1 / sim.step))
    sups = [float(np.max(np.linalg.norm(
        traj.states[k * lag:(k + 1) * lag], np.inf, axis=1)))
        for k in range(args.windows)]
    print(f"\ncertificate value at delta = r1: {kc:.6f}")
    print(f"{'window':>7} {'sup':>14} {'ratio':>10}")
    for k, s in enumerate(sups):
        ratio = "" if k == 0 or sups[k - 1] == 0 else f"{s / sups[k - 1]:10.6f}"
        print(f"{k:7d} {s:14.8g} {ratio:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
