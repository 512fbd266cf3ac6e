#!/usr/bin/env python3
"""Replay the Mittag-Leffler calls of the fixtures on two source trees.

Records every ``ml_scalar_array`` call that ``certify`` and
``solve_trajectory`` (the CLI's default grid: step 0.01, horizon 10) make on
``tests/fixtures/*.json``, using the OLD tree, then replays each call on
both trees, interleaved, and prints per call the best time of each and
whether the values are equal (``np.array_equal``).  Each SRC is a directory
that holds the ``fracdelay`` package, such as a checkout's ``src``.

Example, against the parent commit:
    git archive HEAD~1 | (mkdir -p /tmp/old && tar -x -C /tmp/old)
    python scripts/compare_ml.py /tmp/old/src src

The exit status is 1 when any call's values differ.
"""

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def load_tree(name: str, src: Path):
    """The ``fracdelay`` package under ``src``, imported as ``name``."""
    pkg = src / "fracdelay"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def record_calls(fd) -> list:
    """(alpha, beta, z) of every ml_scalar_array call on the fixtures."""
    calls = []
    inner = fd.mlf.ml_scalar_array

    def recorded(alpha, beta, z):
        calls.append((float(alpha), float(beta),
                      np.array(z, dtype=complex, copy=True)))
        return inner(alpha, beta, z)

    # kernels imports the function by name; mlf calls its own global
    fd.mlf.ml_scalar_array = fd.kernels.ml_scalar_array = recorded
    try:
        for path in sorted(FIXTURES.glob("*.json")):
            prob = fd.load_problem(str(path))
            fd.certify(prob)
            grid = fd.align_grid(0.01, 10.0, prob.system.delays)
            fd.solve_trajectory(prob, grid)
    finally:
        fd.mlf.ml_scalar_array = fd.kernels.ml_scalar_array = inner
    return calls


def timed(fd, alpha, beta, z):
    """(seconds, values or the error's repr) of one call on tree ``fd``."""
    t0 = time.perf_counter()
    with np.errstate(all="ignore"):
        try:
            out = fd.mlf.ml_scalar_array(alpha, beta, z)
        except fd.errors.FracDelayError as exc:
            out = repr(exc)
    return time.perf_counter() - t0, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--repeat", type=int, default=5,
                    help="timed runs per call and tree (best is kept)")
    args = ap.parse_args()
    old = load_tree("fracdelay_old", args.old_src)
    new = load_tree("fracdelay_new", args.new_src)
    calls = record_calls(old)
    print(f"{'call':>5} {'alpha':>6} {'beta':>6} {'points':>7} "
          f"{'old_s':>10} {'new_s':>10} {'new/old':>8} equal")
    differ = 0
    total = [0.0, 0.0]
    for i, (alpha, beta, z) in enumerate(calls):
        best = [np.inf, np.inf]
        outs = [None, None]
        for r in range(args.repeat):
            # alternate which tree goes first
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                t, outs[side] = timed((old, new)[side], alpha, beta, z)
                best[side] = min(best[side], t)
        a, b = outs
        same = (a == b if isinstance(a, str) or isinstance(b, str)
                else np.array_equal(a, b, equal_nan=True))
        differ += not same
        total[0] += best[0]
        total[1] += best[1]
        print(f"{i:5d} {alpha:6.3f} {beta:6.3f} {z.size:7d} {best[0]:10.6f} "
              f"{best[1]:10.6f} {best[1] / best[0]:8.3f} {same}")
    print(f"{len(calls)} calls, {differ} differ; summed best times "
          f"old {total[0]:.4f} s, new {total[1]:.4f} s "
          f"({total[1] / total[0]:.3f}x)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
