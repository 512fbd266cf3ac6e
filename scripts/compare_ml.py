#!/usr/bin/env python3
"""Replay the Mittag-Leffler and kernel-integral calls of the fixtures on two
source trees.

Records every ``ml_scalar_array`` call that ``certify``,
``delay_free_certify`` (on the delay-free fixtures, as the CLI does) and
``solve_trajectory`` (the CLI's default grid: step 0.01, horizon 10) make on
``tests/fixtures/*.json``, and every ``Kernels.norm_integrals`` call that
the two certificates make, using the OLD tree.  Then it replays each call on
both trees, interleaved, and prints per call the best time of each,
whether the values are equal (``np.array_equal``) and the largest relative
difference between them, and per section the largest of those.  A
``norm_integrals`` call is replayed on a kernel object built outside the
timed region; only the outermost call is recorded, not the one a single
delta makes on its halving edges.  Each SRC is a directory that holds the
``fracdelay`` package, such as a checkout's ``src``.

Example, against the parent commit:
    git archive HEAD~1 | (mkdir -p /tmp/old && tar -x -C /tmp/old)
    python scripts/compare_ml.py /tmp/old/src src

The exit status is 1 when any call's values differ, whatever their
relative difference.
"""

import argparse
import importlib.util
import math
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


def record_calls(fd):
    """(alpha, beta, z) of every ml_scalar_array call and (alpha, A0,
    edges, powers) of every outermost norm_integrals call on the fixtures."""
    ml_calls, quad_calls = [], []
    inner_ml = fd.mlf.ml_scalar_array
    inner_quad = fd.kernels.Kernels.norm_integrals
    depth = [0]

    def recorded_ml(alpha, beta, z):
        ml_calls.append((float(alpha), float(beta),
                         np.array(z, dtype=complex, copy=True)))
        return inner_ml(alpha, beta, z)

    def recorded_quad(self, edges, powers):
        if not depth[0]:
            quad_calls.append((self.alpha, self.A0.copy(),
                               np.array(edges, dtype=float, copy=True),
                               tuple(powers)))
        depth[0] += 1
        try:
            return inner_quad(self, edges, powers)
        finally:
            depth[0] -= 1

    # kernels imports the function by name; mlf calls its own global
    fd.mlf.ml_scalar_array = fd.kernels.ml_scalar_array = recorded_ml
    fd.kernels.Kernels.norm_integrals = recorded_quad
    try:
        for path in sorted(FIXTURES.glob("*.json")):
            prob = fd.load_problem(str(path))
            fd.certify(prob)
            if prob.system.is_delay_free:
                try:
                    fd.delay_free_certify(prob)
                except fd.errors.FracDelayError:
                    pass
            grid = fd.align_grid(0.01, 10.0, prob.system.delays)
            fd.solve_trajectory(prob, grid)
    finally:
        fd.mlf.ml_scalar_array = fd.kernels.ml_scalar_array = inner_ml
        fd.kernels.Kernels.norm_integrals = inner_quad
    return ml_calls, quad_calls


def timed(fd, fn, *args):
    """(seconds, values or the error's repr) of ``fn(*args)`` on tree
    ``fd``."""
    t0 = time.perf_counter()
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except fd.errors.FracDelayError as exc:
            out = repr(exc)
    return time.perf_counter() - t0, out


def rel_diff(old, new) -> float:
    """Largest |new - old| / |old| over the values: 0 where they are equal
    (infinities and NaNs included), inf where only one is finite, old is 0,
    or only one call raised."""
    if isinstance(old, str) or isinstance(new, str):
        return 0.0 if old == new else math.inf
    old, new = np.asarray(old), np.asarray(new)
    with np.errstate(all="ignore"):
        rel = np.abs(new - old) / np.abs(old)
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    rel = np.where(same, 0.0, np.where(np.isnan(rel), math.inf, rel))
    return float(np.max(rel, initial=0.0))


def compare(trees, calls, repeat: int, label) -> tuple:
    """Replay ``calls`` (each a per-tree (fn, args) maker) on both trees;
    print one line per call; return (differing calls, summed best times,
    largest relative difference)."""
    differ = 0
    total = [0.0, 0.0]
    worst = 0.0
    for i, call in enumerate(calls):
        made = [call(fd) for fd in trees]
        best = [np.inf, np.inf]
        outs = [None, None]
        for r in range(repeat):
            # alternate which tree goes first
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                t, outs[side] = timed(trees[side], *made[side])
                best[side] = min(best[side], t)
        a, b = outs
        same = (a == b if isinstance(a, str) or isinstance(b, str)
                else np.array_equal(a, b, equal_nan=True))
        rel = rel_diff(a, b)
        differ += not same
        total[0] += best[0]
        total[1] += best[1]
        worst = max(worst, rel)
        print(f"{i:5d} {label(i)} {best[0]:10.6f} {best[1]:10.6f} "
              f"{best[1] / best[0]:8.3f} {same!s:>5} {rel:8.2e}")
    return differ, total, worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--repeat", type=int, default=5,
                    help="timed runs per call and tree (best is kept)")
    args = ap.parse_args()
    trees = (load_tree("fracdelay_old", args.old_src),
             load_tree("fracdelay_new", args.new_src))
    ml_calls, quad_calls = record_calls(trees[0])
    differ = 0

    def ml_call(c):
        return lambda fd: (fd.mlf.ml_scalar_array, *c)

    def quad_call(c):
        alpha, A0, edges, powers = c
        return lambda fd: (fd.kernels.Kernels(alpha, A0).norm_integrals,
                           edges, powers)

    sections = (
        ("ml_scalar_array", f"{'alpha':>6} {'beta':>6} {'points':>7}",
         [ml_call(c) for c in ml_calls],
         lambda i: (f"{ml_calls[i][0]:6.3f} {ml_calls[i][1]:6.3f} "
                    f"{ml_calls[i][2].size:7d}")),
        ("Kernels.norm_integrals", f"{'alpha':>6} {'n':>2} {'edges':>5} "
         f"{'powers':>6}",
         [quad_call(c) for c in quad_calls],
         lambda i: (f"{quad_calls[i][0]:6.3f} {quad_calls[i][1].shape[0]:2d}"
                    f" {quad_calls[i][2].size:5d} "
                    f"{','.join(map(str, quad_calls[i][3])):>6}")),
    )
    for name, head, calls, label in sections:
        print(f"{name}:\n{'call':>5} {head} {'old_s':>10} {'new_s':>10} "
              f"{'new/old':>8} equal {'max_rel':>8}")
        bad, total, worst = compare(trees, calls, args.repeat, label)
        differ += bad
        print(f"{len(calls)} calls, {bad} differ, largest relative "
              f"difference {worst:.2e}; summed best times "
              f"old {total[0]:.4f} s, new {total[1]:.4f} s "
              f"({total[1] / total[0]:.3f}x)\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
