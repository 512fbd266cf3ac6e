#!/usr/bin/env python3
"""Replay the Mittag-Leffler, kernel-integral and 2-norm calls of the
fixtures on two source trees.

Records every ``ml_scalar_array`` call that ``certify``,
``delay_free_certify`` (on the delay-free fixtures, as the CLI does) and
``solve_trajectory`` (the CLI's default grid: step 0.01, horizon 10) make on
``tests/fixtures/*.json``, and every ``Kernels.norm_integrals`` call, every
``Kernels.e_ml`` call of a matrix kernel (n > 1) and every
``tables.induced_norms`` stack that the two certificates take, using the
OLD tree.  Then it replays each call on both trees, interleaved, and prints
per call the best time of each, whether the values are equal
(``np.array_equal``) and the largest relative difference between them, and
per section the largest of those.  A ``norm_integrals`` or ``e_ml`` call is
replayed on a kernel object built outside the timed region, a new one per
run, so no run reuses the contours of another; only the outermost
``norm_integrals`` call is recorded, not the one a single delta makes on its
halving edges.  Both trees take ``norm_integrals(edges, p)``, one power a
call.  Two last sections replay fixed synthetic calls.  One replays
``ml_scalar_array`` batches on the |z| <= 1 power series: 6, 50, 600 and
2,000 real points in [-1, 1] at each (alpha, beta) of ``SERIES_ORDERS``,
and 50 complex points in the unit disc.  The other replays
``norm_integrals(GRID26, p)``, GRID26 the default delta grid with a
leading 0, on the matrix kernels of ``SYNTHETIC_KERNELS`` at each alpha of
``SYNTHETIC_ALPHAS``, p = 1 and, for alpha > 1/2, p = 2.  Its kernels
with an orthonormal eigenvector basis (symmetric, a complex spectrum, a
repeated eigenvalue) take their norms from the eigenvalue values, the
others from the Gram matrix; among the fixtures only one normal matrix
kernel, a diagonal one, shows the first route.  Each SRC is a directory
that holds the ``fracdelay`` package, such as a checkout's ``src``.

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


# the modules that call tables.induced_norms through a name of their own
NORM_USERS = ("tables", "kernels", "certificates", "spectral", "system")
# the synthetic power-series batches: sizes, and orders with beta > alpha
# or alpha > 1, so that a real z < 0 takes the series, not the contour
SERIES_SIZES = (6, 50, 600, 2000)
SERIES_ORDERS = ((0.7, 1.0), (0.7, 1.7), (1.3, 1.3))
SYNTHETIC_ALPHAS = (0.5, 0.95, 1.5)


def householder(v) -> np.ndarray:
    """The orthogonal, symmetric reflection I - 2 v v^T / (v^T v)."""
    v = np.asarray(v, dtype=float)
    return np.eye(v.size) - 2.0 * np.outer(v, v) / (v @ v)


_H3, _H6 = householder([1.0, 2.0, 3.0]), householder([1.0, -1.0, 2.0, 0.5,
                                                      -3.0, 1.0])
_SHEAR6 = np.eye(6) + 0.4 * np.triu(np.ones((6, 6)), 1)
_SPECTRUM6 = np.diag([-0.3, -0.7, -1.1, -1.9, -2.5, -4.0])
# (name, A0): four normal kernels, then two non-normal ones
SYNTHETIC_KERNELS = (
    ("symmetric3", _H3 @ np.diag([-0.5, -1.2, -3.0]) @ _H3),
    ("symmetric6", _H6 @ _SPECTRUM6 @ _H6),
    ("rotation", np.array([[-1.0, 2.0], [-2.0, -1.0]])),
    ("minus-identity", -np.eye(3)),
    ("triangular2", np.array([[-1.0, 0.5], [0.0, -2.0]])),
    ("sheared6", _SHEAR6 @ _SPECTRUM6 @ np.linalg.inv(_SHEAR6)),
)


def series_batches() -> list:
    """(alpha, beta, z) of the synthetic |z| <= 1 batches, from a fixed
    seed."""
    rng = np.random.default_rng(0)
    batches = [(alpha, beta, rng.uniform(-1.0, 1.0, size) + 0j)
               for alpha, beta in SERIES_ORDERS for size in SERIES_SIZES]
    disc = np.sqrt(rng.uniform(0.0, 1.0, 50)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, 50))
    return batches + [(alpha, beta, disc) for alpha, beta in SERIES_ORDERS]


def kernel_calls(fd) -> list:
    """(name, alpha, A0, GRID26, p) of the synthetic norm_integrals calls."""
    grid = np.array([0.0, *fd.certificates.DEFAULT_DELTA_GRID])
    return [(name, alpha, A0, grid, p) for name, A0 in SYNTHETIC_KERNELS
            for alpha in SYNTHETIC_ALPHAS
            for p in ((1, 2) if alpha > 0.5 else (1,))]


def record_calls(fd):
    """(alpha, beta, z) of every ml_scalar_array call, (alpha, A0, edges,
    p) of every outermost norm_integrals call, (alpha, A0, beta, t) of
    every e_ml call with n > 1 and (stack, p) of every induced_norms call on
    the fixtures; the last three in the certificates only."""
    ml_calls, quad_calls, eml_calls, norm_calls = [], [], [], []
    inner_ml = fd.mlf.ml_scalar_array
    inner_quad = fd.kernels.Kernels.norm_integrals
    inner_eml = fd.kernels.Kernels.e_ml
    inner_norms = fd.tables.induced_norms
    depth = [0]
    certifying = [False]

    def recorded_ml(alpha, beta, z, **kwargs):
        ml_calls.append((float(alpha), float(beta),
                         np.array(z, dtype=complex, copy=True)))
        return inner_ml(alpha, beta, z, **kwargs)

    def recorded_eml(self, beta, t):
        if certifying[0] and self.n > 1:
            eml_calls.append((self.alpha, self.A0.copy(), float(beta),
                              np.array(t, dtype=float, copy=True)))
        return inner_eml(self, beta, t)

    def recorded_norms(stack, p=2):
        if certifying[0]:
            norm_calls.append((np.array(stack, copy=True), p))
        return inner_norms(stack, p)

    def recorded_quad(self, edges, p=1):
        if not depth[0]:
            quad_calls.append((self.alpha, self.A0.copy(),
                               np.array(edges, dtype=float, copy=True), p))
        depth[0] += 1
        try:
            return inner_quad(self, edges, p)
        finally:
            depth[0] -= 1

    # kernels imports the function by name; mlf calls its own global
    fd.mlf.ml_scalar_array = fd.kernels.ml_scalar_array = recorded_ml
    fd.kernels.Kernels.norm_integrals = recorded_quad
    fd.kernels.Kernels.e_ml = recorded_eml
    for name in NORM_USERS:
        setattr(getattr(fd, name), "induced_norms", recorded_norms)
    try:
        for path in sorted(FIXTURES.glob("*.json")):
            prob = fd.load_problem(str(path))
            certifying[0] = True
            fd.certify(prob)
            if prob.system.is_delay_free:
                try:
                    fd.delay_free_certify(prob)
                except fd.errors.FracDelayError:
                    pass
            certifying[0] = False
            grid = fd.align_grid(0.01, 10.0, prob.system.delays)
            fd.solve_trajectory(prob, grid)
    finally:
        fd.mlf.ml_scalar_array = fd.kernels.ml_scalar_array = inner_ml
        fd.kernels.Kernels.norm_integrals = inner_quad
        fd.kernels.Kernels.e_ml = inner_eml
        for name in NORM_USERS:
            setattr(getattr(fd, name), "induced_norms", inner_norms)
    return ml_calls, quad_calls, eml_calls, norm_calls


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
    """Replay ``calls`` (each a per-tree (fn, args) maker, called anew
    before every run) on both trees; print one line per call; return
    (differing calls, summed best times, largest relative difference)."""
    differ = 0
    total = [0.0, 0.0]
    worst = 0.0
    for i, call in enumerate(calls):
        best = [np.inf, np.inf]
        outs = [None, None]
        for r in range(repeat):
            # alternate which tree goes first
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                t, outs[side] = timed(trees[side], *call(trees[side]))
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
    ml_calls, quad_calls, eml_calls, norm_calls = record_calls(trees[0])
    series_calls = series_batches()
    synthetic_quad = kernel_calls(trees[0])
    differ = 0

    def ml_call(c):
        return lambda fd: (fd.mlf.ml_scalar_array, *c)

    def quad_call(c):
        alpha, A0, edges, p = c
        return lambda fd: (fd.kernels.Kernels(alpha, A0).norm_integrals,
                           edges, p)

    def eml_call(c):
        alpha, A0, beta, t = c
        return lambda fd: (fd.kernels.Kernels(alpha, A0).e_ml, beta, t)

    def norm_call(c):
        return lambda fd: (fd.tables.induced_norms, *c)

    sections = (
        ("ml_scalar_array", f"{'alpha':>6} {'beta':>6} {'points':>7}",
         [ml_call(c) for c in ml_calls],
         lambda i: (f"{ml_calls[i][0]:6.3f} {ml_calls[i][1]:6.3f} "
                    f"{ml_calls[i][2].size:7d}")),
        ("Kernels.norm_integrals", f"{'alpha':>6} {'n':>2} {'edges':>5} "
         f"{'p':>1}",
         [quad_call(c) for c in quad_calls],
         lambda i: (f"{quad_calls[i][0]:6.3f} {quad_calls[i][1].shape[0]:2d}"
                    f" {quad_calls[i][2].size:5d} {quad_calls[i][3]:1d}")),
        ("Kernels.e_ml, n > 1", f"{'alpha':>6} {'n':>2} {'beta':>6} "
         f"{'points':>7}",
         [eml_call(c) for c in eml_calls],
         lambda i: (f"{eml_calls[i][0]:6.3f} {eml_calls[i][1].shape[0]:2d} "
                    f"{eml_calls[i][2]:6.3f} {eml_calls[i][3].size:7d}")),
        ("tables.induced_norms", f"{'shape':>14} {'p':>3}",
         [norm_call(c) for c in norm_calls],
         lambda i: (f"{'x'.join(map(str, norm_calls[i][0].shape)):>14} "
                    f"{norm_calls[i][1]!s:>3}")),
        ("ml_scalar_array, synthetic |z| <= 1 batches",
         f"{'alpha':>6} {'beta':>6} {'points':>7} kind",
         [ml_call(c) for c in series_calls],
         lambda i: (f"{series_calls[i][0]:6.3f} {series_calls[i][1]:6.3f} "
                    f"{series_calls[i][2].size:7d} "
                    f"{'complex' if series_calls[i][2].imag.any() else 'real'}"
                    )),
        ("Kernels.norm_integrals, synthetic matrix kernels",
         f"{'kernel':>14} {'alpha':>6} {'n':>2} {'p':>1}",
         [quad_call(c[1:]) for c in synthetic_quad],
         lambda i: (f"{synthetic_quad[i][0]:>14} {synthetic_quad[i][1]:6.3f} "
                    f"{synthetic_quad[i][2].shape[0]:2d} "
                    f"{synthetic_quad[i][4]:1d}")),
    )
    for name, head, calls, label in sections:
        print(f"{name}:\n{'call':>5} {head} {'old_s':>10} {'new_s':>10} "
              f"{'new/old':>8} equal {'max_rel':>8}")
        bad, total, worst = compare(trees, calls, args.repeat, label)
        differ += bad
        print(f"{len(calls)} calls, {bad} differ, largest relative "
              f"difference {worst:.2e}; summed best times "
              f"old {total[0]:.4f} s, new {total[1]:.4f} s "
              f"({total[1] / total[0] if calls else math.nan:.3f}x)\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
