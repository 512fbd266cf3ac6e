#!/usr/bin/env python3
"""Compare the outputs of two source trees of fracdelay.

    python scripts/compare_outputs.py PARENT_SRC [SRC]

SRC defaults to this checkout's ``src``.  Each tree runs in its own
subprocess, with only that tree and this checkout's ``perfbench`` on the
path, and records:

- the CLI's ``certify`` (default grid), ``simulate --oracle`` (summary and
  trajectory CSV), ``ml --t 0.7``, ``spectral`` and ``verify-bounds`` on
  every fixture in ``tests/fixtures``, with exit code and stderr;
- ``certify`` and ``delay_free_certify`` on the certify-grid ops of
  ``perfbench/workloads.py`` at seeds 1-3;
- the simulate-long trajectories (march and oracle) at seed 1;
- ``delay_free_certify`` on the delay-free scalar problems x' = lam x at
  every alpha of ``DELAY_FREE_ALPHAS`` and lam of ``DELAY_FREE_LAMS``,
  phi_0 = 1 and any phi_1 = 0, so that a move of K0 or K1 shows by name;
- the one-delta values ``cert_g_f``, ``cert_g_hat_f`` (window start h),
  ``gain_bound_uniform``, ``gain_bound_l2`` (epsilon ``EPSILON``),
  ``phi_alpha_l1`` and ``phi_alpha_l2sq`` on every fixture at each delta of
  ``ONE_DELTAS``;
- ``delay_free_certify`` (phi_0 = 1, any phi_1 = 0), ``phi_alpha_l1`` and
  ``phi_alpha_l2sq`` on the non-normal kernels ``NON_NORMAL`` at each alpha
  of ``NON_NORMAL_ALPHAS``, which take K1 from the quadrature.
- ``certify`` on the scalar one-delay problems ``SMALL_GAIN`` (phi_0 = 1,
  every other phi_j = 0), with the grid minimum g and the load
  q = K1 sum_i a_i (an error where K1 raises);
- ``high_order_check`` on the problems ``HIGH_ORDER``.

The ops are built by ``perfbench/workloads.py``, which is only imported.
Per output it prints "identical" or the largest relative difference
|a - b| / max(|a|, |b|) over its numbers (inf where text, structure or a
non-finite value differs) and the largest |a - b| over the largest |a| of
the output (its sup, the measure for a trajectory), and exits 1 on any
difference.  Every document in an output that carries a ``verdict`` (a
``certify`` report, the CLI's ``report.json`` and its ``bounds`` and
``high_order`` blocks, ``spectral.json``) is also compared on its own:
"verdict moved A -> B" and "witness moved A -> B" (its ``witness_delta``)
name each move, with g and q where the output has them, and the last line
counts them.
"""

import contextlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
CLI_COMMANDS = (("certify",), ("simulate", "--oracle"), ("ml", "--t", "0.7"),
                ("spectral",), ("verify-bounds",))
CERTIFY_SEEDS = (1, 2, 3)
SIMULATE_SEED = 1
DELAY_FREE_ALPHAS = (0.5, 0.9, 1.2, 1.5, 1.8, 1.95, 1.99)
DELAY_FREE_LAMS = (-0.3, -1.0, -5.0)
ONE_DELTAS = (1.0, 30.0)
EPSILON = 0.1
NON_NORMAL = (((-1.0, 0.5), (0.0, -2.0)), ((-1.0, 5.0), (0.0, -2.0)))
NON_NORMAL_ALPHAS = (0.4, 0.7, 1.3, 1.6)
# (alpha, a0, a1, r1): ROADMAP item 1's three reproducers and the alpha
# 1.95 problem of tests/test_cli.py
SMALL_GAIN = ((1.8, -1.0, -0.43, 2.0), (1.8, -1.0, 0.43, 5.0),
              (2.0, -1.0, 0.1, 4.0), (1.95, -0.5975, 0.1, 0.5))
# (alpha, diagonal of A0, diagonal of A1 at r = 1 or None, the top phi_j);
# every lower phi_j is 0: the alpha 2.2 problem of tests/test_cli.py, the
# alpha 2.5 one of tests/test_certificates.py and D^3 x = -x
HIGH_ORDER = ((2.2, (-1.0,), (0.1,), (1.0,)),
              (2.5, (-2.0, -3.0), (0.1, 0.1), (1.0, 2.0)),
              (3.0, (-1.0,), None, (1.0,)))


def _text(text):
    """A JSON document as parsed, other text as is."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _cli(argv, outdir=None):
    """Exit code, stdout and stderr (and the trajectory CSV's rows with
    ``outdir``) of one in-process CLI run."""
    from fracdelay import cli

    out, err = io.StringIO(), io.StringIO()
    extra = ["--out", str(outdir)] if outdir is not None else []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv) + extra)
    result = {"exit": code, "stdout": _text(out.getvalue()),
              "stderr": _text(err.getvalue())}
    if outdir is not None:
        lines = (outdir / "trajectory.csv").read_text().splitlines()
        result["csv"] = [lines[0]] + [[float(x) for x in line.split(",")]
                                      for line in lines[1:]]
    return result


def _delay_free_bounds(fd, alpha, A0):
    """``delay_free_certify`` of x' = A0 x of order alpha, phi_0 = 1 and
    any phi_1 = 0, as a dict."""
    k, n = math.ceil(alpha), len(A0)
    phi = [fd.TimeFunctionTable([0.0], [[float(j == 0)] * n], "const")
           for j in range(k)]
    prob = fd.validate_system(alpha, [0.0], [A0], phi=phi)
    return fd.delay_free_certify(prob).as_dict()


def _one_delta_values(fd, prob, delta):
    """(name, thunk) of every one-delta value of ``prob`` at ``delta``."""
    return (("cert_g_f", lambda: fd.cert_g_f(prob, None, delta)),
            ("cert_g_hat_f",
             lambda: fd.cert_g_hat_f(prob, None, prob.system.h, delta)),
            ("gain_bound_uniform",
             lambda: fd.gain_bound_uniform(prob, delta, EPSILON)),
            ("gain_bound_l2", lambda: fd.gain_bound_l2(prob, delta, EPSILON)),
            ("phi_alpha_l1", lambda: fd.phi_alpha_l1(prob.system, delta)),
            ("phi_alpha_l2sq", lambda: fd.phi_alpha_l2sq(prob.system, delta)))


def _small_gain(fd, alpha, a0, a1, r1):
    """``certify`` of a scalar one-delay problem, its grid minimum g and its
    load q = K1 sum_i a_i."""
    from fracdelay import certificates, kernels

    phi = [fd.TimeFunctionTable([-r1], [[float(j == 0)]], "const")
           for j in range(math.ceil(alpha))]
    prob = fd.validate_system(alpha, [0.0, r1], [[[a0]], [[a1]]], phi=phi)
    report = fd.certify(prob).as_dict()
    load_sum = sum(bound for _, bound, _ in
                   certificates._lag_terms(prob, None))
    return {"certify": report,
            "g": min(e["value"] for e in report["grid"]),
            "q": _guarded(lambda: kernels._l1_to_infinity(
                kernels._kernels(prob.system)) * load_sum)}


def _high_order(fd, alpha, a0, a1, top):
    """``high_order_check`` of one ``HIGH_ORDER`` problem, as a dict."""
    n, r = len(a0), (0.0 if a1 is None else 1.0)
    phi = [fd.TimeFunctionTable([-r], [[0.0] * n], "const")
           for _ in range(math.ceil(alpha) - 1)]
    phi.append(fd.TimeFunctionTable([-r], [list(top)], "const"))
    A = [[[a0[i] * (i == k) for k in range(n)] for i in range(n)]]
    if a1 is not None:
        A.append([[a1[i] * (i == k) for k in range(n)] for i in range(n)])
    prob = fd.validate_system(alpha, [0.0, r][:len(A)], A, phi=phi)
    return fd.high_order_check(prob).as_dict()


def _gain_note(out):
    """" (g = ..., q = ...)" for an output that records them, else ""."""
    if not (isinstance(out, dict) and "q" in out):
        return ""
    q = out["q"]
    return (f" (g = {out['g']:.5g}, q = "
            + (f"{q:.5g})" if _number(q) else f"{q['error']})"))


def _guarded(fn):
    try:
        return fn()
    except Exception as exc:    # a raise is an output to compare too
        return {"error": type(exc).__name__, "message": str(exc)}


def collect(src: str, out_path: str) -> None:
    """Run every op on the tree at ``src`` and pickle the outputs."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import fracdelay as fd
    import workloads

    assert Path(fd.__file__).resolve().is_relative_to(Path(src).resolve())
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fixture in sorted(FIXTURES.glob("*.json")):
            for command in CLI_COMMANDS:
                argv = [command[0], "--problem", str(fixture), *command[1:]]
                outdir = Path(tmp) / "out" if command[0] == "simulate" else None
                outputs[f"cli {' '.join(command)} {fixture.name}"] = _cli(
                    argv, outdir)
            prob = fd.load_problem(str(fixture))
            for delta in ONE_DELTAS:
                for what, value in _one_delta_values(fd, prob, delta):
                    outputs[f"one-delta {delta} {what} {fixture.name}"] = (
                        _guarded(value))
        for seed in CERTIFY_SEEDS:
            for op in workloads.CertifyGrid().build(seed, Path(tmp)):
                prob = op.problem
                name = f"certify-grid seed {seed} {op.label}"
                outputs[f"{name} certify"] = _guarded(
                    lambda: fd.certify(prob).as_dict())
                if prob.system.is_delay_free:
                    outputs[f"{name} delay_free_certify"] = _guarded(
                        lambda: fd.delay_free_certify(prob).as_dict())
        for op in workloads.SimulateLong().build(SIMULATE_SEED, Path(tmp)):
            outputs[f"simulate-long seed {SIMULATE_SEED} {op.label}"] = (
                _guarded(op))
    for alpha in DELAY_FREE_ALPHAS:
        for lam in DELAY_FREE_LAMS:
            name = f"delay-free alpha {alpha} lam {lam} delay_free_certify"
            outputs[name] = _guarded(
                lambda: _delay_free_bounds(fd, alpha, [[lam]]))
    for A0 in NON_NORMAL:
        for alpha in NON_NORMAL_ALPHAS:
            name = f"non-normal {A0} alpha {alpha}"
            outputs[f"{name} delay_free_certify"] = _guarded(
                lambda: _delay_free_bounds(fd, alpha, A0))
            for delta in ONE_DELTAS:
                for what, fn in (("phi_alpha_l1", fd.phi_alpha_l1),
                                 ("phi_alpha_l2sq", fd.phi_alpha_l2sq)):
                    outputs[f"{name} {what} {delta}"] = _guarded(
                        lambda: fn((alpha, A0), delta))
    for args in SMALL_GAIN:
        outputs[f"small-gain {args} certify"] = _guarded(
            lambda: _small_gain(fd, *args))
    for args in HIGH_ORDER:
        outputs[f"high-order {args} high_order_check"] = _guarded(
            lambda: _high_order(fd, *args))
    with open(out_path, "wb") as fh:
        pickle.dump(outputs, fh)


def _leaves(obj):
    """Flatten nested lists, tuples, dicts and arrays to (path, leaf)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            for path, leaf in _leaves(value):
                yield (key,) + path, leaf
    elif isinstance(obj, (list, tuple)) or hasattr(obj, "tolist"):
        items = obj.tolist() if hasattr(obj, "tolist") else list(obj)
        if not isinstance(items, list):
            yield (), items
            return
        for i, value in enumerate(items):
            for path, leaf in _leaves(value):
                yield (i,) + path, leaf
    else:
        yield (), obj


def _number(leaf):
    return isinstance(leaf, (int, float)) and not isinstance(leaf, bool)


def relative_difference(a, b) -> tuple:
    """Largest relative difference between two outputs, and largest
    difference over the output's sup (module docstring)."""
    la, lb = list(_leaves(a)), list(_leaves(b))
    if [p for p, _ in la] != [p for p, _ in lb]:
        return math.inf, math.inf
    worst = largest = sup = 0.0
    for (_, x), (_, y) in zip(la, lb):
        if _number(x) and math.isfinite(x):
            sup = max(sup, abs(x))
        if x == y or (_number(x) and _number(y)
                      and math.isnan(x) and math.isnan(y)):
            continue
        if not (_number(x) and _number(y)
                and math.isfinite(x) and math.isfinite(y)):
            return math.inf, math.inf
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        largest = max(largest, abs(x - y))
    return worst, largest / sup if largest else 0.0


def _verdicts(obj, path=()):
    """(path, verdict, witness_delta) of every dict in an output that has a
    "verdict" key."""
    if isinstance(obj, dict):
        if "verdict" in obj:
            yield path, obj["verdict"], obj.get("witness_delta")
        for key, value in obj.items():
            yield from _verdicts(value, path + (key,))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _verdicts(value, path + (i,))


def verdict_moves(a, b) -> list:
    """("verdict" | "witness", where, old, new) per verdict or witness
    delta that differs between two outputs (None where a side has none)."""
    old = {path: (v, w) for path, v, w in _verdicts(a)}
    new = {path: (v, w) for path, v, w in _verdicts(b)}
    moves = []
    for path in sorted(set(old) | set(new), key=lambda p: list(map(str, p))):
        where = "/".join(map(str, path)) or "output"
        (va, wa), (vb, wb) = (old.get(path, (None, None)),
                              new.get(path, (None, None)))
        if va != vb:
            moves.append(("verdict", where, va, vb))
        if wa != wb:
            moves.append(("witness", where, wa, wb))
    return moves


def main(argv) -> int:
    if len(argv) >= 1 and argv[0] == "--collect":
        collect(argv[1], argv[2])
        return 0
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [argv[0], argv[1] if len(argv) == 2 else str(ROOT / "src")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, src in enumerate(trees):
            path = Path(tmp) / f"outputs{k}.pickle"
            subprocess.run([sys.executable, __file__, "--collect",
                            str(Path(src).resolve()), str(path)],
                           check=True, env=env)
            with open(path, "rb") as fh:
                results.append(pickle.load(fh))
    parent, child = results
    differ = 0
    moved = {"verdict": 0, "witness": 0}
    for name in sorted(set(parent) | set(child)):
        if name not in parent or name not in child:
            print(f"{name}: only in {'SRC' if name in child else 'PARENT_SRC'}")
            differ += 1
            continue
        diff, of_sup = relative_difference(parent[name], child[name])
        print(f"{name}: " + ("identical" if diff == 0
                             else f"largest relative difference {diff:.3g}, "
                                  f"{of_sup:.3g} of the sup"))
        differ += diff != 0
        for kind, where, old, new in verdict_moves(parent[name], child[name]):
            print(f"{name}: {where}: {kind} moved {old} -> {new}"
                  + _gain_note(child[name]))
            moved[kind] += 1
    print(f"{differ} of {len(set(parent) | set(child))} outputs differ")
    print(f"{moved['verdict']} verdicts moved, {moved['witness']} witnesses "
          f"moved")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
