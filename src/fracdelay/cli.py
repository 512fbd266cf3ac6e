"""Command-line front end.

Subcommands: ``ml`` (kernel matrices at a time point), ``simulate``
(trajectory CSV + summary), ``certify`` (contraction certificates, plus the
delay-free bounds when all lags are zero and the high-order check when
alpha >= 2), ``spectral`` (delay-independent stability test), and
``verify-bounds`` (kernel norm-inequality report).

Exit codes: 0 success, 2 when the mathematics is inconclusive or infeasible
(so scripts can branch on verdicts), 1 on errors, which are rendered as a
JSON object on stderr.

All emitted JSON and CSV is byte-deterministic: fixed key order, floats at
15 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import (DEFAULT_DELTA_GRID, certify, delay_free_certify,
                           high_order_check)
from .errors import FracDelayError, KernelNotIntegrable
from .kernels import _kernels, verify_lemma22
from .solver import align_grid, solve_oracle, solve_trajectory
from .spectral import theorem34_certify
from .system import load_problem, problem_to_dict


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".15g")


def dump_json(obj, indent: int = 0) -> str:
    """JSON text with insertion-ordered keys and 15-significant-digit floats."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + dump_json(v, indent + 1)
                           for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": "
            + dump_json(v, indent + 1) for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(doc: dict, out_dir: str | None, filename: str) -> None:
    text = dump_json(doc) + "\n"
    sys.stdout.write(text)
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise FracDelayError(f"argument error: {message}")


def _add_common(sp):
    sp.add_argument("--problem", required=True, help="problem JSON file")
    sp.add_argument("--out", default=None, help="directory for output artifacts")
    sp.add_argument("--dump-normalized", action="store_true",
                    help="echo the normalized problem JSON and exit")


def _parse_grid_spec(spec: str):
    """``MIN,MAX,COUNT``: COUNT log-spaced points from MIN to MAX, with
    finite positive ends and an integer COUNT >= 1."""
    try:
        lo, hi, count = spec.split(",")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        lo = hi = count = 0
    if not (0 < lo < math.inf and 0 < hi < math.inf and count >= 1):
        raise FracDelayError(
            f"argument error: --delta-grid {spec!r} is not MIN,MAX,COUNT "
            "with finite positive ends and an integer count >= 1")
    return np.geomspace(lo, hi, count)


def _join_t_grid(argv: list[str]) -> list[str]:
    """``--t-grid -0.5,1`` as ``--t-grid=-0.5,1``: argparse would read a
    value that starts with '-' as an option."""
    out = []
    for tok in argv:
        if out and out[-1] == "--t-grid" and tok.startswith("-"):
            out[-1] = f"--t-grid={tok}"
        else:
            out.append(tok)
    return out


def build_parser() -> _Parser:
    p = _Parser(prog="fracdelay",
                description="Solution machinery and stability certificates "
                            "for fractional systems with point delays")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ml", help="kernel matrices at a time point")
    _add_common(sp)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--beta", type=float, default=None,
                    help="extra Mittag-Leffler parameter to evaluate")

    sp = sub.add_parser("simulate", help="integrate the trajectory")
    _add_common(sp)
    sp.add_argument("--step", type=float, default=0.01)
    sp.add_argument("--horizon", type=float, default=10.0)
    sp.add_argument("--oracle", action="store_true",
                    help="also run the cross-validation solver and report "
                         "the disagreement")

    sp = sub.add_parser("certify", help="contraction/stability certificates")
    _add_common(sp)
    sp.add_argument("--delta-grid", default=None, metavar="MIN,MAX,COUNT",
                    help="log-spaced certificate window grid "
                         "(default 0.01,100,25)")

    sp = sub.add_parser("spectral", help="delay-independent stability test")
    _add_common(sp)

    sp = sub.add_parser("verify-bounds", help="kernel norm-bound report")
    _add_common(sp)
    sp.add_argument("--t-grid", default=None,
                    help="comma list of check times (default 50 log points "
                         "in (0.1, 10])")
    return p


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _run_ml(args, prob) -> int:
    sys_ = prob.system
    ker = _kernels(sys_)
    t = args.t
    doc = {
        "alpha": sys_.alpha,
        "t": t,
        "phi_j": [ker.phi_j(j, np.array([t]))[0].tolist()
                  for j in range(sys_.k)],
        "phi": (ker.phi(np.array([t]))[0].tolist() if t != 0 or sys_.alpha >= 1
                else None),
        "E": {str(j + 1): ker.e_ml(j + 1, np.array([t]))[0].tolist()
              for j in range(sys_.k)},
    }
    if args.beta is not None:
        doc["E_beta"] = ker.e_ml(args.beta, np.array([t]))[0].tolist()
    _emit(doc, args.out, "ml.json")
    return 0


def _run_simulate(args, prob) -> int:
    grid = align_grid(args.step, args.horizon, prob.system.delays)
    traj = solve_trajectory(prob, grid)
    doc = {
        "step": grid.step,
        "horizon": grid.horizon,
        "nodes": grid.node_count,
        "sup_norm": traj.sup_norm(),
        "final_time": float(traj.times[-1]),
        "final_state": traj.states[-1].tolist(),
    }
    if args.oracle:
        ref = solve_oracle(prob, grid)
        scale = max(traj.sup_norm(), 1e-300)
        doc["oracle_sup_rel_diff"] = float(
            np.max(np.abs(traj.states - ref.states)) / scale)
    _emit(doc, args.out, "summary.json")
    if args.out:
        traj.to_csv(Path(args.out) / "trajectory.csv")
    return 0


def _run_certify(args, prob) -> int:
    delta_grid = (DEFAULT_DELTA_GRID if args.delta_grid is None
                  else _parse_grid_spec(args.delta_grid))
    report = certify(prob, None, delta_grid)
    doc = report.as_dict()
    doc["bounds"] = None
    doc["high_order"] = None
    if prob.system.is_delay_free:
        try:
            doc["bounds"] = delay_free_certify(prob).as_dict()
        except KernelNotIntegrable as exc:
            doc["bounds"] = {"error": str(exc)}
    if prob.system.alpha >= 2.0:
        doc["high_order"] = high_order_check(prob).as_dict()
    _emit(doc, args.out, "report.json")
    inconclusive = report.verdict == "Inconclusive"
    if doc["bounds"] is not None and "verdict" in doc["bounds"]:
        inconclusive = inconclusive and doc["bounds"]["verdict"] == "Inconclusive"
    return 2 if inconclusive else 0


def _run_spectral(args, prob) -> int:
    res = theorem34_certify(prob.system)
    _emit(res.as_dict(), args.out, "spectral.json")
    return 2 if res.verdict == "Inconclusive" else 0


def _run_verify_bounds(args, prob) -> int:
    t_grid = (np.geomspace(0.1, 10.0, 50) if args.t_grid is None
              else np.array([float(x) for x in args.t_grid.split(",")]))
    report = verify_lemma22(prob.system, t_grid)
    _emit(report.as_dict(), args.out, "bounds.json")
    return 0 if report.all_passed else 2


_RUNNERS = {
    "ml": _run_ml,
    "simulate": _run_simulate,
    "certify": _run_certify,
    "spectral": _run_spectral,
    "verify-bounds": _run_verify_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_t_grid(
            sys.argv[1:] if argv is None else list(argv)))
        prob = load_problem(args.problem)
        if args.dump_normalized:
            _emit(problem_to_dict(prob), args.out, "problem.normalized.json")
            return 0
        return _RUNNERS[args.command](args, prob)
    except (FracDelayError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(dump_json({"error": type(exc).__name__,
                                    "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
