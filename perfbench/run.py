#!/usr/bin/env python3
"""Layered benchmark for fracdelay.

    python3 perfbench/run.py --workload certify-grid --seed 1 --seconds 30 \\
        --trace 0

Runs one seeded, closed-loop workload (one process, one caller) against the
library in ``src/`` of this checkout.  Passes over the workload's op list
repeat for about ``--seconds`` (every op at least the workload's
``min_samples`` times).  Op and set-up times are scaled to a fixed host speed
by a reference timed next to them (see hostspeed.py).  Correctness checks
run outside the timed region.  With ``--trace 0`` the end-to-end
metrics are reported; with ``--trace 1`` an untraced and a traced pass run
and the per-layer metrics from the traced pass are reported, with the
tracing overhead against a second untraced pass.  The last line
of stdout is one JSON object; the exit code is 1 when a check failed and 2
when the library is missing.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
OP_RAISED = "op raised"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one caller on matrices of at most 6x6: BLAS threads beyond one only add
# spin-wait contention (see NOTES.md), so the cap at nproc is one thread
BLAS_THREADS = 1


def cap_blas_threads() -> tuple[int, int]:
    """Cap BLAS threads (at most nproc); set before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, BLAS_THREADS)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return nproc, threads


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU.

    The host-speed reference then runs on the CPU the ops run on, and a
    CLI op's child runs there while this process waits for it.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def set_up(workload: str, seed: int, workdir: Path):
    """Import, problem generation and validation, one untimed warm-up op.

    Returns the workload, its ops and the scaled set-up time.
    """
    def steps():
        sys.path.insert(0, str(SRC))
        import fracdelay
        if not Path(fracdelay.__file__).resolve().is_relative_to(
                SRC.resolve()):
            raise SystemExit(f"fracdelay imported from {fracdelay.__file__}, "
                             f"not from {SRC}")
        import workloads
        wl = workloads.WORKLOADS[workload]
        ops = wl.build(seed, workdir)
        ops[0]()
        return wl, ops

    result, error, _, setup = hostspeed.ScaledTimer().measure(steps)
    if error is not None:
        raise error
    return (*result, setup)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process running this script's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, cwd=ROOT)
    return float(proc.stdout.strip().splitlines()[-1])


def run_passes(ops, seconds: float, min_samples: int, reference):
    """Closed loop over the op list, pass after pass, for ``seconds``.

    The loop stops after the first op that ends when ``seconds`` have
    passed and every op has run ``min_samples`` times, so the last pass may
    be partial.  Samples are ``(op index, wall s, scaled s, completed)``
    as ``ScaledTimer(reference).measure`` gives them.  ``passes`` holds the
    wall time of each whole pass, reference timings included.
    """
    runs = {i: [] for i in range(len(ops))}
    errors, samples, passes = {}, [], []
    timer = hostspeed.ScaledTimer(reference)
    start = time.perf_counter()
    done = False
    while not done:
        p0 = time.perf_counter()
        for i, op in enumerate(ops):
            out, exc, wall, scaled = timer.measure(op)
            if exc is None:
                runs[i].append(out)
            else:  # a raising op is counted as failed
                errors.setdefault(i, f"{type(exc).__name__}: {exc}")
            samples.append((i, wall, scaled, exc is None))
            done = (time.perf_counter() - start >= seconds
                    and len(samples) >= min_samples * len(ops))
            if done and i < len(ops) - 1:
                return runs, errors, samples, passes
        passes.append(time.perf_counter() - p0)
    return runs, errors, samples, passes


def traced_pass(ops):
    from tracing import Tracer
    tracer = Tracer()
    outputs, errors, samples = {}, {}, []
    with tracer.installed():
        for i, op in enumerate(ops):
            span = tracer.open("op", "harness")
            try:
                outputs[i] = op(tracer)
            except Exception as exc:  # a raising op is counted as failed
                errors[i] = f"{type(exc).__name__}: {exc}"
            finally:
                tracer.close(span)
            samples.append((i, span.duration, span.duration,
                            i not in errors))
    return tracer, outputs, errors, samples


def count_failed(ops, samples, checks) -> int:
    """Op samples that raised, or whose op failed a check of its outputs."""
    bad = {label for label, name, _ in checks.failures if name != OP_RAISED}
    return sum(1 for i, _, _, ok in samples
               if not ok or ops[i].label in bad)


def run_checks(wl, ops, runs, errors, checks, traced=None):
    """Check each op's first output; a raise is reported, counted per sample."""
    for i, op in enumerate(ops):
        if i in errors:
            checks.require(op.label, OP_RAISED, False, errors[i])
        if not runs[i]:
            continue
        try:
            wl.check(op, runs[i][0], checks)
        except Exception as exc:  # a raising check is a failed check
            checks.require(op.label, "check completed", False,
                           f"{type(exc).__name__}: {exc}")
        first = wl.fingerprint(runs[i][0])
        if wl.needs_repeat and len(runs[i]) < 2:
            runs[i].append(op())
        checks.require(op.label, "repeats identical",
                       all(wl.fingerprint(o) == first for o in runs[i][1:]))
        if traced is not None and i in traced:
            checks.require(op.label, "traced output equals untraced",
                           wl.fingerprint(traced[i]) == first)


def peak_rss_mb() -> float:
    """Peak resident memory of this process and the children it waited on."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def git_sha() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    lines = top.stdout.split()
    if len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return "unknown"
    return lines[1]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, nproc: int, threads: int) -> dict:
    import mpmath
    import numpy
    import scipy
    return {"git_sha": git_sha(), "src_sha256": src_digest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "machine": platform.machine()}


def op_medians(samples, column: int) -> dict:
    """Each op's median over its samples of one time column."""
    times = {}
    for sample in samples:
        times.setdefault(sample[0], []).append(sample[column])
    return {i: statistics.median(ts) for i, ts in times.items()}


def timing_metrics(ops, per_op: dict) -> dict:
    """Throughput and medians over ops of each op's median time.

    Throughput is one pass at those times.
    """
    small = [t for i, t in per_op.items() if ops[i].n == 1]
    large = [t for i, t in per_op.items() if ops[i].n == 6]
    return {
        "ops_per_s": (len(per_op) / sum(per_op.values()), "1/s"),
        "op_s.p50": (statistics.median(per_op.values()), "s"),
        "tts_s.small": (statistics.median(small), "s"),
        "tts_s.large": (statistics.median(large), "s"),
    }


def end_to_end(ops, samples, setups) -> dict:
    """End-to-end metrics from scaled times: the set-ups' median, then the
    timings of ``timing_metrics`` and the peak memory."""
    return {"setup_s": (statistics.median(setups), "s"),
            **timing_metrics(ops, op_medians(samples, 2)),
            "peak_rss_mb": (peak_rss_mb(), "MB")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "fracdelay" / "__init__.py").is_file():
        sys.stderr.write(f"no fracdelay sources under {SRC}\n")
        return 2
    nproc, threads = cap_blas_threads()
    pin_to_one_cpu()
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, ops, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        import workloads
        checks = workloads.Checks()
        if args.trace == 0:
            runs, errors, samples, passes = run_passes(
                ops, args.seconds, wl.min_samples, wl.host_reference)
            # the run's own set-up and fresh-process ones
            setups = [setup_s] + [setup_probe(args.workload, args.seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
            run_checks(wl, ops, runs, errors, checks)
            metrics = end_to_end(ops, samples, setups)
            wall = timing_metrics(ops, op_medians(samples, 1))
            notes = [f"{len(ops)} ops, medians of {len(samples)} op samples "
                     f"({len(passes)} whole passes), {len(setups)} set-ups; "
                     f"times scaled to the reference host speed",
                     "unscaled wall times: " + ", ".join(
                         f"{name} {value:.6g} {unit}"
                         for name, (value, unit) in wall.items())]
        else:
            import tracing
            # untraced pass for the checks, traced pass, then a warm
            # untraced pass as the overhead base (the first pass also fills
            # lazy caches)
            ref = wl.host_reference
            runs, errors, samples, _ = run_passes(ops, 0.0, 1, ref)
            tracer, traced, t_errors, t_samples = traced_pass(ops)
            again, errors2, samples2, _ = run_passes(ops, 0.0, 1, ref)
            for i, outs in again.items():
                runs[i].extend(outs)
            samples += t_samples + samples2
            run_checks(wl, ops, runs, {**errors2, **errors, **t_errors},
                       checks, traced)
            metrics = tracing.layer_metrics(tracer.spans, len(ops))
            metrics["trace.overhead_ratio"] = (
                metrics["trace.op_s"][0] / sum(t for _, t, _, _ in samples2),
                "ratio")
            notes = [f"traced pass of {len(ops)} ops, {len(tracer.spans)} "
                     f"spans"]
        attempted = len(samples)
        failed = count_failed(ops, samples, checks)
        failed_ratio = failed / attempted
        check_ratio = min(checks.worst, 1e9)
        if args.trace == 1:
            metrics["failed_ratio"] = (failed_ratio, "ratio")
            metrics["check_ratio.max"] = (check_ratio, "ratio")

        print(json.dumps({"provenance": provenance(args, nproc, threads)}))
        print(f"workload {args.workload} seed {args.seed} "
              f"trace {args.trace}: {notes[0]}")
        for note in notes[1:]:
            print(f"  {note}")
        counts = {"failed_ratio": f" ({failed}/{attempted})",
                  "check_ratio.max": f" ({checks.count} checks)"}
        table = {**metrics, "failed_ratio": (failed_ratio, "ratio"),
                 "check_ratio.max": (check_ratio, "ratio")}
        for name, (value, unit) in table.items():
            print(f"  {name:34s} {value:.6g} {unit}{counts.get(name, '')}")
        for label, name, detail in checks.failures:
            print(f"  FAILED {label}: {name} {detail}")
        correct = not checks.failures
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
