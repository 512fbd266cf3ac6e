"""Timing scaled to a fixed host speed.

On small shared machines the same code runs up to 2x slower in phases that
last from under a second to minutes (other tenants of the host), in CPU time
as in wall time, so raw times of two runs minutes apart do not compare.  A
fixed reference is therefore timed before and after every measured call,
and, for the in-process reference, from a SIGALRM handler every
``SAMPLE_EVERY_S`` during it.  The call's time, less the handler's, is
scaled by the reference's nominal time over the mean of those reference
times: it is the time the call would take at the host speed at which the
reference takes its nominal time.  A reference is the benchmark's own code
and does not touch the library, so a change to the library moves the
scaled times as it moves the raw ones.

Two references exist.  ``LOOP``, a pure-Python loop, serves calls that run
in this process.  ``SPAWN``, the start-up of a bare interpreter, serves
calls that wait for a child process: their time is mostly process start-up
and imports, which the loop tracks worse, and a loop run during the call
would compete with the child for the benchmark's CPU.
"""

from __future__ import annotations

import math
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

LOOP_ITERATIONS = 60_000
SAMPLE_EVERY_S = 0.25


def loop_s() -> float:
    """Wall time of the reference loop."""
    t0 = time.perf_counter()
    acc, slots = 0.0, {}
    for i in range(LOOP_ITERATIONS):
        acc += math.sqrt((i % 97) * 0.5 + 1.0)
        slots[i & 255] = acc
    return time.perf_counter() - t0


def spawn_s() -> float:
    """Wall time of starting an interpreter that does nothing."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Reference:
    time_s: object          # () -> seconds
    nominal_s: float
    sample_during: bool     # whether to time it during the measured call


# nominal times: the references' times in the fast phases of a 2-vCPU Intel
# Xeon VM (Python 3.11); the two keep their measured ratio there, so scaled
# times of both kinds are at the same host speed
LOOP = Reference(loop_s, 0.0075, True)
SPAWN = Reference(spawn_s, 0.032, False)


class ScaledTimer:
    """Times calls one after another; the reference after one call serves as
    the reference before the next."""

    def __init__(self, reference: Reference = LOOP):
        self.reference = reference
        self.last_ref = reference.time_s()

    def measure(self, fn):
        """Run ``fn()``; return ``(result, error, wall s, scaled s)``.

        ``error`` is the exception ``fn`` raised, or None.  ``wall`` leaves
        out the time spent in the sampling handler.
        """
        ref_s = self.reference.time_s
        during = []     # (start, reference time, handler time)

        def sample(signum, frame):
            t0 = time.perf_counter()
            ref = ref_s()
            during.append((t0, ref, time.perf_counter() - t0))

        previous = signal.signal(signal.SIGALRM, sample)
        if self.reference.sample_during:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # reported to the caller as the op's error
            error = exc
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        # a handler that started after the end ran outside the call
        wall = end - t0 - sum(h for start, _, h in during if start < end)
        before = self.last_ref
        self.last_ref = ref_s()
        refs = [before, *(ref for _, ref, _ in during), self.last_ref]
        return (result, error, wall,
                wall * self.reference.nominal_s / statistics.mean(refs))
