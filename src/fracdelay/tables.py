"""Sampled representations of piecewise-continuous matrix/vector functions of time.

A :class:`TimeFunctionTable` stores samples at strictly increasing times plus an
interpolation rule:

* ``"const"``  -- piecewise constant, holding the value of the last sample at or
  before ``t``.  The last value extends to ``+inf``, so a single-sample const
  table represents a constant function on ``[t0, inf)``.
* ``"linear"`` -- piecewise linear, defined only on ``[times[0], times[-1]]``.

``declared_sup_norm``, when given, is trusted as the uniform bound after being
checked against the samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyTable, WindowOutOfRange


def induced_norm(M: np.ndarray, p=2) -> float:
    """Induced matrix norm (vector norm for 1-D input) for p in {1, 2, inf}.

    p = 2 is the largest singular value; "inf" is accepted for np.inf.
    """
    if p in ("inf", np.inf):
        p = np.inf
    if p not in (1, 2, np.inf):
        raise ValueError(f"unsupported norm order {p!r}")
    return float(np.linalg.norm(np.asarray(M), p))


@dataclass(frozen=True)
class TimeFunctionTable:
    sample_times: np.ndarray
    values: np.ndarray           # shape (num_samples, ...) matrix or vector per sample
    interpolation: str = "linear"
    declared_sup_norm: float | None = None

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.sample_times, dtype=float))
        vals = np.asarray(self.values, dtype=float)
        if times.size == 0:
            raise EmptyTable("table has no samples")
        if np.any(np.diff(times) <= 0):
            raise DimensionMismatch("sample times must be strictly increasing")
        if vals.shape[0] != times.size:
            raise DimensionMismatch(
                f"{vals.shape[0]} values for {times.size} sample times")
        if self.interpolation not in ("linear", "const"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        times.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "values", vals)
        if self.declared_sup_norm is not None:
            declared = float(self.declared_sup_norm)
            if declared < 0:
                raise ValueError("declared_sup_norm must be nonnegative")
            worst = max(induced_norm(v) for v in vals)
            if worst > declared * (1 + 1e-12) + 1e-15:
                raise ValueError(
                    f"declared_sup_norm {declared} smaller than sampled norm {worst}")
            object.__setattr__(self, "declared_sup_norm", declared)

    # -- domain ----------------------------------------------------------

    @property
    def t_start(self) -> float:
        return float(self.sample_times[0])

    @property
    def t_end(self) -> float:
        """Right end of the definition domain (inf for const tables)."""
        if self.interpolation == "const":
            return np.inf
        return float(self.sample_times[-1])

    def covers(self, a: float, b: float) -> bool:
        return a >= self.t_start - 1e-12 and b <= self.t_end + 1e-12

    # -- evaluation ------------------------------------------------------

    def __call__(self, t):
        """Evaluate at scalar or array t according to the interpolation rule."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        if np.any(tt < self.t_start - 1e-12) or np.any(tt > self.t_end + 1e-12):
            raise WindowOutOfRange(
                f"evaluation at t outside [{self.t_start}, {self.t_end}]")
        times = self.sample_times
        if self.interpolation == "const":
            idx = np.clip(np.searchsorted(times, tt + 1e-15, side="right") - 1,
                          0, times.size - 1)
            out = self.values[idx]
        else:
            tt = np.clip(tt, times[0], times[-1])
            idx = np.clip(np.searchsorted(times, tt, side="right") - 1,
                          0, times.size - 2)
            t0, t1 = times[idx], times[idx + 1]
            w = ((tt - t0) / (t1 - t0)).reshape((-1,) + (1,) * (self.values.ndim - 1))
            out = (1 - w) * self.values[idx] + w * self.values[idx + 1]
        return out[0] if scalar else out


def as_table(entry, n_rows: int | None = None, n_cols: int | None = None) -> TimeFunctionTable:
    """Wrap a constant matrix/vector into a single-sample const table."""
    if isinstance(entry, TimeFunctionTable):
        return entry
    val = np.asarray(entry, dtype=float)
    if n_rows is not None and val.shape[0] != n_rows:
        raise DimensionMismatch(f"expected {n_rows} rows, got {val.shape[0]}")
    if n_cols is not None and val.ndim == 2 and val.shape[1] != n_cols:
        raise DimensionMismatch(f"expected {n_cols} cols, got {val.shape[1]}")
    return TimeFunctionTable(np.array([0.0]), val[None, ...], "const",
                             float(induced_norm(val)))


def sup_norm_bound(tbl: TimeFunctionTable, p=2) -> float:
    """Uniform norm bound of the tabled function.

    Returns the declared bound when present, otherwise the maximum sampled
    induced p-norm.  For both interpolation rules the sampled maximum equals
    the sup of the interpolant itself (norms are convex along linear segments),
    so this is exact for the table and a lower estimate for the underlying
    function it samples.
    """
    if tbl.sample_times.size == 0:
        raise EmptyTable("empty table")
    if tbl.declared_sup_norm is not None:
        return tbl.declared_sup_norm
    return max(induced_norm(v, p) for v in tbl.values)


def l2_window_norm(tbl: TimeFunctionTable, t: float, delta: float) -> float:
    """Windowed L2 norm ( integral_0^delta ||M(t+tau)||^2 dtau )^(1/2).

    Uses the spectral norm pointwise.  Each table segment clipped to the window
    is integrated by a rule consistent with the interpolation: exact sums for
    const tables, Simpson per segment for linear ones (exact whenever the
    segment norm is a polynomial of degree <= 2, e.g. scalar tables).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    a, b = float(t), float(t) + float(delta)
    if not tbl.covers(a, b):
        raise WindowOutOfRange(
            f"window [{a}, {b}] not covered by table domain "
            f"[{tbl.t_start}, {tbl.t_end}]")

    times = tbl.sample_times
    # breakpoints of the interpolant inside the window
    cuts = times[(times > a) & (times < b)]
    knots = np.concatenate(([a], cuts, [b]))
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        width = hi - lo
        if width <= 0:
            continue
        if tbl.interpolation == "const":
            total += induced_norm(tbl(lo)) ** 2 * width
        else:
            mid = 0.5 * (lo + hi)
            f = [induced_norm(tbl(s)) ** 2 for s in (lo, mid, hi)]
            total += width * (f[0] + 4.0 * f[1] + f[2]) / 6.0
    return float(np.sqrt(total))


def table_linear_combination(base: np.ndarray | None,
                             tbl: TimeFunctionTable) -> TimeFunctionTable:
    """Table for ``base + tbl(t)`` with the same sampling."""
    vals = tbl.values
    if base is not None:
        vals = vals + np.asarray(base, dtype=float)
    return TimeFunctionTable(tbl.sample_times.copy(), vals, tbl.interpolation, None)
