"""Sampled representations of piecewise-continuous matrix/vector functions of time.

A :class:`TimeFunctionTable` stores samples at strictly increasing times plus an
interpolation rule:

* ``"const"``  -- piecewise constant, holding the value of the last sample at or
  before ``t``.  The last value extends to ``+inf``, so a single-sample const
  table represents a constant function on ``[t0, inf)``.
* ``"linear"`` -- piecewise linear, defined only on ``[times[0], times[-1]]``.

``declared_sup_norm``, when given, is trusted as the uniform bound after being
checked against the samples.

Norm convention: every norm in the package is the 2-norm, the spectral norm
(largest singular value) of a matrix and the Euclidean norm of a vector, and
``induced_norms`` is its one routine.  It takes a matrix's 2-norm
from the largest eigenvalue of a Gram matrix, not from an SVD: with
s = max |M_ij| and Y = M / s, ||M|| = s sqrt(lambda_max(Y^H Y)), so no
square under- or overflows for entries near 1e-200 or 1e+200, and a zero
matrix gives 0.  It agrees with the largest singular value to about n eps
relative for n x n matrices (measured at most 6.4 eps for n = 2..6, on
general, complex, non-normal and rank-one matrices scaled by 10^-200 to
10^200); 1x1 matrices and vectors keep their exact routes.  The
exceptions are the max-norms of ``Trajectory.sup_norm`` and
``sup_history_sum`` and the Frobenius tail estimate of
``mlf._ml_matrix_series``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyTable, WindowOutOfRange


def induced_norms(stack) -> np.ndarray:
    """The 2-norm of every item of a stack, the package's one 2-norm
    routine: rows of a 2-D (real) stack are vectors, the last two axes of a
    longer one matrices.  The 2-norm of a matrix M other than 1x1 is
    s sqrt(lambda_max(Y^H Y)) with Y = M / s and s = max |M_ij| (the Gram
    matrix of the shorter side); a zero matrix gives 0, a matrix with a
    non-finite entry s (inf, or NaN with a NaN entry)."""
    x = np.asarray(stack)
    if x.ndim == 2:
        # one dot product per row, rounded as np.linalg.norm rounds a vector
        return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])
    if x.shape[-2:] == (1, 1):
        return np.abs(x[..., 0, 0])
    # scaled by the largest entry, no square under- or overflows
    s = np.abs(x).max(axis=(-2, -1))
    y = x / np.where((s > 0) & np.isfinite(s), s, 1.0)[..., None, None]
    yh = np.swapaxes(y, -1, -2)
    if np.iscomplexobj(yh):
        yh = yh.conj()
    gram = y @ yh if x.shape[-2] < x.shape[-1] else yh @ y
    return np.where(np.isfinite(s),
                    s * np.sqrt(np.linalg.eigvalsh(gram)[..., -1]), s)


def induced_norm(M: np.ndarray) -> float:
    """The 2-norm of a matrix, its largest singular value (the Euclidean
    norm for 1-D input)."""
    return float(induced_norms(np.asarray(M)[None])[0])


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
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(vals))):
            raise ValueError("table sample times and values must be finite")
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
            worst = float(np.max(induced_norms(vals)))
            # a NaN declared bound bounds nothing: the test fails on it
            if not worst <= declared * (1 + 1e-12) + 1e-15:
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


def sup_norm_bound(tbl: TimeFunctionTable) -> float:
    """Uniform norm bound of the tabled function.

    Returns the declared bound when present, otherwise the maximum sampled
    2-norm.  For both interpolation rules the sampled maximum equals
    the sup of the interpolant itself (norms are convex along linear segments),
    so this is exact for the table and a lower estimate for the underlying
    function it samples.
    """
    if tbl.declared_sup_norm is not None:
        return tbl.declared_sup_norm
    return float(np.max(induced_norms(tbl.values)))


def l2_window_norm(tbl: TimeFunctionTable, t: float, delta: float) -> float:
    """Windowed L2 norm ( integral_0^delta ||M(t+tau)||^2 dtau )^(1/2).

    The window is split at the sample times inside it, and each panel
    integrated exactly for const tables.  Along a linear panel ||M||^2 is
    convex, which the trapezoid bounds from above, and a quadratic for one
    row or column, which Simpson integrates exactly (for a matrix it may
    not bound it: 1/2 against 7/12 for diag(1 - tau, tau) on [0, 1]).  One
    table evaluation and one stacked norm serve every panel, and the panels
    are summed in order.  An empty window (delta <= 0) gives 0; a window
    that leaves the table's domain, or a NaN delta, raises
    WindowOutOfRange.
    """
    a, delta = float(t), float(delta)
    if delta <= 0:
        return 0.0
    if not (a >= tbl.t_start - 1e-12 and a + delta <= tbl.t_end + 1e-12):
        raise WindowOutOfRange(
            f"window [{a}, {a + delta}] not covered by table domain "
            f"[{tbl.t_start}, {tbl.t_end}]")
    times = tbl.sample_times
    cuts = times[(times > a) & (times < a + delta)]
    lo = np.concatenate(([a], cuts))
    hi = np.append(cuts, a + delta)
    # widths in coordinates relative to t: a rounded t + delta may lose
    # most of delta, or all of it, when t is large
    width = np.diff(np.concatenate(([0.0], cuts - a, [delta])))
    # squared by C pow, which rounds as Python's float ** 2; x * x may not
    if tbl.interpolation == "const":
        pieces = np.float_power(induced_norms(tbl(lo)), 2) * width
    elif tbl.values.ndim == 3 and min(tbl.values.shape[1:]) > 1:
        f = np.float_power(induced_norms(tbl(np.concatenate((lo, hi)))),
                           2).reshape(2, -1)
        pieces = width * (f[0] + f[1]) / 2.0
    else:
        f = np.float_power(induced_norms(tbl(np.concatenate(
            (lo, 0.5 * (lo + hi), hi)))), 2).reshape(3, -1)
        pieces = width * (f[0] + 4.0 * f[1] + f[2]) / 6.0
    return float(np.sqrt(np.cumsum(pieces)[-1]))


def table_linear_combination(base: np.ndarray,
                             tbl: TimeFunctionTable) -> TimeFunctionTable:
    """Table for ``base + tbl(t)`` with the same sampling."""
    return TimeFunctionTable(tbl.sample_times.copy(),
                             tbl.values + np.asarray(base, dtype=float),
                             tbl.interpolation, None)
