"""Problem definition: delayed fractional dynamics, initial data, controls.

The state equation has real order alpha > 0, point delays
0 = r_0 < r_1 < ... < r_r = h, and split dynamics matrices
Ahat_i(t) = A_i + Atilde_i(t) (constant part plus bounded time-varying part),
with input matrix B(t) and either an open-loop input or delayed state
feedback u(t) = sum_i K_i x(t - r_i).

``validate_system`` checks every structural invariant once; downstream code
treats a :class:`ValidatedProblem` as immutable and consistent.  The
certificates and the march read the lag terms through ``lag_tables`` alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DelayOrderViolation, DimensionMismatch, EndpointMismatch,
                     NonPositiveOrder)
from .tables import (TimeFunctionTable, as_table, induced_norm, induced_norms,
                     sup_norm_bound, table_linear_combination)

ENDPOINT_ATOL = 1e-12
_HISTORY_POINTS = 2001      # sample points of sup_history_sum on [-h, 0]


def order_index(alpha: float) -> int:
    """Number k of initial functions: k - 1 < alpha <= k."""
    if alpha <= 0:
        raise NonPositiveOrder(f"alpha must be positive, got {alpha}")
    return int(math.ceil(alpha - 1e-12))


@dataclass(frozen=True)
class FractionalDelaySystem:
    alpha: float
    delays: tuple              # r_0 = 0 <= ... <= r_r = h
    A: tuple                   # r+1 constant n x n matrices
    A_tilde: tuple             # r+1 TimeFunctionTable, n x n
    B: TimeFunctionTable | None = None   # n x m

    @property
    def n(self) -> int:
        return self.A[0].shape[0]

    @property
    def m(self) -> int:
        return 0 if self.B is None else self.B.values.shape[-1]

    @property
    def k(self) -> int:
        return order_index(self.alpha)

    @property
    def h(self) -> float:
        return self.delays[-1]

    @property
    def is_delay_free(self) -> bool:
        return all(d == 0.0 for d in self.delays)

    @property
    def kernel_matrix(self) -> np.ndarray:
        """The constant matrix of the kernels: the A_i with r_i = 0, summed."""
        return sum(M for M, r in zip(self.A, self.delays) if r == 0.0)


@dataclass(frozen=True)
class InitialConditionSet:
    phi: tuple                 # k vector functions on [-h, 0], TimeFunctionTable
    x0: tuple                  # k endpoint vectors phi_j(0)

    def history(self, s):
        """Prehistory value sum_j phi_j(s) for s in [-h, 0]."""
        return sum(p(s) for p in self.phi)

    def sup_history_sum(self) -> float:
        """sup over [-h, 0] of sum_j ||phi_j(t)||_inf, sampled."""
        lo = min(p.t_start for p in self.phi)
        ss = np.linspace(lo, 0.0, _HISTORY_POINTS)
        total = np.zeros(ss.size)
        for p in self.phi:
            vals = np.atleast_2d(p(ss))
            total += np.max(np.abs(vals), axis=-1)
        return float(np.max(total))


@dataclass(frozen=True)
class ControlInput:
    kind: str = "none"                      # "none" | "open_loop" | "feedback"
    u: TimeFunctionTable | None = None      # open-loop input on [0, T]
    gains: tuple = ()                       # feedback gain matrices K_i (m x n)
    gain_bounds: tuple = ()                 # declared uniform bounds K_i^0

    @staticmethod
    def none() -> "ControlInput":
        return ControlInput()

    @staticmethod
    def open_loop(u: TimeFunctionTable) -> "ControlInput":
        return ControlInput(kind="open_loop", u=u)

    @staticmethod
    def feedback(gains, bounds=None) -> "ControlInput":
        gains = tuple(np.asarray(g, dtype=float) for g in gains)
        if bounds is None:
            bounds = tuple(induced_norm(g) for g in gains)
        return ControlInput(kind="feedback", gains=gains,
                            gain_bounds=tuple(float(b) for b in bounds))


@dataclass(frozen=True)
class ValidatedProblem:
    system: FractionalDelaySystem
    ics: InitialConditionSet
    control: ControlInput

    @property
    def n(self):
        return self.system.n

    @property
    def k(self):
        return self.system.k


def _freeze_matrix(M, n_rows, n_cols, what) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (n_rows, n_cols):
        raise DimensionMismatch(f"{what} has shape {M.shape}, expected {(n_rows, n_cols)}")
    if not np.all(np.isfinite(M)):
        raise DimensionMismatch(f"{what} contains non-finite entries")
    M.flags.writeable = False
    return M


def check_feedback(sys: FractionalDelaySystem, control: ControlInput) -> None:
    """Raise DimensionMismatch unless the feedback ``control`` fits ``sys``."""
    if sys.B is None:
        raise DimensionMismatch("feedback control requires an input matrix B")
    if len(control.gains) != len(sys.delays):
        raise DimensionMismatch(f"{len(control.gains)} feedback gains for "
                                f"{len(sys.delays)} delays")
    if len(control.gain_bounds) != len(control.gains):
        raise DimensionMismatch(f"{len(control.gain_bounds)} gain bounds for "
                                f"{len(control.gains)} gains")
    shape = (sys.m, sys.n)
    for i, (K, bound) in enumerate(zip(control.gains, control.gain_bounds)):
        if K.shape != shape:
            raise DimensionMismatch(f"gain K[{i}] has shape {K.shape}, "
                                    f"expected {shape}")
        # a NaN bound would pass the test below: NaN > x is False
        if not (np.all(np.isfinite(K)) and math.isfinite(bound)):
            raise DimensionMismatch(
                f"gain K[{i}] or its declared bound {bound} is not finite")
        if induced_norm(K) > bound * (1 + 1e-12) + 1e-15:
            raise DimensionMismatch(
                f"gain K[{i}] violates its declared bound {bound}")


def validate_system(alpha, delays, A, A_tilde=None, B=None, phi=(), x0=None,
                    control: ControlInput | None = None) -> ValidatedProblem:
    """Check all structural invariants and return the normalized problem.

    Delays must either be strictly increasing from exactly 0, or all zero
    (the delay-free encoding, which may carry several matrices at lag 0).
    ``phi`` must supply k = ceil(alpha) initial functions; their endpoint
    values are checked against ``x0`` to within 1e-12 when given, otherwise
    taken from the tables.
    """
    alpha = float(alpha)
    k = order_index(alpha)   # raises NonPositiveOrder

    delays = tuple(float(d) for d in delays)
    if len(delays) == 0 or delays[0] != 0.0:
        raise DelayOrderViolation(f"delays must start at exactly 0, got {delays!r}")
    all_zero = all(d == 0.0 for d in delays)
    if not all_zero:
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise DelayOrderViolation(f"delays not strictly increasing: {delays!r}")
        if not all(math.isfinite(d) for d in delays):
            raise DelayOrderViolation("delays must be finite")

    A = list(A)
    if len(A) != len(delays):
        raise DimensionMismatch(f"{len(A)} constant matrices for {len(delays)} delays")
    n = np.asarray(A[0], dtype=float).shape[0]
    A = tuple(_freeze_matrix(M, n, n, f"A[{i}]") for i, M in enumerate(A))

    if A_tilde is None:
        A_tilde = [np.zeros((n, n))] * len(delays)
    A_tilde = list(A_tilde)
    if len(A_tilde) != len(delays):
        raise DimensionMismatch(f"{len(A_tilde)} time-varying matrices for "
                                f"{len(delays)} delays")
    A_tilde = tuple(as_table(T if T is not None else np.zeros((n, n)), n, n)
                    for T in A_tilde)
    for i, T in enumerate(A_tilde):
        if T.values.shape[1:] != (n, n):
            raise DimensionMismatch(f"A_tilde[{i}] values are {T.values.shape[1:]}, "
                                    f"expected {(n, n)}")

    m = 0
    if B is not None:
        B = as_table(B)
        if B.values.ndim != 3 or B.values.shape[1] != n:
            raise DimensionMismatch(f"B values are {B.values.shape[1:]}, "
                                    f"expected ({n}, m)")
        m = B.values.shape[2]

    sys = FractionalDelaySystem(alpha=alpha, delays=delays, A=A,
                                A_tilde=A_tilde, B=B)

    phi = [as_table(p) if not isinstance(p, TimeFunctionTable) else p for p in phi]
    if len(phi) != k:
        raise EndpointMismatch(
            f"order alpha={alpha} requires k={k} initial functions, got {len(phi)}")
    h = sys.h
    for j, p in enumerate(phi):
        if p.values.shape[1:] != (n,):
            raise DimensionMismatch(f"phi[{j}] values are {p.values.shape[1:]}, "
                                    f"expected ({n},)")
        if h > 0 and p.t_start > -h + 1e-12 and p.interpolation == "linear":
            raise DimensionMismatch(f"phi[{j}] must cover [-h, 0] = [{-h}, 0]")
    endpoints = tuple(np.asarray(p(0.0), dtype=float) for p in phi)
    if x0 is None:
        x0 = endpoints
    else:
        x0 = tuple(np.asarray(v, dtype=float) for v in x0)
        if len(x0) != k:
            raise EndpointMismatch(f"{len(x0)} endpoint vectors for k={k}")
        for j, (v, e) in enumerate(zip(x0, endpoints)):
            if v.shape != (n,):
                raise DimensionMismatch(f"x0[{j}] has shape {v.shape}, expected ({n},)")
            if np.max(np.abs(v - e)) > ENDPOINT_ATOL:
                raise EndpointMismatch(
                    f"phi[{j}](0) = {e} differs from x0[{j}] = {v} beyond "
                    f"{ENDPOINT_ATOL}")
    ics = InitialConditionSet(phi=tuple(phi), x0=x0)

    control = control or ControlInput.none()
    if control.kind == "feedback":
        check_feedback(sys, control)
    elif control.kind == "open_loop":
        if sys.B is None:
            raise DimensionMismatch("open-loop control requires an input matrix B")
        if control.u.values.shape[1:] != (m,):
            raise DimensionMismatch(f"u values are {control.u.values.shape[1:]}, "
                                    f"expected ({m},)")

    return ValidatedProblem(system=sys, ics=ics, control=control)


def lag_tables(prob: ValidatedProblem, control: ControlInput | None = None):
    """(r_i, tables) per lag under ``control`` (default the problem's): the
    tables of x(t - r_i) past the kernel matrix, Atilde_i when r_i = 0 and
    A_i + Atilde_i otherwise, then B K_i under feedback."""
    sys = prob.system
    ctl = prob.control if control is None else control
    if ctl.kind == "feedback":
        check_feedback(sys, ctl)
    out = []
    for i, r_i in enumerate(sys.delays):
        tables = ((sys.A_tilde[i],) if r_i == 0.0 else
                  (table_linear_combination(sys.A[i], sys.A_tilde[i]),))
        if ctl.kind == "feedback":
            bk = np.einsum("qik,kj->qij", sys.B.values, ctl.gains[i])
            tables += (TimeFunctionTable(sys.B.sample_times, bk,
                                         sys.B.interpolation),)
        out.append((r_i, tables))
    return out


def ahat_sup_norm(prob: ValidatedProblem, i: int) -> float:
    """Uniform bound on ||A_i + Atilde_i(t)||_2."""
    sys = prob.system
    tbl = sys.A_tilde[i]
    if tbl.declared_sup_norm is not None and tbl.declared_sup_norm > 0:
        # declared bound on the varying part: conservative triangle combination
        return induced_norm(sys.A[i]) + tbl.declared_sup_norm
    return float(np.max(induced_norms(tbl.values + sys.A[i])))


def atilde_sup_norm(prob: ValidatedProblem, i: int) -> float:
    return sup_norm_bound(prob.system.A_tilde[i])


def b_sup_norm(prob: ValidatedProblem) -> float:
    if prob.system.B is None:
        return 0.0
    return sup_norm_bound(prob.system.B)


# ---------------------------------------------------------------------------
# JSON problem files
# ---------------------------------------------------------------------------

def _table_from_json(obj) -> TimeFunctionTable:
    if isinstance(obj, dict):
        return TimeFunctionTable(np.asarray(obj["times"], dtype=float),
                                 np.asarray(obj["values"], dtype=float),
                                 obj.get("interp", "linear"),
                                 obj.get("sup_norm"))
    return as_table(np.asarray(obj, dtype=float))


def problem_from_dict(doc: dict) -> ValidatedProblem:
    """Build and validate a problem from its JSON document."""
    alpha = doc["alpha"]
    delays = doc["delays"]
    A = [np.asarray(M, dtype=float) for M in doc["A"]]
    A_tilde = None
    if doc.get("A_tilde") is not None:
        A_tilde = [None if T is None else _table_from_json(T) for T in doc["A_tilde"]]
    B = _table_from_json(doc["B"]) if doc.get("B") is not None else None
    phi = [_table_from_json(p) for p in doc.get("phi", [])]
    x0 = doc.get("x0")
    if x0 is not None:
        x0 = [np.asarray(v, dtype=float) for v in x0]

    control = ControlInput.none()
    ctl = doc.get("control")
    if ctl:
        if ctl["type"] == "open_loop":
            control = ControlInput.open_loop(_table_from_json(ctl["u"]))
        elif ctl["type"] == "feedback":
            gains = [np.asarray(g["matrix"], dtype=float) for g in ctl["gains"]]
            bounds = [g.get("bound") for g in ctl["gains"]]
            bounds = [induced_norm(g) if b is None else float(b)
                      for g, b in zip(gains, bounds)]
            control = ControlInput.feedback(gains, bounds)
        else:
            raise ValueError(f"unknown control type {ctl['type']!r}")
    return validate_system(alpha, delays, A, A_tilde, B, phi, x0, control)


def load_problem(path) -> ValidatedProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))


def _table_to_json(tbl: TimeFunctionTable):
    return {
        "times": tbl.sample_times.tolist(),
        "values": tbl.values.tolist(),
        "interp": tbl.interpolation,
        **({"sup_norm": tbl.declared_sup_norm}
           if tbl.declared_sup_norm is not None else {}),
    }


def problem_to_dict(prob: ValidatedProblem) -> dict:
    """Normalized JSON document; re-parses to an equivalent problem."""
    sys = prob.system
    doc = {
        "alpha": sys.alpha,
        "delays": list(sys.delays),
        "A": [M.tolist() for M in sys.A],
        "A_tilde": [_table_to_json(T) for T in sys.A_tilde],
        "B": _table_to_json(sys.B) if sys.B is not None else None,
        "phi": [_table_to_json(p) for p in prob.ics.phi],
        "x0": [v.tolist() for v in prob.ics.x0],
        "control": None,
    }
    ctl = prob.control
    if ctl.kind == "open_loop":
        doc["control"] = {"type": "open_loop", "u": _table_to_json(ctl.u)}
    elif ctl.kind == "feedback":
        doc["control"] = {"type": "feedback",
                          "gains": [{"matrix": K.tolist(), "bound": b}
                                    for K, b in zip(ctl.gains, ctl.gain_bounds)]}
    return doc
