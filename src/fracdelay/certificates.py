"""Contraction and boundedness certificates.

All certificates are sufficient conditions built from norm bounds on the
solution representation.  The uniform (window-contraction) family is

    g(delta) = (1 - D(delta))^-1 ( ||sum_j phi_j(delta)||
                                   + L1(delta) * sum_{i>=1} a_i )

with D(delta) = L1(delta) * a_0,  L1(delta) = integral_0^delta ||phi||,
a_0 the uniform bound of the time-varying instantaneous part (plus the lag-0
feedback contribution ||B|| K_0), and a_i the uniform bounds of the delayed
coefficients (plus ||B|| K_i under feedback).  The certificate is usable only
while D(delta) < 1 ("feasible"); g <= 1 certifies a non-expansive solution
map (bounded solutions), g < 1 a contraction (zero is a globally
asymptotically stable attractor).

The windowed-L2 family replaces the uniform bounds by Cauchy-Schwarz
factorizations (integral ||phi|| f <= (integral ||phi||^2)^(1/2)
(integral f^2)^(1/2)); it requires alpha > 1/2 for the squared kernel to be
integrable and covers strongly time-localized perturbations better.

What a certificate claims is its verdict only.  A value at delta does not
bound the ratio of solution sup-norms over windows spaced delta apart: for
alpha 1.76, A0 = [[-3.84]], A1 = [[-0.25]], r1 = 1, phi_0 = 1 and
phi_1 = 0, certify(prob, delta_grid=[1]) gives ContractiveGAS with
g = 0.107, while the solution's sup over [1, 2) is 0.708 of its sup over
[0, 1) (it still decays).  What each value bounds is open (ROADMAP.md item
1).  The uniform family reads no delay, so its value and verdict are the
same for every delay size.

The report's contraction constant is the minimum over the supplied grid.
The grid is evaluated as arrays: each family is one array expression over
the sorted deltas, fed by one kernel integration, one stacked norm of the
phi_j and one windowed-L2 pass per table and window start; a one-delta
certificate is the same computation on a grid of one.

The delay-free bounds follow the representation with A0 -> sum_i A_i: with
K0_bar = sup_t max_j ||phi_j(t)||, K1_bar = L1(inf), and
q = K1_bar * sum_i (||Atilde_i|| + ||B|| K_i), the solution satisfies
sup_t ||x(t)|| <= K2_bar = (1 - q)^-1 K0_bar sum_j ||x_j0||  whenever q < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DelaysNotZero, EmptyGrid, KernelNotIntegrable,
                     OrderTooLow, PremiseViolated, WindowOutOfRange)
from .kernels import _QUAD_TOL, Kernels, phi_alpha_l1
from .system import (ControlInput, ValidatedProblem, ahat_sup_norm,
                     atilde_sup_norm, b_sup_norm, check_feedback)
from .tables import (TimeFunctionTable, induced_norms, l2_window_norms,
                     table_linear_combination)

_TIE_TOL = 1e-12
# eigenvalue arguments within this many radians of alpha pi / 2 count as
# on the edge of the decay sector
_SECTOR_TOL = 1e-12
# largest |phi_j| on the prehistory that counts as zero in high_order_check
_ZERO_TOL = 1e-12


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _gain_bounds(prob: ValidatedProblem, feedback: ControlInput | None):
    """Per-lag declared gain bounds K_i^0 (zeros without feedback)."""
    ctl = feedback if feedback is not None else prob.control
    if ctl is None or ctl.kind != "feedback":
        return [0.0] * len(prob.system.delays), None
    check_feedback(prob.system, ctl)
    return list(ctl.gain_bounds), ctl


class _CertInputs:
    """The inputs of both certificate families over one delta grid.

    Feedback enters here only: through the declared gain bounds in the
    uniform family and the B K_i tables in the windowed-L2 family.  Without
    feedback both reduce to the uncontrolled certificates.  The kernel
    integrals ``||phi||^p`` for ``p in powers`` (1 for the uniform family, 2
    for the windowed-L2 one) come from one cumulative integration over the
    sorted grid, the phi_j norms from one table per j and one stacked norm.
    An eigenvalue of A0 inside |arg lambda| < alpha pi / 2 (``sector_margin``
    below 0) makes the kernels grow exponentially: then no table is built
    and both families are infeasible at +inf on the whole grid.
    """

    def __init__(self, prob: ValidatedProblem, feedback: ControlInput | None,
                 deltas, powers):
        sys = prob.system
        bounds, ctl = _gain_bounds(prob, feedback)
        grid = np.sort(np.asarray(deltas, dtype=float))
        bad = grid[~(np.isfinite(grid) & (grid > 0))]
        if bad.size:
            raise ValueError(f"delta must be finite and positive, got "
                             f"{float(bad[0])}")
        # sorted without repeats, as np.unique gives it, but np.unique
        # imports numpy.ma
        self.grid = grid[np.append(True, grid[1:] != grid[:-1])]
        ker = Kernels(sys.alpha, sys.A[0])
        self.growing = ker.sector_margin() < -_SECTOR_TOL
        if self.growing:
            return
        bn = b_sup_norm(prob)
        lags = range(1, len(sys.delays))
        self.prob = prob
        self.a0 = atilde_sup_norm(prob, 0) + bn * bounds[0]
        self.a_delayed = sum(ahat_sup_norm(prob, i) + bn * bounds[i]
                             for i in lags)
        self.ahat = [(sys.delays[i], table_linear_combination(
            sys.A[i], sys.A_tilde[i])) for i in lags]
        B = sys.B
        self.bk = None if ctl is None else [TimeFunctionTable(
            B.sample_times.copy(), np.einsum("qik,kj->qij", B.values, K),
            B.interpolation) for K in ctl.gains]
        integrals = dict(zip(powers, ker.norm_integrals(
            np.concatenate(([0.0], self.grid)), powers)))
        self.l1 = integrals.get(1)
        self.l2k = np.sqrt(integrals[2]) if 2 in integrals else None
        phis = np.array([ker.phi_j(j, self.grid) for j in range(sys.k)])
        self.phi_sum_norm = induced_norms(phis.sum(axis=0))
        self.phi_norm_sum = induced_norms(phis).sum(axis=0)

    def _infeasible(self):
        return (np.full(self.grid.size, math.inf),
                np.zeros(self.grid.size, dtype=bool))

    def g(self):
        """Uniform-family values and feasibility per delta."""
        if self.growing:
            return self._infeasible()
        return _contraction(self.phi_sum_norm + self.l1 * self.a_delayed,
                            self.l1 * self.a0)

    def g_hat(self, t: float):
        """Windowed-L2 values (NaN where a window leaves a table's domain)
        and feasibility per delta at window start t; the matrix functions
        count as zero for t < 0, where the trajectory difference is zero."""
        if not math.isfinite(t):
            raise ValueError(f"window start t must be finite, got {t}")
        if self.growing:
            return self._infeasible()
        grid, bk = self.grid, self.bk
        d_factor = l2_window_norms(self.prob.system.A_tilde[0], t, grid)
        if bk is not None:
            d_factor = d_factor + l2_window_norms(bk[0], t, grid)
        numer = self.phi_norm_sum
        # each window starts at max(start, 0); its width is measured from
        # delta, since (start + delta) - lo rounds to 0 for a large start
        for i, (r_i, ahat) in enumerate(self.ahat, start=1):
            lo = max(t - r_i, 0.0)
            numer = numer + self.l2k * l2_window_norms(
                ahat, lo, grid - (lo - (t - r_i)))
            if bk is not None:
                lo = max(t, 0.0)
                numer = numer + self.l2k * l2_window_norms(
                    bk[i], lo, grid - (lo - t))
        value, feasible = _contraction(numer, self.l2k * d_factor)
        return np.where(np.isnan(numer + d_factor), np.nan, value), feasible


def _contraction(numer: np.ndarray, D: np.ndarray):
    """(numer / (1 - D), D < 1); inf where the denominator is not positive."""
    feasible = D < 1.0
    return (np.where(feasible, numer / np.where(feasible, 1.0 - D, 1.0),
                     math.inf), feasible)


def _one_delta(values, what: str):
    """(value, feasible) of a one-delta grid, raising where a window left a
    table's domain (NaN)."""
    value, feasible = float(values[0][0]), bool(values[1][0])
    if math.isnan(value):
        raise WindowOutOfRange(f"a window of {what} leaves a table's domain")
    return value, feasible


# ---------------------------------------------------------------------------
# uniform-bound family
# ---------------------------------------------------------------------------

def cert_g_f(prob: ValidatedProblem, feedback: ControlInput | None,
             delta: float):
    """Window-contraction certificate; gains enter through their declared bounds.

    Returns (value, feasible); infeasible means the inverse factor's
    denominator was not positive, reported rather than raised.
    """
    return _one_delta(_CertInputs(prob, feedback, [delta], (1,)).g(),
                      f"g({delta})")


def cert_g_h(prob: ValidatedProblem, delta: float):
    """Uncontrolled certificate: the controlled one with zero gain bounds."""
    return cert_g_f(prob, ControlInput.none(), delta)


# ---------------------------------------------------------------------------
# windowed-L2 family
# ---------------------------------------------------------------------------

def cert_g_hat_f(prob: ValidatedProblem, feedback: ControlInput | None,
                 t: float, delta: float):
    """Windowed-L2 certificate at window start t; requires alpha > 1/2.

    Gain terms enter as L2 windows of B K_i.
    """
    inputs = _CertInputs(prob, feedback, [delta], (2,))
    return _one_delta(inputs.g_hat(t), f"g_hat({t}, {delta})")


def cert_g_hat_h(prob: ValidatedProblem, t: float, delta: float):
    """Uncontrolled windowed-L2 certificate: no B K_i windows."""
    return cert_g_hat_f(prob, ControlInput.none(), t, delta)


# ---------------------------------------------------------------------------
# admissible gain bounds
# ---------------------------------------------------------------------------

def gain_bound_uniform(prob: ValidatedProblem, delta: float,
                       epsilon: float) -> float:
    """Largest uniform gain bound preserving the margin epsilon.

    Requires g_h(delta) < 1 - epsilon; a zero input norm makes the bound
    vacuous and returns +inf.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    inputs = _CertInputs(prob, ControlInput.none(), [delta], (1,))
    value, feasible = _one_delta(inputs.g(), f"g_h({delta})")
    if not feasible or value >= 1.0 - epsilon:
        raise PremiseViolated(
            f"g_h({delta}) = {value:.6g} is not below 1 - epsilon = "
            f"{1 - epsilon:.6g}")
    bn = b_sup_norm(prob)
    if bn == 0.0:
        return math.inf
    return epsilon / (len(prob.system.delays) * inputs.l1[0] * bn)


def gain_bound_l2(prob: ValidatedProblem, delta: float, epsilon: float,
                  t: float | None = None) -> float:
    """L2 analogue bounding the summed windowed gain norms."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    t0 = prob.system.h if t is None else t
    inputs = _CertInputs(prob, ControlInput.none(), [delta], (2,))
    value, feasible = _one_delta(inputs.g_hat(t0), f"g_hat_h({t0}, {delta})")
    if not feasible or value >= 1.0 - epsilon:
        raise PremiseViolated(
            f"g_hat_h({t0}, {delta}) = {value:.6g} is not below "
            f"{1 - epsilon:.6g}")
    bn = b_sup_norm(prob)
    if bn == 0.0:
        return math.inf
    return epsilon / (inputs.l2k[0] * bn)


# ---------------------------------------------------------------------------
# grid sweep and verdict
# ---------------------------------------------------------------------------

DEFAULT_DELTA_GRID = tuple(np.geomspace(1e-2, 1e2, 25))


@dataclass
class GridEntry:
    delta: float
    value: float
    feasible: bool


@dataclass
class CertificateReport:
    verdict: str                        # ContractiveGAS | NonExpansiveStable | Inconclusive
    contraction_constant: float | None
    witness_delta: float | None
    grid: list = field(default_factory=list)
    sup_bound: float | None = None      # claimed uniform bound on ||x||_inf

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "contraction_constant": self.contraction_constant,
            "witness_delta": self.witness_delta,
            "grid": [{"delta": e.delta, "value": e.value,
                      "feasible": e.feasible} for e in self.grid],
            "sup_bound": self.sup_bound,
        }


def certify(prob: ValidatedProblem, feedback: ControlInput | None = None,
            delta_grid=None, t_grid=None) -> CertificateReport:
    """Evaluate the applicable certificate family over a delta grid.

    Per delta the reported value is the best (smallest) among the feasible
    variants: the uniform-bound certificate always, and the sup over
    ``t_grid`` of the windowed-L2 one when alpha > 1/2 and all windows are
    covered by the problem's tables.  Verdict per the report invariants:
    some feasible value < 1 (within a 1e-12 tie tolerance) certifies global
    asymptotic stability of the zero solution; a feasible value at 1
    certifies bounded solutions with the sup bound recorded in the report.
    Kernels that grow exponentially (see ``_CertInputs``) give an
    Inconclusive report, every entry infeasible at +inf, and no quadrature.
    """
    if delta_grid is None:
        delta_grid = DEFAULT_DELTA_GRID
    delta_grid = [float(d) for d in delta_grid]
    if len(delta_grid) == 0:
        raise EmptyGrid("certify needs at least one delta")
    sys = prob.system
    t_grid = [sys.h] if t_grid is None else [float(t) for t in t_grid]
    if not all(map(math.isfinite, t_grid)):
        raise ValueError(f"t_grid must be finite, got {t_grid}")
    with_hat = sys.alpha > 0.5
    inputs = _CertInputs(prob, feedback, delta_grid,
                         (1, 2) if with_hat else (1,))
    value, feasible = inputs.g()
    hats = [inputs.g_hat(t) for t in t_grid] if with_hat else []
    if hats:
        hat_value = np.max([v for v, _ in hats], axis=0)
        hat_feasible = np.all([f for _, f in hats], axis=0)
        # a delta with a window outside a table's domain keeps its uniform value
        better = (~np.isnan(hat_value) & hat_feasible
                  & (~feasible | (hat_value < value)))
        value = np.where(better, hat_value, value)
        feasible = feasible | better
    entries = [GridEntry(delta=d, value=float(value[i]),
                         feasible=bool(feasible[i])) for d, i in
               zip(delta_grid, np.searchsorted(inputs.grid, delta_grid))]
    best = min((e for e in entries if e.feasible), key=lambda e: e.value,
               default=None)
    if best is None or best.value > 1.0 + _TIE_TOL:
        return CertificateReport(verdict="Inconclusive",
                                 contraction_constant=None,
                                 witness_delta=None, grid=entries)
    return CertificateReport(
        verdict=("ContractiveGAS" if best.value < 1.0 - _TIE_TOL
                 else "NonExpansiveStable"),
        contraction_constant=best.value, witness_delta=best.delta,
        grid=entries, sup_bound=prob.ics.sup_history_sum())


# ---------------------------------------------------------------------------
# delay-free bounds
# ---------------------------------------------------------------------------

@dataclass
class DelayFreeBounds:
    K0_bar: float
    K1_bar: float
    K2_bar: float | None          # None when the smallness condition fails
    decay_detected: bool
    condition_holds: bool
    load: float                   # K1_bar * sum_i (||Atilde_i|| + ||B|| K_i)

    @property
    def verdict(self) -> str:
        if not self.condition_holds:
            return "Inconclusive"
        return ("GloballyAsymptoticallyStable" if self.decay_detected
                else "GloballyStable")

    def as_dict(self) -> dict:
        return {"K0": self.K0_bar, "K1": self.K1_bar, "K2": self.K2_bar,
                "decay_detected": self.decay_detected,
                "verdict": self.verdict}


def _l1_to_infinity(ker: Kernels) -> float:
    """integral_0^inf ||phi(s)|| ds.

    Exact for a scalar kernel with alpha <= 1: phi >= 0 there (see
    ``Kernels.norm_integrals``), so the integral is its Laplace transform
    (s^a - lam)^-1 at s = 0, that is 1/|lam|.  Otherwise a truncated
    integral over doubling horizons with a geometric tail estimate.
    """
    alpha = ker.alpha
    lam = np.linalg.eigvals(ker.A0)
    if np.any(lam.real >= 0):
        raise KernelNotIntegrable(
            "effective matrix is not a stability matrix")
    if ker.sector_margin() <= _SECTOR_TOL:
        raise KernelNotIntegrable(
            "eigenvalue arguments inside the non-decaying sector "
            "|arg| <= alpha pi / 2")
    if ker.n == 1 and alpha <= 1:
        return 1.0 / abs(float(ker.A0[0, 0]))
    rho = float(np.min(np.abs(lam.real)))
    T = max(20.0, 20.0 * (1.0 / rho) ** (1.0 / min(alpha, 1.0)))
    prev = phi_alpha_l1(ker, T)
    inc_prev = None
    for _ in range(10):
        # only the new segment [T, 2T] is integrated
        inc = float(ker.norm_integrals([T, 2.0 * T], (1,))[0, 0])
        T *= 2.0
        cur = prev + inc
        if inc <= _QUAD_TOL * max(1.0, cur):
            return cur
        if inc_prev is not None:
            ratio = inc / inc_prev
            if ratio < 0.75:
                tail = inc * ratio / (1.0 - ratio)
                return cur + 2.0 * tail
        inc_prev, prev = inc, cur
    raise KernelNotIntegrable(
        f"L1 tail did not settle by T = {T:.3g} (last increment {inc:.3g})")


def delay_free_certify(prob: ValidatedProblem,
                       feedback: ControlInput | None = None) -> DelayFreeBounds:
    """Solution bounds for the all-lags-zero encoding.

    Kernels use A0 -> sum_i A_i; a constant lag-0 feedback gain with constant
    B is absorbed into that matrix (and dropped from the load sum).
    """
    sys = prob.system
    if not sys.is_delay_free:
        raise DelaysNotZero(f"system has nonzero delays {sys.delays}")
    bounds, ctl = _gain_bounds(prob, feedback)
    bn = b_sup_norm(prob)

    A_bar = sum(sys.A)
    load_terms = [atilde_sup_norm(prob, i) + bn * bounds[i]
                  for i in range(len(sys.delays))]
    if (ctl is not None and sys.B is not None
            and sys.B.sample_times.size == 1):
        # constant-gain variant: fold B K_0 into the kernel matrix
        A_bar = A_bar + sys.B.values[0] @ ctl.gains[0]
        load_terms[0] = atilde_sup_norm(prob, 0)

    ker = Kernels(sys.alpha, A_bar)
    lam = np.linalg.eigvals(ker.A0)
    rho = float(np.min(np.abs(lam.real))) if np.all(lam.real < 0) else 1.0
    T0 = max(20.0, 30.0 * (1.0 / rho) ** (1.0 / min(sys.alpha, 1.0)))
    grid = np.concatenate(([0.0], np.geomspace(T0 * 1e-5, T0, 2000)))
    norms = induced_norms(np.array([ker.phi_j(j, grid) for j in range(sys.k)]))
    K0 = float(np.max(norms))
    decay = bool(np.max(norms[:, grid >= 0.8 * T0]) <= 1e-3 * max(K0, 1e-300))

    K1 = _l1_to_infinity(ker)
    load = K1 * sum(load_terms)
    condition = load < 1.0
    K2 = None
    if condition:
        x0_sum = sum(induced_norms(np.array(prob.ics.x0)).tolist())
        K2 = K0 * x0_sum / (1.0 - load)
    return DelayFreeBounds(K0_bar=K0, K1_bar=K1, K2_bar=K2,
                           decay_detected=decay, condition_holds=condition,
                           load=load)


# ---------------------------------------------------------------------------
# high-order boundedness check
# ---------------------------------------------------------------------------

@dataclass
class HighOrderResult:
    verdict: str                        # BoundedIndependentOfDelays | Inconclusive
    zeroing_holds: bool
    spectral_passes: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "zeroing_holds": self.zeroing_holds,
                "spectral_passes": self.spectral_passes, **self.details}


def high_order_check(prob: ValidatedProblem) -> HighOrderResult:
    """Boundedness check for orders alpha >= 2 (not a stability verdict).

    Requires phi_j identically zero for every j < alpha - 1 and the strict
    composite-norm test against |mu2|^(1/alpha) from the spectral module,
    together with the eigenvalue argument condition |arg| < alpha*pi/2.
    """
    from .spectral import theorem34_certify

    sys = prob.system
    if sys.alpha < 2.0:
        raise OrderTooLow(f"alpha = {sys.alpha} is below 2")
    zero_ok = all(np.max(np.abs(phi(np.linspace(phi.t_start, 0.0, 2001))))
                  <= _ZERO_TOL for j, phi in enumerate(prob.ics.phi)
                  if j < sys.alpha - 1.0)
    t34 = theorem34_certify(sys)
    spectral_ok = bool(t34.arg_condition_met and t34.strict_norm_test)
    verdict = ("BoundedIndependentOfDelays" if zero_ok and spectral_ok
               else "Inconclusive")
    return HighOrderResult(verdict=verdict, zeroing_holds=zero_ok,
                           spectral_passes=spectral_ok,
                           details={"composite_norm": t34.composite_norm,
                                    "threshold": t34.threshold})
