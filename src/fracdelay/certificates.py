"""Contraction and boundedness certificates: sufficient conditions built
from norm bounds on the solution representation.

Its kernels are those of (alpha, A), A the system's ``kernel_matrix`` (the
sum of the A_i with r_i = 0, as in the march).  Every term
[A_i + Atilde_i(t)] x(t - r_i) and B(t) K_i x(t - r_i) splits into that
kernel and a perturbation: ``system.lag_tables`` gives lag i its tables
(Atilde_i or A_i + Atilde_i, then B K_i), as it does the march, and
``_lag_terms`` its uniform bound a_i (sup ||Atilde_i|| when r_i = 0,
sup ||A_i + Atilde_i|| when r_i > 0, plus ||B|| K_i^0 under feedback).

Every verdict needs the small-gain load q = K1 * sum_i a_i.  K1 = L1(inf),
K0 = sup_t max_j ||phi_j(t)|| and every L1(delta) = integral_0^delta ||phi||
come from ``kernels``; K1 is finite exactly when A has no zero eigenvalue
and none in |arg lambda| <= alpha pi / 2.  The solution is sum_j phi_j x_j0
plus phi convolved with the perturbation terms, and point delays do not
raise sup norms, so

    sup ||x|| <= K0 sum_j ||x_j0|| + q max(sup ||history||, sup ||x||):

q < 1 bounds every solution, for every size of every delay, and as each
phi_j, j < alpha, tends to 0, unforced limsup ||x|| <= q limsup ||x||
gives x -> 0.  With every lag at 0 (a constant B K_0 folded into the
kernel) this is the delay-free bound K2_bar = (1 - q)^-1 (K0_bar
sum_j ||x_j0|| + K1_bar sup||B|| sup||u||), the u term for an open-loop
input.

The uniform (window-contraction) family is

    g(delta) = (1 - D(delta))^-1 ( ||sum_j phi_j(delta)||
                                   + L1(delta) * sum_{r_i > 0} a_i )

with D(delta) = L1(delta) * sum_{r_i = 0} a_i, usable only while
D(delta) < 1 ("feasible").  ``certify`` evaluates it over a sorted delta
grid as one array expression; the report's constant is the grid minimum.
A minimum below 1 stands as ContractiveGAS only when q < 1, one at 1 as
NonExpansiveStable only when q <= 1: q takes a verdict away, never gives
one.  For a monotone kernel (alpha <= 1) L1(delta) = (1 -
||phi_0(delta)||) K1, so g(delta) < 1 exactly when q < 1.

The windowed-L2 values (``cert_g_hat_*``, ``gain_bound_l2``; alpha > 1/2)
replace the bounds by Cauchy-Schwarz and window every table of lag i over
[max(t, r_i), t + delta] for a window start t: the term at tau multiplies
the table at tau by e(tau - r_i), zero for tau < r_i.  No verdict reads
them: a value at one start bounds every start only for constant
coefficients.  Order alpha >= 2 has no decay sector: ``high_order_check``
reports diagnostics and certifies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DelaysNotZero, EmptyGrid, KernelNotIntegrable,
                     OrderTooLow, PremiseViolated)
# phi_alpha_l1 is not called here: perfbench/test_harness.py reads it
from .kernels import (Kernels, _edges, _kernels, _l1_to_infinity,
                      phi_alpha_l1, phi_alpha_l2sq)
from .spectral import theorem34_certify
from .system import (ControlInput, ValidatedProblem, ahat_sup_norm,
                     atilde_sup_norm, b_sup_norm, lag_tables)
from .tables import induced_norms, l2_window_norm, sup_norm_bound

_TIE_TOL = 1e-12
# largest |phi_j| on the prehistory that counts as zero in high_order_check
_ZERO_TOL = 1e-12


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _control(prob: ValidatedProblem, feedback: ControlInput | None):
    """The control a certificate reads: ``feedback``, else the problem's."""
    return feedback if feedback is not None else prob.control


def _lag_terms(prob: ValidatedProblem, feedback: ControlInput | None):
    """One term (r_i, a_i, tables) per lag, in lag order: ``lag_tables``
    with the module docstring's bound a_i on top."""
    ctl = _control(prob, feedback)
    bn = b_sup_norm(prob)
    terms = []
    for i, (r_i, tables) in enumerate(lag_tables(prob, ctl)):
        bound = (atilde_sup_norm(prob, i) if r_i == 0.0
                 else ahat_sup_norm(prob, i))
        if ctl.kind == "feedback":
            bound = bound + bn * ctl.gain_bounds[i]
        terms.append((r_i, bound, tables))
    return terms


class _CertInputs:
    """The uniform family's numerator and D (module docstring) per delta of
    a grid, its kernel and sum_i a_i.  Growing kernels (``Kernels.grows``)
    integrate nothing: both are +inf, infeasible on the whole grid."""

    def __init__(self, prob: ValidatedProblem, feedback: ControlInput | None,
                 deltas):
        sys = prob.system
        terms = _lag_terms(prob, feedback)
        grid = np.sort(np.asarray(deltas, dtype=float))
        # sorted without repeats, as np.unique gives it, but np.unique
        # imports numpy.ma; checked before any kernel is built
        self.grid = grid[np.append(True, grid[1:] != grid[:-1])]
        _edges(self.grid)
        self.ker = ker = _kernels(sys)
        a_instant = sum(bound for r_i, bound, _ in terms if r_i == 0.0)
        a_delayed = sum(bound for r_i, bound, _ in terms if r_i > 0.0)
        self.load_sum = a_instant + a_delayed
        if ker.grows:
            self.l1 = None
            self.numer = self.D = np.full(self.grid.size, math.inf)
            return
        # L1 and every phi_j at the grid from one Mittag-Leffler pass
        self.l1, phis = ker.l1_and_kernels(
            self.grid, [(j, j + 1) for j in range(sys.k)])
        self.numer = (induced_norms(np.array(phis).sum(axis=0))
                      + self.l1 * a_delayed)
        self.D = self.l1 * a_instant


def _contraction(numer, D):
    """(numer / (1 - D), D < 1); inf where the denominator is not positive."""
    feasible = D < 1.0
    return (np.where(feasible, numer / np.where(feasible, 1.0 - D, 1.0),
                     math.inf), feasible)


def _g_hat(prob: ValidatedProblem, feedback: ControlInput | None, t: float,
           delta: float):
    """The windowed-L2 numerator and D (module docstring; +inf for growing
    kernels) at window start t and one delta, and ||phi||_L2(0, delta).
    Window widths are measured from delta, since (t + delta) - max(t, r_i)
    rounds to 0 for a large t; an empty window gives 0, one that leaves
    its table raises WindowOutOfRange."""
    terms = _lag_terms(prob, feedback)
    _edges(delta)
    if not math.isfinite(t):
        raise ValueError(f"window start t must be finite, got {t}")
    sys = prob.system
    ker = _kernels(sys)
    if ker.grows:
        return math.inf, math.inf, None
    l2k = math.sqrt(phi_alpha_l2sq(ker, delta))
    # every phi_j at delta from one Mittag-Leffler pass
    phis = np.array(list(ker.scaled_each([(j, j + 1) for j in range(sys.k)],
                                         [delta])))

    def windows(lags):
        for r_i, _, tables in lags:
            lo = max(t, r_i)
            for table in tables:
                yield l2_window_norm(table, lo, delta - (lo - t))

    numer = float(induced_norms(phis).sum(axis=0)[0])
    for window in windows(term for term in terms if term[0] > 0.0):
        numer = numer + l2k * window
    return (numer, l2k * sum(windows(term for term in terms
                                     if term[0] == 0.0)), l2k)


# ---------------------------------------------------------------------------
# one-delta certificates of both families
# ---------------------------------------------------------------------------

def cert_g_f(prob: ValidatedProblem, feedback: ControlInput | None,
             delta: float):
    """Window-contraction certificate (value, feasible); gains enter through
    their declared bounds, an infeasible denominator is reported."""
    inputs = _CertInputs(prob, feedback, [delta])
    value, feasible = _contraction(inputs.numer, inputs.D)
    return float(value[0]), bool(feasible[0])


def cert_g_h(prob: ValidatedProblem, delta: float):
    """Uncontrolled certificate: the controlled one with zero gain bounds."""
    return cert_g_f(prob, ControlInput.none(), delta)


def cert_g_hat_f(prob: ValidatedProblem, feedback: ControlInput | None,
                 t: float, delta: float):
    """Windowed-L2 value (value, feasible) at window start t; requires
    alpha > 1/2.  Gain terms enter as L2 windows of B K_i.  No verdict
    reads it (module docstring)."""
    numer, D, _ = _g_hat(prob, feedback, t, delta)
    value, feasible = _contraction(numer, D)
    return float(value), bool(feasible)


def cert_g_hat_h(prob: ValidatedProblem, t: float, delta: float):
    """Uncontrolled windowed-L2 value: no B K_i windows."""
    return cert_g_hat_f(prob, ControlInput.none(), t, delta)


# ---------------------------------------------------------------------------
# admissible gain bounds
# ---------------------------------------------------------------------------

def _gain_bound(prob: ValidatedProblem, delta: float, epsilon: float,
                t: float | None) -> float:
    """Largest bound K* = epsilon (1 - D) / (||B|| sum_i s_i) on every gain
    norm: with g_h(delta) (t None) or g_hat_h(t, delta) at most
    1 - epsilon, numer + K* ||B|| sum_i s_i < 1 - D keeps the controlled
    value below 1.  s_i is what a unit gain adds at lag i: L1(delta) in the
    uniform family, ||phi||_L2(0, delta) sqrt(w_i) in the windowed-L2 one,
    w_i > 0 the width of lag i's window.  No input gives +inf."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    free = ControlInput.none()
    if t is None:
        inputs = _CertInputs(prob, free, [delta])
        numer, D, what = inputs.numer[0], inputs.D[0], f"g_h({delta})"
    else:
        numer, D, l2k = _g_hat(prob, free, t, delta)
        what = f"g_hat_h({t}, {delta})"
    value, feasible = _contraction(numer, D)
    if not feasible or value >= 1.0 - epsilon:
        raise PremiseViolated(f"{what} = {float(value):.6g} is not below "
                              f"1 - epsilon = {1 - epsilon:.6g}")
    delays = prob.system.delays
    if t is None:
        unit = len(delays) * inputs.l1[0]
    else:
        widths = [delta - (max(t, r_i) - t) for r_i in delays]
        unit = l2k * sum(math.sqrt(w) for w in widths if w > 0)
    # no input, or no window that a gain acts in
    scale = unit * b_sup_norm(prob)
    return math.inf if scale == 0.0 else float(epsilon * (1.0 - D) / scale)


def gain_bound_uniform(prob: ValidatedProblem, delta: float,
                       epsilon: float) -> float:
    """Largest uniform gain bound that the margin epsilon absorbs."""
    return _gain_bound(prob, delta, epsilon, None)


def gain_bound_l2(prob: ValidatedProblem, delta: float, epsilon: float,
                  t: float | None = None) -> float:
    """L2 analogue at window start t (default h)."""
    return _gain_bound(prob, delta, epsilon,
                       prob.system.h if t is None else t)


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
    # the initial-data sup (sup_history_sum); not a bound on ||x||_inf
    # (README "Interpreting certificates")
    sup_bound: float | None = None

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "contraction_constant": self.contraction_constant,
            "witness_delta": self.witness_delta,
            "grid": [{"delta": e.delta, "value": e.value,
                      "feasible": e.feasible} for e in self.grid],
            "sup_bound": self.sup_bound,
        }


def _supports(inputs: _CertInputs, verdict: str) -> bool:
    """Whether the load q = K1 sum_i a_i (module docstring) supports a grid
    verdict: q < 1 for ContractiveGAS, q <= 1 for NonExpansiveStable.  A
    kernel that is not integrable supports none."""
    try:
        load = _l1_to_infinity(inputs.ker) * inputs.load_sum
    except KernelNotIntegrable:
        return False
    if verdict == "ContractiveGAS":
        return load < 1.0
    return load <= 1.0 + _TIE_TOL


def certify(prob: ValidatedProblem, feedback: ControlInput | None = None,
            delta_grid=None) -> CertificateReport:
    """Evaluate the uniform family over a delta grid.

    A feasible grid value < 1 (within a 1e-12 tie tolerance) gives
    ContractiveGAS, one at 1 NonExpansiveStable, each only where the load
    q supports it (``_supports``, computed once the grid certifies):
    ContractiveGAS claims that the zero solution attracts every solution,
    for every size of every delay.  ``QuadratureNotConverged`` from K1
    propagates.  The report records the initial-data sup as ``sup_bound``,
    which does not bound the solution (README "Interpreting
    certificates"), and None under an open-loop input.  Growing kernels
    (``_CertInputs``) give Inconclusive, every entry infeasible at +inf,
    and no quadrature.  The windowed-L2 values take no part.
    """
    if delta_grid is None:
        delta_grid = DEFAULT_DELTA_GRID
    delta_grid = [float(d) for d in delta_grid]
    if len(delta_grid) == 0:
        raise EmptyGrid("certify needs at least one delta")
    inputs = _CertInputs(prob, feedback, delta_grid)
    value, feasible = _contraction(inputs.numer, inputs.D)
    entries = [GridEntry(delta=d, value=float(value[i]),
                         feasible=bool(feasible[i])) for d, i in
               zip(delta_grid, np.searchsorted(inputs.grid, delta_grid))]
    best = min((e for e in entries if e.feasible), key=lambda e: e.value,
               default=None)
    if best is not None and best.value <= 1.0 + _TIE_TOL:
        verdict = ("ContractiveGAS" if best.value < 1.0 - _TIE_TOL
                   else "NonExpansiveStable")
        if _supports(inputs, verdict):
            return CertificateReport(
                verdict=verdict, contraction_constant=best.value,
                witness_delta=best.delta, grid=entries,
                sup_bound=(None if _control(prob, feedback).kind == "open_loop"
                           else prob.ics.sup_history_sum()))
    return CertificateReport(verdict="Inconclusive", contraction_constant=None,
                             witness_delta=None, grid=entries)


# ---------------------------------------------------------------------------
# delay-free bounds
# ---------------------------------------------------------------------------

@dataclass
class DelayFreeBounds:
    K0_bar: float
    K1_bar: float
    K2_bar: float | None          # None when the smallness condition fails
    condition_holds: bool
    load: float                   # K1_bar * sum_i (||Atilde_i|| + ||B|| K_i)

    @property
    def verdict(self) -> str:
        return ("GloballyAsymptoticallyStable" if self.condition_holds
                else "Inconclusive")

    def as_dict(self) -> dict:
        return {"K0": self.K0_bar, "K1": self.K1_bar, "K2": self.K2_bar,
                "verdict": self.verdict}


def delay_free_certify(prob: ValidatedProblem,
                       feedback: ControlInput | None = None) -> DelayFreeBounds:
    """Solution bounds for the all-lags-zero encoding (module docstring); a
    constant B K_0 folds into the kernel matrix and leaves the load sum.
    The gate runs before any kernel sampling."""
    sys = prob.system
    if not sys.is_delay_free:
        raise DelaysNotZero(f"system has nonzero delays {sys.delays}")
    terms = _lag_terms(prob, feedback)
    A_bar = sys.kernel_matrix
    loads = [bound for _, bound, _ in terms]
    tables = terms[0][2]
    if len(tables) == 2 and tables[1].sample_times.size == 1:
        # constant-gain variant: fold the constant B K_0 into the kernel
        A_bar = A_bar + tables[1].values[0]
        loads[0] = sup_norm_bound(tables[0])
    ker = Kernels(sys.alpha, A_bar)
    K1 = _l1_to_infinity(ker)
    K0 = ker.k0()
    load = K1 * sum(loads)
    condition = load < 1.0
    K2 = None
    if condition:
        x0_sum = sum(induced_norms(np.array(prob.ics.x0)).tolist())
        inp = _control(prob, feedback)
        forcing = (K1 * b_sup_norm(prob) * sup_norm_bound(inp.u)
                   if inp.kind == "open_loop" else 0.0)
        K2 = (K0 * x0_sum + forcing) / (1.0 - load)
    return DelayFreeBounds(K0_bar=K0, K1_bar=K1, K2_bar=K2,
                           condition_holds=condition, load=load)


# ---------------------------------------------------------------------------
# high-order boundedness check
# ---------------------------------------------------------------------------

@dataclass
class HighOrderResult:
    verdict: str                        # always Inconclusive
    zeroing_holds: bool
    spectral_passes: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "zeroing_holds": self.zeroing_holds,
                "spectral_passes": self.spectral_passes, **self.details}


def high_order_check(prob: ValidatedProblem) -> HighOrderResult:
    """Diagnostics for orders alpha >= 2; the verdict is always Inconclusive.

    At alpha > 2 every E_{a,b}(lambda t^a) grows, and at alpha = 2 those
    that do not grow (lambda < 0) oscillate without decay, so phi is in L1
    for no kernel and no delay-independent bound holds (alpha 2,
    ``A0 = [[-1]]``, ``A1 = [[0.1]]`` grows at r = 4).  Reported:
    ``zeroing_holds``, whether phi_j is identically zero for every
    j < alpha - 1, and ``spectral_passes``, the spectral module's strict
    composite-norm test, with its ``composite_norm`` and ``threshold``.
    """
    sys = prob.system
    if sys.alpha < 2.0:
        raise OrderTooLow(f"alpha = {sys.alpha} is below 2")
    zero_ok = all(np.max(np.abs(phi(np.linspace(phi.t_start, 0.0, 2001))))
                  <= _ZERO_TOL for j, phi in enumerate(prob.ics.phi)
                  if j < sys.alpha - 1.0)
    t34 = theorem34_certify(sys)
    return HighOrderResult(verdict="Inconclusive", zeroing_holds=zero_ok,
                           spectral_passes=bool(t34.strict_norm_test),
                           details={"composite_norm": t34.composite_norm,
                                    "threshold": t34.threshold})
