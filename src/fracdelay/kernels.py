"""Fundamental solution kernels and their integrals.

For the constant part A0 of the instantaneous dynamics, the initial-data and
forcing kernels are

    phi_j(t) = t^j  E_{a,j+1}(A0 t^a),      j = 0..k-1
    phi(t)   = t^(a-1) E_{a,a}(A0 t^a)

with phi_j = phi = 0 for t < 0.  The forcing kernel is weakly singular at
t = 0 for a < 1; its L1 and squared-L2 integrals are computed by product
integration on a graded mesh (the singular power factor integrated exactly
against a piecewise-linear interpolant of the smooth matrix-norm factor),
refined by mesh doubling with Richardson extrapolation.

The bound verifier checks the norm inequalities relating these kernels to
exponential majorants.  The right-hand sides use the series-of-norms
majorant sum_l ||A0^l|| t^(a l) / Gamma(a l + b); placing the norm inside the
sum is what the triangle inequality actually yields, and it is the form that
holds for every matrix (the variant with ||e^{A0 t^a}|| on the right fails
already for scalar negative A0, e.g. E_{2,1}(-t^2) = cos t vs e^{-t^2}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln, rgamma

from .errors import (NotAStabilityMatrix, QuadratureNotConverged,
                     SingularAtZero)
from .mlf import (DEFAULT_CONFIG, MlEvalConfig, _ml_matrix_series, eig_factors,
                  ml_scalar_array)
from .system import FractionalDelaySystem


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norm of every matrix in a stack of shape (N, n, n)."""
    if mats.shape[1] == 1:
        return np.abs(mats[:, 0, 0])
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


class Kernels:
    """Vectorized evaluator of the kernel family for one (alpha, A0) pair."""

    def __init__(self, alpha: float, A0: np.ndarray,
                 cfg: MlEvalConfig = DEFAULT_CONFIG):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.A0 = np.atleast_2d(np.asarray(A0, dtype=float))
        self.n = self.A0.shape[0]
        self.cfg = cfg
        self._fac = eig_factors(self.A0, cfg.spectral_threshold)

    def e_ml(self, beta: float, t, rel_tol: float | None = None,
             allow_mp: bool = True) -> np.ndarray:
        """E_{alpha,beta}(A0 t^alpha) for an array of t >= 0, shape (N, n, n)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        scale = t ** self.alpha
        rel_tol = self.cfg.rel_tol if rel_tol is None else rel_tol
        if self._fac is not None:
            lam, factors = self._fac
            f = np.empty((lam.size, t.size), dtype=complex)
            for idx, lam_k in enumerate(lam):
                f[idx] = ml_scalar_array(self.alpha, beta, lam_k * scale,
                                         rel_tol, self.cfg.max_terms, allow_mp)
            return np.real(np.einsum("kN,kij->Nij", f, factors))
        out = np.empty((t.size, self.n, self.n))
        for idx, s in enumerate(scale):
            out[idx] = np.real(_ml_matrix_series(self.alpha, beta,
                                                 self.A0 * s, rel_tol,
                                                 self.cfg.max_terms))
        return out

    def phi_j(self, j: int, t, rel_tol: float | None = None,
              allow_mp: bool = True) -> np.ndarray:
        """Initial-data kernel t^j E_{a,j+1}(A0 t^a); zero for t < 0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((t.size, self.n, self.n))
        pos = t >= 0
        if np.any(pos):
            tp = t[pos]
            vals = self.e_ml(j + 1, tp, rel_tol, allow_mp)
            out[pos] = (tp ** j)[:, None, None] * vals
        return out

    def phi(self, t, rel_tol: float | None = None,
            allow_mp: bool = True) -> np.ndarray:
        """Forcing kernel t^(a-1) E_{a,a}(A0 t^a); zero for t < 0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.alpha < 1 and np.any(t == 0):
            raise SingularAtZero(
                f"phi(0) diverges like t^({self.alpha - 1}) for alpha < 1")
        out = np.zeros((t.size, self.n, self.n))
        pos = t >= 0
        if np.any(pos):
            tp = t[pos]
            vals = self.e_ml(self.alpha, tp, rel_tol, allow_mp)
            out[pos] = (tp ** (self.alpha - 1.0))[:, None, None] * vals
        return out

    def int_phi(self, T, rel_tol: float | None = None,
                allow_mp: bool = True) -> np.ndarray:
        """Exact primitive integral_0^T phi(s) ds = T^a E_{a,a+1}(A0 T^a)."""
        T = np.atleast_1d(np.asarray(T, dtype=float))
        vals = self.e_ml(self.alpha + 1, T, rel_tol, allow_mp)
        return (T ** self.alpha)[:, None, None] * vals

    def int_s_phi(self, T, rel_tol: float | None = None,
                  allow_mp: bool = True) -> np.ndarray:
        """Exact primitive integral_0^T s phi(s) ds.

        Termwise integration gives T^(a+1) [E_{a,a+1} - E_{a,a+2}](A0 T^a).
        """
        T = np.atleast_1d(np.asarray(T, dtype=float))
        vals = (self.e_ml(self.alpha + 1, T, rel_tol, allow_mp)
                - self.e_ml(self.alpha + 2, T, rel_tol, allow_mp))
        return (T ** (self.alpha + 1.0))[:, None, None] * vals

    # -- norms of the smooth factor, vectorized -------------------------

    def _e_norms(self, beta: float, s: np.ndarray, rel_tol: float,
                 allow_mp: bool = True) -> np.ndarray:
        return spectral_norms(self.e_ml(beta, s, rel_tol, allow_mp=allow_mp))


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------
#
# ``sys`` is a Kernels (used as is, ``cfg`` ignored), a FractionalDelaySystem
# (its alpha and A[0]) or an (alpha, A0) pair.

def _kernels(sys, cfg: MlEvalConfig) -> Kernels:
    if isinstance(sys, Kernels):
        return sys
    if isinstance(sys, FractionalDelaySystem):
        return Kernels(sys.alpha, sys.A[0], cfg)
    alpha, A0 = sys
    return Kernels(alpha, A0, cfg)


def phi_alpha_j(sys, j: int, t: float, cfg: MlEvalConfig = DEFAULT_CONFIG):
    """t^j E_{a,j+1}(A0 t^a); the zero matrix for t < 0."""
    return _kernels(sys, cfg).phi_j(j, np.array([t]))[0]


def phi_alpha(sys, t: float, cfg: MlEvalConfig = DEFAULT_CONFIG):
    """t^(a-1) E_{a,a}(A0 t^a); zero for t < 0, singular at 0 when a < 1."""
    return _kernels(sys, cfg).phi(np.array([t]))[0]


# ---------------------------------------------------------------------------
# graded-mesh product integration of s^gamma * w(s)
# ---------------------------------------------------------------------------

def _graded_mesh(delta: float, n_cells: int, grading: float) -> np.ndarray:
    i = np.arange(n_cells + 1, dtype=float)
    return delta * (i / n_cells) ** grading


def _product_integrate(gamma_exp: float, w: np.ndarray, mesh: np.ndarray) -> float:
    """integral s^gamma w(s) ds with w piecewise linear on the mesh.

    The moments of the power weight are integrated exactly per cell, so the
    integrable singularity at s = 0 (gamma > -1) costs no accuracy.
    """
    a, b = mesh[:-1], mesh[1:]
    g1, g2 = gamma_exp + 1.0, gamma_exp + 2.0
    m0 = (b ** g1 - a ** g1) / g1
    m1 = (b ** g2 - a ** g2) / g2
    wa, wb = w[:-1], w[1:]
    width = b - a
    slope = np.where(width > 0, (wb - wa) / np.where(width > 0, width, 1.0), 0.0)
    return float(np.sum(wa * m0 + slope * (m1 - a * m0)))


def weighted_singular_integral(gamma_exp: float, w_func, delta: float,
                               tol: float = 1e-10, n0: int = 32,
                               max_doublings: int = 11,
                               grading: float = 1.0,
                               noise_floor: float = 0.0) -> float:
    """Adaptive integral_0^delta s^gamma w(s) ds for a smooth vectorized w.

    Doubles the graded mesh (nested, so only odd nodes are evaluated per
    level) and accelerates the raw product-integration sequence with a
    Richardson tableau in powers of h^2.  Converged when the tableau change
    drops below ``tol`` (mixed absolute/relative); a stagnating sequence
    whose changes are already at the evaluation ``noise_floor`` is accepted
    at that floor rather than refined forever.
    """
    if gamma_exp <= -1.0:
        raise ValueError("weight exponent must exceed -1 for integrability")
    if delta <= 0:
        raise ValueError("delta must be positive")
    n_cells = n0
    mesh = _graded_mesh(delta, n_cells, grading)
    vals = w_func(mesh)
    rows = [[_product_integrate(gamma_exp, vals, mesh)]]
    raw_prev = rows[0][0]
    best_change = math.inf
    for level in range(1, max_doublings + 1):
        n_cells *= 2
        mesh = _graded_mesh(delta, n_cells, grading)
        new_vals = np.empty(n_cells + 1)
        new_vals[::2] = vals
        new_vals[1::2] = w_func(mesh[1::2])
        vals = new_vals
        row = [_product_integrate(gamma_exp, vals, mesh)]
        for j in range(1, min(len(rows[-1]) + 1, 5)):
            fac = 4.0 ** j
            row.append(row[j - 1] + (row[j - 1] - rows[-1][j - 1]) / (fac - 1.0))
        scale = max(1.0, abs(row[-1]))
        change = abs(row[-1] - rows[-1][-1])
        raw_change = abs(row[0] - raw_prev)
        if change <= tol * scale:
            return row[-1]
        # stagnation at the weight-evaluation noise floor
        if (noise_floor > 0 and change >= 0.25 * best_change
                and change <= 50.0 * noise_floor * scale):
            return row[-1]
        best_change = min(best_change, change)
        raw_prev = row[0]
        rows.append(row)
    raise QuadratureNotConverged(
        f"power-weight quadrature stalled at {n_cells} cells "
        f"(last tableau change {change:.3e}, raw change {raw_change:.3e})")


def phi_alpha_l1(sys, delta: float, cfg: MlEvalConfig = DEFAULT_CONFIG,
                 tol: float = 1e-10) -> float:
    """integral_0^delta ||phi(s)||_2 ds.

    Scalar systems whose smooth factor keeps one sign admit the exact
    primitive |delta^a E_{a,a+1}(A0 delta^a)|; otherwise graded-mesh product
    integration of s^(a-1) ||E_{a,a}(A0 s^a)||.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    ker = _kernels(sys, cfg)
    alpha = ker.alpha

    if ker.n == 1:
        probe = _graded_mesh(delta, 2048, max(1.0, 1.0 / alpha))[1:]
        signs = np.real(ker.e_ml(alpha, probe, 1e-6, allow_mp=False)[:, 0, 0])
        if np.all(signs > 1e-7) or np.all(signs < -1e-7):
            return abs(float(ker.int_phi(np.array([delta]), 1e-13)[0, 0, 0]))

    def w(s):
        out = np.empty(s.shape)
        pos = s > 0
        out[pos] = ker._e_norms(alpha, s[pos], 1e-11, allow_mp=False)
        if np.any(~pos):
            out[~pos] = rgamma(alpha)   # limit of ||E_{a,a}(A0 s^a)|| at 0+
        return out

    return weighted_singular_integral(alpha - 1.0, w, delta, tol,
                                      grading=max(1.0, 1.0 / alpha),
                                      noise_floor=3e-8)


def phi_alpha_l2sq(sys, delta: float, cfg: MlEvalConfig = DEFAULT_CONFIG,
                   tol: float = 1e-10) -> float:
    """integral_0^delta ||phi(s)||_2^2 ds; requires alpha > 1/2."""
    ker = _kernels(sys, cfg)
    alpha = ker.alpha
    if alpha <= 0.5:
        raise SingularAtZero(
            f"||phi||^2 ~ s^({2 * alpha - 2}) is not integrable for alpha <= 1/2")

    def w(s):
        out = np.empty(s.shape)
        pos = s > 0
        out[pos] = ker._e_norms(alpha, s[pos], 1e-11, allow_mp=False) ** 2
        if np.any(~pos):
            out[~pos] = rgamma(alpha) ** 2
        return out

    grading = max(1.0 / alpha, 2.0 / (2.0 * alpha - 1.0))
    return weighted_singular_integral(2.0 * alpha - 2.0, w, delta, tol,
                                      grading=min(grading, 40.0),
                                      noise_floor=3e-8)


# ---------------------------------------------------------------------------
# norm-series majorants and sup factors
# ---------------------------------------------------------------------------

def power_norm_series(A: np.ndarray, log_coeff_fn, ratio_bound_fn,
                      max_terms: int = 4000) -> float:
    """sum_l ||A^l|| c_l with geometric tail control, coefficients in log space.

    ``log_coeff_fn(l)`` returns ln c_l (or -inf), ``ratio_bound_fn(l, norm_A)``
    an upper bound for c_{l+1} ||A^{l+1}|| / (c_l ||A^l||).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    norm_a = np.linalg.norm(A, 2)
    P = np.eye(A.shape[0])
    total = 0.0
    with np.errstate(divide="ignore"):
        for ell in range(max_terms):
            lc = log_coeff_fn(ell)
            pn = np.linalg.norm(P, 2)
            lt = lc + (math.log(pn) if pn > 0 else -math.inf)
            term = math.exp(lt) if lt < 700 else math.inf
            total += term
            rb = ratio_bound_fn(ell, norm_a)
            if rb < 1.0 and term * rb / (1.0 - rb) < 1e-14 * max(total, 1e-300):
                return total
            P = P @ A
    raise QuadratureNotConverged("norm-series majorant did not converge")


def norm_series_exp(A: np.ndarray, s: float) -> float:
    """sum_l ||A^l|| s^l / l!  (the triangle-inequality majorant of e^{A s})."""
    if s == 0:
        return 1.0
    ln_s = math.log(s)
    return power_norm_series(
        A,
        lambda ell: ell * ln_s - math.lgamma(ell + 1),
        lambda ell, na: na * s / (ell + 1.0),
    )


def norm_series_ml(alpha: float, beta: float, A: np.ndarray, t: float) -> float:
    """sum_l ||A^l|| t^(a l) / Gamma(a l + b), the kernel-series majorant."""
    if t == 0:
        return float(rgamma(beta))
    ta = t ** alpha
    ln_t = math.log(t)

    def log_coeff(ell):
        x = alpha * ell + beta
        if x <= 0:
            rg = float(rgamma(x))
            return math.log(abs(rg)) if rg != 0 else -math.inf
        return alpha * ell * ln_t - float(gammaln(x))

    def ratio(ell, na):
        x = alpha * ell + beta
        if x <= 1.0:
            return np.inf
        # Gamma(x)/Gamma(x+a) <= x^(-a) for x >= 1
        return na * ta * x ** (-alpha)

    return power_norm_series(A, log_coeff, ratio)


def sup_factor(alpha: float, beta: float, ell_max: int = 600) -> float:
    """sup over l of l! / Gamma(alpha l + beta)."""
    ell = np.arange(ell_max + 1, dtype=float)
    x = alpha * ell + beta
    vals = np.where(x > 0, np.exp(gammaln(ell + 1.0) - gammaln(np.maximum(x, 1e-12))),
                    0.0)
    return float(np.max(vals))


def sup_gamma_ratio(alpha: float, num_shift: float, den_shift: float,
                    ell_max: int = 600) -> float:
    """sup over l of Gamma(alpha l + num_shift) / Gamma(alpha l + den_shift)."""
    ell = np.arange(ell_max + 1, dtype=float)
    xn = alpha * ell + num_shift
    xd = alpha * ell + den_shift
    ok = (xn > 0) & (xd > 0)
    vals = np.where(ok, np.exp(gammaln(np.maximum(xn, 1e-12))
                               - gammaln(np.maximum(xd, 1e-12))), 0.0)
    return float(np.max(vals))


# ---------------------------------------------------------------------------
# exponential decay envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayEnvelope:
    """Certified pair (K, lam) with ||e^{A0 t}|| <= K e^{-lam t} on the fit grid."""
    K: float
    lam: float


def _expm_norms(A: np.ndarray, ts: np.ndarray) -> np.ndarray:
    return np.array([np.linalg.norm(expm(A * t), 2) for t in ts])


def fit_decay_envelope(A0: np.ndarray, margin: float = 0.1,
                       coarse: int = 400) -> DecayEnvelope:
    """Fit (K, lam) with lam at (1 - margin) of the spectral abscissa.

    K is the grid maximum of ||e^{A0 t}|| e^{lam t}, re-verified on a 4x finer
    grid; the fit grid extends far enough that the polynomial transient of a
    non-normal matrix has decayed.
    """
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    mu = float(np.max(np.linalg.eigvals(A0).real))
    if mu >= 0:
        raise NotAStabilityMatrix(
            f"spectral abscissa {mu:.6g} is not negative")
    lam = (1.0 - margin) * abs(mu)
    gap = margin * abs(mu)
    t_max = 80.0 / gap

    def log_ratio_max(ts):
        norms = _expm_norms(A0, ts)
        with np.errstate(divide="ignore"):
            logs = np.where(norms > 0, np.log(np.maximum(norms, 1e-320)), -np.inf)
        return float(np.max(logs + lam * ts))

    ts = np.concatenate(([0.0], np.geomspace(t_max * 1e-4, t_max, coarse)))
    fine = np.concatenate(([0.0], np.geomspace(t_max * 1e-4, t_max, 4 * coarse)))
    log_K = max(0.0, log_ratio_max(ts), log_ratio_max(fine))
    K = math.exp(log_K) * (1.0 + 1e-9)
    return DecayEnvelope(K=K, lam=lam)


# ---------------------------------------------------------------------------
# bound verifier
# ---------------------------------------------------------------------------

@dataclass
class BoundCheck:
    name: str
    passed: bool
    worst_margin: float                 # min over grid of (rhs - lhs)
    worst_ratio: float                  # max over grid of lhs / rhs
    fitted_constant: float | None = None


@dataclass
class BoundReport:
    alpha: float
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "worst_margin": c.worst_margin,
                    "worst_ratio": c.worst_ratio,
                    **({"fitted_constant": c.fitted_constant}
                       if c.fitted_constant is not None else {}),
                }
                for c in self.checks
            ],
        }


def _check_from_sides(name, lhs, rhs, slack=1e-9) -> BoundCheck:
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    margin = rhs - lhs
    scale = np.maximum(np.abs(rhs), 1.0)
    passed = bool(np.all(margin >= -slack * scale))
    ratio = float(np.max(lhs / np.maximum(rhs, 1e-300)))
    return BoundCheck(name=name, passed=passed,
                      worst_margin=float(np.min(margin)), worst_ratio=ratio)


def verify_lemma22(sys, t_grid, cfg: MlEvalConfig = DEFAULT_CONFIG,
                   envelope: DecayEnvelope | None = None) -> BoundReport:
    """Check the kernel norm inequalities on a time grid.

    For alpha < 1 the sub-unit-time bounds carry unknown finite constants:
    these are fitted as the largest observed ratio on the grid (t >= 1) and
    reported.  For alpha >= 1 the series-of-norms majorants are checked with
    their sup factors.  Given (or fitted) a decay envelope for a stability
    matrix A0, the envelope inequalities are verified as well.  The order
    relations between phi_(k-1), phi, and phi_(k-2) are checked with the
    provable Gamma-ratio constants.
    """
    ker = _kernels(sys, cfg)
    alpha, A0 = ker.alpha, ker.A0
    k = int(math.ceil(alpha - 1e-12))
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if np.any(t_grid <= 0):
        raise ValueError("t_grid must be strictly positive")
    report = BoundReport(alpha=alpha)

    e_norm = {j: spectral_norms(ker.e_ml(j + 1, t_grid)) for j in range(k)}
    phi_j_norm = {j: spectral_norms(ker.phi_j(j, t_grid)) for j in range(k)}
    phi_norm = spectral_norms(ker.phi(t_grid))

    if alpha < 1:
        big = t_grid >= 1.0
        if np.any(big):
            tb = t_grid[big]
            exp_n = _expm_norms(A0, tb)

            def fitted(name, norm, power):
                # ||.|| <= C t^power ||e^{A0 t}|| on t >= 1, C fitted
                fit = float(np.max(norm[big] / (tb ** power * exp_n)))
                const = max(fit, 1.0)
                report.checks.append(BoundCheck(
                    name=name, passed=math.isfinite(fit),
                    worst_margin=float(np.min(const * tb ** power * exp_n
                                              - norm[big])),
                    worst_ratio=fit / const, fitted_constant=const))

            for j in range(k):
                fitted(f"sub_unit_order_E_beta{j + 1}", e_norm[j], 0)
                fitted(f"sub_unit_order_phi_{j}", phi_j_norm[j], j)
            fitted("sub_unit_order_phi", phi_norm, alpha - 1.0)
    else:
        majorant = np.array([norm_series_exp(A0, t ** alpha) for t in t_grid])
        for j in range(k):
            s_fac = sup_factor(alpha, j + 1.0)
            report.checks.append(_check_from_sides(
                f"series_majorant_E_beta{j + 1}", e_norm[j], s_fac * majorant))
            report.checks.append(_check_from_sides(
                f"series_majorant_phi_{j}", phi_j_norm[j],
                s_fac * t_grid ** j * majorant))
        s_fac = sup_factor(alpha, alpha)
        report.checks.append(_check_from_sides(
            "series_majorant_phi", phi_norm,
            s_fac * t_grid ** (alpha - 1.0) * majorant))

    # decay envelope checks for stability matrices
    if envelope is None:
        try:
            envelope = fit_decay_envelope(A0)
        except NotAStabilityMatrix:
            envelope = None
    if envelope is not None:
        exp_n = _expm_norms(A0, t_grid)
        report.checks.append(_check_from_sides(
            "envelope_exp", exp_n, envelope.K * np.exp(-envelope.lam * t_grid)))
        exp_na = _expm_norms(A0, t_grid ** alpha)
        report.checks.append(_check_from_sides(
            "envelope_exp_power", exp_na,
            envelope.K * np.exp(-envelope.lam * t_grid ** alpha)))
        if alpha >= 1:
            big = t_grid >= 1.0
            if np.any(big):
                report.checks.append(_check_from_sides(
                    "envelope_power_dominates", np.exp(-envelope.lam
                                                       * t_grid[big] ** alpha),
                    np.exp(-envelope.lam * t_grid[big])))

    # order relations among the kernels
    if k >= 1 and abs(alpha - k) > 1e-12:
        # ||phi_(k-1)(t)|| <= C t^(k-a) Phi-hat(t)
        c1 = sup_gamma_ratio(alpha, alpha, k)
        phat = np.array([t ** (alpha - 1.0) * norm_series_ml(alpha, alpha, A0, t)
                         for t in t_grid])
        report.checks.append(_check_from_sides(
            "order_phi_km1_vs_phi", phi_j_norm[k - 1],
            c1 * t_grid ** (k - alpha) * phat))
    if k >= 2:
        # ||phi(t)|| <= C t^(a+1-k) Phi-hat_(k-2)(t)
        c2 = sup_gamma_ratio(alpha, k - 1.0, alpha)
        phat2 = np.array([t ** (k - 2.0) * norm_series_ml(alpha, k - 1.0, A0, t)
                          for t in t_grid])
        report.checks.append(_check_from_sides(
            "order_phi_vs_phi_km2", phi_norm,
            c2 * t_grid ** (alpha + 1.0 - k) * phat2))
    if abs(alpha - round(alpha)) < 1e-12:
        # integer order: phi and phi_(k-1) coincide
        diff = np.max(np.abs(phi_norm - phi_j_norm[k - 1]))
        scale = max(1.0, float(np.max(phi_norm)))
        report.checks.append(BoundCheck(
            name="integer_order_identity", passed=bool(diff <= 1e-9 * scale),
            worst_margin=float(-diff), worst_ratio=float(diff / scale)))
    return report
