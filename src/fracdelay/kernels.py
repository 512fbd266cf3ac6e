"""Fundamental solution kernels and their integrals.

For the constant part A0 of the instantaneous dynamics, the initial-data and
forcing kernels are

    phi_j(t) = t^j  E_{a,j+1}(A0 t^a),      j = 0..k-1
    phi(t)   = t^(a-1) E_{a,a}(A0 t^a)

with phi_j = phi = 0 for t < 0.  The forcing kernel is weakly singular at
t = 0 for a < 1; its L1 and squared-L2 integrals are computed by product
integration (the singular power factor integrated exactly against a
piecewise-linear interpolant of the smooth matrix-norm factor), refined by
mesh doubling with Richardson extrapolation.  One cumulative integration per
kernel serves a whole grid of upper limits 0 < d_1 < ... < d_K: a graded
mesh on [0, d_1], a uniform one on every later [d_(k-1), d_k], and both
integrals read off the same samples of ||E_{a,a}(A0 s^a)||.  The segments
not yet converged share one cell count, so each level refines them as one
(segments x nodes) array: one norm evaluation, one product integration and
one Richardson row, with no loop over segments.  A single upper limit delta
is integrated over the halving edges delta 2^-k, k = 10..0.  The one other
route: for a scalar kernel with alpha <= 1 the smooth factor never changes
sign (E_{a,a}(-x) is completely monotone: H. Pollard, Bull. AMS 54, 1948;
W. R. Schneider, Expo. Math. 14, 1996), so L1 is the exact primitive
s^a E_{a,a+1}(A0 s^a) at every edge.

The bound verifier checks the norm inequalities relating these kernels to
exponential majorants.  The right-hand sides use the series-of-norms
majorant sum_l ||A0^l|| t^(a l) / Gamma(a l + b); placing the norm inside the
sum is what the triangle inequality actually yields, and it is the form that
holds for every matrix (the variant with ||e^{A0 t^a}|| on the right fails
already for scalar negative A0, e.g. E_{2,1}(-t^2) = cos t vs e^{-t^2}).
One summation (``norm_series_ml``) computes every majorant over a whole time
grid, one E_{a,j+1} table per order serves both ||E|| and ||phi_j||, and
||e^{A0 t}|| comes from one stacked ``expm`` per grid, a Pade(13) scaling
and squaring in numpy; only the verifier and ``fit_decay_envelope`` reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (NotAStabilityMatrix, QuadratureNotConverged,
                     SingularAtZero)
# ml_scalar_array is not called here: perfbench/test_harness.py reads it
from .mlf import _ml_matrices, eig_factors, lgamma, ml_scalar_array, rgamma
from .system import FractionalDelaySystem
from .tables import induced_norm, induced_norms

_HALVINGS = 10      # a single delta runs over the edges delta 2^-k, k <= 10
_QUAD_TOL = 1e-9    # the one accuracy of every kernel norm integral
_N0 = 32            # the quadrature's cells per segment at its first level
_MAX_DOUBLINGS = 11  # its further levels
_NOISE_FLOOR = 3e-8  # its weight-evaluation noise (see the quadrature)
_CHECK_SLACK = 1e-9  # bound checks pass at rhs - lhs >= -slack max(1, |rhs|)
_ELL = np.arange(601.0)  # the l = 0..600 of sup_factor and sup_gamma_ratio
_ENVELOPE_MARGIN = 0.1  # fit_decay_envelope's lam: 0.9 of the abscissa
_ENVELOPE_POINTS = 400  # its coarse grid; the fine one has 4x as many


class Kernels:
    """Vectorized evaluator of the kernel family for one (alpha, A0) pair."""

    def __init__(self, alpha: float, A0: np.ndarray):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.A0 = np.atleast_2d(np.asarray(A0, dtype=float))
        self.n = self.A0.shape[0]
        self._fac = eig_factors(self.A0)

    def sector_margin(self) -> float:
        """min |arg lambda| - alpha pi / 2 over the nonzero eigenvalues of A0
        (+inf without any).  Below 0 some E_{a,b}(A0 t^a) grows
        exponentially; phi is integrable on [0, inf) only above 0 and
        without a zero eigenvalue, hence only for alpha < 2."""
        lam = (self._fac[0] if self._fac is not None
               else np.linalg.eigvals(self.A0))
        args = np.abs(np.angle(lam[lam != 0]))
        return float(np.min(args, initial=math.inf)) - self.alpha * math.pi / 2

    def e_ml(self, beta: float, t) -> np.ndarray:
        """E_{alpha,beta}(A0 t^alpha) for an array of t >= 0, shape (N, n, n)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _ml_matrices(self.alpha, beta, self.A0, self._fac,
                            t ** self.alpha)

    def phi_j(self, j: int, t) -> np.ndarray:
        """Initial-data kernel t^j E_{a,j+1}(A0 t^a); zero for t < 0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((t.size, self.n, self.n))
        pos = t >= 0
        if np.any(pos):
            tp = t[pos]
            vals = self.e_ml(j + 1, tp)
            out[pos] = (tp ** j)[:, None, None] * vals
        return out

    def phi(self, t) -> np.ndarray:
        """Forcing kernel t^(a-1) E_{a,a}(A0 t^a); zero for t < 0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.alpha < 1 and np.any(t == 0):
            raise SingularAtZero(
                f"phi(0) diverges like t^({self.alpha - 1}) for alpha < 1")
        out = np.zeros((t.size, self.n, self.n))
        pos = t >= 0
        if np.any(pos):
            tp = t[pos]
            vals = self.e_ml(self.alpha, tp)
            out[pos] = (tp ** (self.alpha - 1.0))[:, None, None] * vals
        return out

    def int_phi(self, T) -> np.ndarray:
        """Exact primitive integral_0^T phi(s) ds = T^a E_{a,a+1}(A0 T^a)."""
        T = np.atleast_1d(np.asarray(T, dtype=float))
        vals = self.e_ml(self.alpha + 1, T)
        return (T ** self.alpha)[:, None, None] * vals

    def int_s_phi(self, T, int_phi: np.ndarray | None = None) -> np.ndarray:
        """Exact primitive integral_0^T s phi(s) ds.

        Termwise integration gives T^(a+1) [E_{a,a+1} - E_{a,a+2}](A0 T^a),
        that is T int_phi(T) - T^(a+1) E_{a,a+2}(A0 T^a); a caller that
        holds ``int_phi(T)`` passes it to skip evaluating it again.
        """
        T = np.atleast_1d(np.asarray(T, dtype=float))
        if int_phi is None:
            int_phi = self.int_phi(T)
        vals = self.e_ml(self.alpha + 2, T)
        return (T[:, None, None] * int_phi
                - (T ** (self.alpha + 1.0))[:, None, None] * vals)

    # -- norms of the smooth factor, vectorized -------------------------

    def _e_norms(self, beta: float, s: np.ndarray) -> np.ndarray:
        return induced_norms(self.e_ml(beta, s))

    def norm_integrals(self, edges, powers) -> np.ndarray:
        """integral_(e_0)^(e_k) ||phi(s)||_2^p ds for each p in ``powers``.

        ``edges`` is one upper limit delta (edges 0, delta) or a sequence
        increasing from e_0 >= 0; the result has shape (len(powers), K),
        one column per edge e_1..e_K, and p is 1 or 2.  A single delta runs
        over the halving edges delta 2^-k, k = 10..0, where one graded mesh
        over [0, delta] can stall on a far kink of ||phi||.  For a scalar
        kernel with alpha <= 1, L1 is the exact primitive
        s^a E_{a,a+1}(A0 s^a) at every edge: the smooth factor
        E_{a,a}(A0 s^a) never changes sign there (E_{a,a}(-x) is completely
        monotone, Pollard 1948 and Schneider 1996, and E_{a,a}(x) > 0 for
        x >= 0); from e_0 > 0 and A0 != 0 the increments are
        (E_{a,1}(A0 e_k^a) - E_{a,1}(A0 e_0^a)) / A0, which keep their
        relative accuracy where two primitives near 1/|A0| would cancel.
        Every other power and kernel takes one segmented
        cumulative product integration of s^(p(a-1)) ||E_{a,a}(A0 s^a)||^p,
        which serves every edge and every power from the same norm samples,
        on a first segment graded for the most singular power.  An edge
        that is not finite raises ``ValueError`` before any evaluation.

        The accuracy is fixed at ``_QUAD_TOL`` = 1e-9 of the mixed absolute/
        relative scale, but a stagnating segment is accepted at 50 x
        ``_NOISE_FLOOR`` = 3e-8 of its share, and matrix kernels rely on
        this: their integrals, and the certificate values built on them,
        can carry about 1e-6 relative error.
        """
        alpha = self.alpha
        powers = list(powers)
        if 2 in powers and alpha <= 0.5:
            raise SingularAtZero(
                f"||phi||^2 ~ s^({2 * alpha - 2}) is not integrable for "
                f"alpha <= 1/2")
        edges = _edges(edges)
        if edges.size == 2 and edges[0] == 0:
            halving = edges[1] * 2.0 ** -np.arange(_HALVINGS, -1, -1.0)
            return self.norm_integrals(np.concatenate(([0.0], halving)),
                                       powers)[:, -1:]
        out = np.empty((len(powers), edges.size - 1))
        # for alpha <= 1 the scalar smooth factor never changes sign (above)
        exact = self.n == 1 and alpha <= 1
        quad = [i for i, p in enumerate(powers) if p != 1 or not exact]
        if quad:
            quad_powers = [powers[i] for i in quad]
            grading = max(max(1.0, 1.0 / alpha) if p == 1 else
                          min(max(1.0 / alpha, 2.0 / (2.0 * alpha - 1.0)), 40.0)
                          for p in quad_powers)

            def w(s):
                norms = np.empty(s.shape)
                pos = s > 0
                norms[pos] = self._e_norms(alpha, s[pos])
                # limit of ||E_{a,a}(A0 s^a)|| at 0+
                norms[~pos] = rgamma(alpha)
                return np.array([norms ** p for p in quad_powers])

            out[quad] = weighted_singular_integral(
                [p * (alpha - 1.0) for p in quad_powers], w, edges, grading)
        if exact and 1 in powers:
            lam = self.A0[0, 0]
            # d/dt E_{a,1}(lam t^a) = lam phi(t): from e_0 > 0 the increments
            # come without the cancellation of two primitives near 1/|lam|
            prim = (self.e_ml(1.0, edges) / lam if edges[0] > 0 and lam != 0
                    else self.int_phi(edges))[:, 0, 0]
            out[powers.index(1)] = np.abs(prim[1:] - prim[0])
        return out


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------
#
# ``sys`` is a Kernels (used as is), a FractionalDelaySystem (its alpha and
# A[0]) or an (alpha, A0) pair.

def _kernels(sys) -> Kernels:
    if isinstance(sys, Kernels):
        return sys
    if isinstance(sys, FractionalDelaySystem):
        return Kernels(sys.alpha, sys.A[0])
    alpha, A0 = sys
    return Kernels(alpha, A0)


def phi_alpha_j(sys, j: int, t: float):
    """t^j E_{a,j+1}(A0 t^a); the zero matrix for t < 0."""
    return _kernels(sys).phi_j(j, np.array([t]))[0]


def phi_alpha(sys, t: float):
    """t^(a-1) E_{a,a}(A0 t^a); zero for t < 0, singular at 0 when a < 1."""
    return _kernels(sys).phi(np.array([t]))[0]


# ---------------------------------------------------------------------------
# segmented product integration of s^gamma * w(s)
# ---------------------------------------------------------------------------

def _segment_mesh(lo, hi, n_cells: int, grading: float) -> np.ndarray:
    """Nodes of [lo, hi], or one row per segment for arrays of ends: graded
    toward the singular point where lo = 0, uniform elsewhere."""
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi)[..., None]
    x = np.arange(n_cells + 1, dtype=float) / n_cells
    return np.where(lo == 0, hi * x ** grading, lo + (hi - lo) * x)


def _edges(delta) -> np.ndarray:
    """[0, delta] for one upper limit, else validated increasing edges."""
    edges = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(edges)):
        raise ValueError("integration edges must be finite")
    if edges.ndim == 0:
        if delta <= 0:
            raise ValueError("delta must be positive")
        return np.array([0.0, float(delta)])
    if edges.size < 2 or edges[0] < 0 or not np.all(np.diff(edges) > 0):
        raise ValueError("integration edges must increase from a "
                         "nonnegative start")
    return edges


def _product_integrate(gamma_exp: np.ndarray, w: np.ndarray,
                       mesh: np.ndarray) -> np.ndarray:
    """integral s^gamma w(s) ds per segment and row, w piecewise linear.

    ``gamma_exp`` has shape (m, 1), ``w`` shape (segments, m, nodes) and
    ``mesh`` shape (segments, nodes); the result has shape (segments, m).
    The moments of the power weight are integrated exactly per cell, so the
    integrable singularity at s = 0 (gamma > -1) costs no accuracy.
    """
    a, b = mesh[:, :-1], mesh[:, 1:]
    # one 2-D power per exponent: numpy's power broadcast over three axes
    # takes another loop, where x ** 2.0 is not the exact square
    m0, m1 = (np.stack([(b ** g - a ** g) / g for g in gamma_exp + shift],
                       axis=1) for shift in (1.0, 2.0))
    a, width = a[:, None], (b - a)[:, None]
    wa, wb = w[..., :-1], w[..., 1:]
    slope = np.where(width > 0, (wb - wa) / np.where(width > 0, width, 1.0), 0.0)
    return np.sum(wa * m0 + slope * (m1 - a * m0), axis=-1)


def weighted_singular_integral(gamma_exp, w_func, edges, grading: float):
    """Adaptive integral of s^gamma w(s) ds for a smooth vectorized w.

    ``edges`` is the upper limit of an integral from 0, or an increasing
    sequence e_0 < e_1 < ... < e_K (e_0 >= 0).  ``gamma_exp`` holds m
    exponents (or is one), with ``w_func`` returning one row of weights per
    exponent (shape (m, N)), all integrated from the same samples.  The
    result, shape (m, K), holds the integrals from e_0 to every e_k.

    Each segment [e_(k-1), e_k] doubles its own nested mesh (graded toward
    s = 0 in the segment that starts there, uniform otherwise), so only odd
    nodes are evaluated per level, and accelerates its raw product-
    integration sequence with a Richardson tableau in powers of h^2.  Every
    segment starts at ``_N0`` cells and the unconverged ones double together,
    up to ``_MAX_DOUBLINGS`` times, so they always share one cell count:
    each level is one (segments x nodes) mesh, one ``w_func`` call, one
    product integration and one tableau row of (segments x m) arrays,
    filtered to the unconverged rows.  A segment has converged when its
    tableau change drops below its share ``_QUAD_TOL / K`` of the mixed
    absolute/relative scale of the cumulative value at its right edge, so
    for a nonnegative integrand the summed change at every edge stays within
    ``_QUAD_TOL * max(1, |value|)``.  A stagnating segment whose changes are
    already at 50 times its share of the evaluation noise floor
    ``_NOISE_FLOOR`` is accepted there rather than refined forever.
    """
    gammas = np.atleast_1d(np.asarray(gamma_exp, dtype=float))[:, None]
    if np.any(gammas <= -1.0):
        raise ValueError("weight exponent must exceed -1 for integrability")
    edges = _edges(edges)
    K = edges.size - 1
    n_cells = n0 = _N0
    mesh = _segment_mesh(edges[:-1], edges[1:], n0, grading)
    # adjacent segments share their common edge: evaluate it once
    first = np.atleast_2d(w_func(np.concatenate((mesh[0],
                                                 mesh[1:, 1:].ravel()))))
    vals = np.lib.stride_tricks.sliding_window_view(
        first, n0 + 1, axis=1)[:, ::n0].swapaxes(0, 1)   # (K, m, nodes)
    rows = [_product_integrate(gammas, vals, mesh)]    # tableau, (K, m) each
    est = rows[0].copy()
    done = np.zeros(est.shape, dtype=bool)
    best_change = np.full(est.shape, math.inf)
    change = np.zeros(est.shape)
    active = np.arange(K)
    for _ in range(_MAX_DOUBLINGS):
        live = ~done[active].all(axis=1)
        active = active[live]
        if not active.size:
            break
        n_cells *= 2
        mesh = _segment_mesh(edges[active], edges[active + 1], n_cells,
                             grading)
        new = np.atleast_2d(w_func(mesh[:, 1::2].ravel()))
        v = np.empty((active.size, gammas.shape[0], n_cells + 1))
        v[..., ::2] = vals[live]
        v[..., 1::2] = new.reshape(-1, active.size, n_cells // 2).swapaxes(0, 1)
        vals = v
        prev = [col[live] for col in rows]
        rows = [_product_integrate(gammas, v, mesh)]
        for j in range(1, min(len(prev) + 1, 5)):
            fac = 4.0 ** j
            rows.append(rows[j - 1] + (rows[j - 1] - prev[j - 1]) / (fac - 1.0))
        ch = change[active] = np.abs(rows[-1] - prev[-1])
        est[active] = np.where(done[active], est[active], rows[-1])
        scale = (np.maximum(1.0, np.abs(np.cumsum(est, axis=0))) / K)[active]
        # converged, or stagnating at the weight-evaluation noise floor
        done[active] |= ((ch <= _QUAD_TOL * scale)
                         | ((ch >= 0.25 * best_change[active])
                            & (ch <= 50.0 * _NOISE_FLOOR * scale)))
        best_change[active] = np.minimum(best_change[active], ch)
    if not done.all():
        # an unconverged segment refined at every level
        k = int(np.argmin(done.all(axis=1)))
        raise QuadratureNotConverged(
            f"power-weight quadrature stalled at {n_cells} cells on "
            f"[{edges[k]:.6g}, {edges[k + 1]:.6g}] (last tableau change "
            f"{float(np.max(change[k])):.3e})")
    return np.cumsum(est, axis=0).T


def phi_alpha_l1(sys, delta: float) -> float:
    """integral_0^delta ||phi(s)||_2 ds (see ``Kernels.norm_integrals``)."""
    return float(_kernels(sys).norm_integrals(delta, (1,))[0, 0])


def phi_alpha_l2sq(sys, delta: float) -> float:
    """integral_0^delta ||phi(s)||_2^2 ds; requires alpha > 1/2."""
    return float(_kernels(sys).norm_integrals(delta, (2,))[0, 0])


# ---------------------------------------------------------------------------
# norm-series majorants and sup factors
# ---------------------------------------------------------------------------

def norm_series_ml(alpha: float, beta: float, A: np.ndarray, t):
    """sum_l ||A^l|| t^(a l) / Gamma(a l + b), the kernel-series majorant.

    ``t`` is one time t >= 0 (a float back) or an array of them.  One A^l
    and one ||A^l||_2 per term serve every t, coefficients in log space;
    each t stops on its own geometric tail bound (Gamma(x)/Gamma(x+a) <=
    x^(-a) for x >= 1).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    t_in = np.asarray(t, dtype=float)
    ts = t_in.ravel()
    if not np.all(ts >= 0):
        raise ValueError("t must be nonnegative")
    total = np.where(ts == 0, rgamma(beta), 0.0)
    live = np.flatnonzero(ts > 0)
    ln_t = np.log(ts[live])
    ta = ts[live] ** alpha
    norm_a = induced_norm(A)
    P = np.eye(A.shape[0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for ell in range(4000):
            if live.size == 0:
                break
            x = alpha * ell + beta
            pn = induced_norm(P)
            # lgamma is ln|Gamma|, +inf at the poles where the term is 0
            lt = alpha * ell * ln_t - lgamma(x) + np.log(pn)
            term = np.where(lt < 700, np.exp(lt), np.inf)
            total[live] += term
            if x > 1.0:
                rb = norm_a * ta * x ** (-alpha)
                keep = ~((rb < 1.0) & (term * rb / (1.0 - rb) < 1e-14
                                       * np.maximum(total[live], 1e-300)))
                live, ln_t, ta = live[keep], ln_t[keep], ta[keep]
            P = P @ A
    if live.size:
        raise QuadratureNotConverged("norm-series majorant did not converge")
    return float(total[0]) if t_in.ndim == 0 else total.reshape(t_in.shape)


def norm_series_exp(A: np.ndarray, s):
    """sum_l ||A^l|| s^l / l!  (the triangle-inequality majorant of e^{A s})."""
    return norm_series_ml(1.0, 1.0, A, s)


def sup_factor(alpha: float, beta: float) -> float:
    """sup over l of l! / Gamma(alpha l + beta)."""
    x = alpha * _ELL + beta
    vals = np.where(x > 0, np.exp(lgamma(_ELL + 1.0)
                                  - lgamma(np.maximum(x, 1e-12))), 0.0)
    return float(np.max(vals))


def sup_gamma_ratio(alpha: float, num_shift: float,
                    den_shift: float) -> float:
    """sup over l of Gamma(alpha l + num_shift) / Gamma(alpha l + den_shift)."""
    xn = alpha * _ELL + num_shift
    xd = alpha * _ELL + den_shift
    ok = (xn > 0) & (xd > 0)
    vals = np.where(ok, np.exp(lgamma(np.maximum(xn, 1e-12))
                               - lgamma(np.maximum(xd, 1e-12))), 0.0)
    return float(np.max(vals))


# ---------------------------------------------------------------------------
# exponential decay envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayEnvelope:
    """Certified pair (K, lam) with ||e^{A0 t}|| <= K e^{-lam t} on the fit grid."""
    K: float
    lam: float


# Pade(13) numerator coefficients b_k / b_0, and the 1-norm up to which the
# unscaled approximant is accurate to unit roundoff (N. J. Higham, SIAM J.
# Matrix Anal. Appl. 26(4), 2005, Table 2.3).  With b_0 = 1 the solve
# divides by exact unit pivots, so exp(0) = I and exp(N) = I + N for a
# strictly upper triangular N with N^2 = 0 come out exactly.
_PADE13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600,
    1187353796428800, 129060195264000, 10559470521600, 670442572800,
    33522128640, 1323241920, 40840800, 960960, 16380, 182, 1))
_THETA13 = 5.371920351148152


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real A, or of each matrix of a stack
    (..., n, n).

    Pade(13) scaling and squaring (Higham 2005): each matrix is scaled by
    its own power of two 2^-s, s = max(0, ceil(log2(||A||_1 / theta_13))),
    one batched solve gives the approximant, and only the matrices whose s
    is not yet spent are squared again.  A 1x1 stack is ``np.exp``.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] == (1, 1):
        return np.exp(A)
    shape, n = A.shape, A.shape[-1]
    A = A.reshape(-1, n, n)
    # a zero, inf or NaN norm gives frexp exponent 0 and no scaling
    frac, s = np.frexp(np.abs(A).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(s - (frac == 0.5), 0)
    A = np.ldexp(A, -s[:, None, None])
    b = _PADE13
    ident = np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    X = np.linalg.solve(V - U, V + U)
    for k in range(int(s.max(initial=0))):
        sq = np.flatnonzero(s > k)
        X[sq] = X[sq] @ X[sq]
    return X.reshape(shape)


def _expm_norms(A: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """||e^{A t}||_2 for every t, from one stacked ``expm``."""
    return induced_norms(expm(A[None] * ts[:, None, None]))


def fit_decay_envelope(A0: np.ndarray) -> DecayEnvelope:
    """Fit (K, lam) with lam at (1 - _ENVELOPE_MARGIN) of the abscissa |mu|.

    K is the maximum of ||e^{A0 t}|| e^{lam t} over a grid and a 4x finer
    one, evaluated together; the grids extend far enough that the
    polynomial transient of a non-normal matrix has decayed.
    """
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    mu = float(np.max(np.linalg.eigvals(A0).real))
    if mu >= 0:
        raise NotAStabilityMatrix(
            f"spectral abscissa {mu:.6g} is not negative")
    lam = (1.0 - _ENVELOPE_MARGIN) * abs(mu)
    gap = _ENVELOPE_MARGIN * abs(mu)
    t_max = 80.0 / gap
    ts = np.concatenate((
        [0.0], np.geomspace(t_max * 1e-4, t_max, _ENVELOPE_POINTS),
        np.geomspace(t_max * 1e-4, t_max, 4 * _ENVELOPE_POINTS)))
    norms = _expm_norms(A0, ts)
    with np.errstate(divide="ignore"):
        logs = np.where(norms > 0, np.log(np.maximum(norms, 1e-320)), -np.inf)
    log_K = max(0.0, float(np.max(logs + lam * ts)))
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


def _check_from_sides(name, lhs, rhs) -> BoundCheck:
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    margin = rhs - lhs
    scale = np.maximum(np.abs(rhs), 1.0)
    passed = bool(np.all(margin >= -_CHECK_SLACK * scale))
    ratio = float(np.max(lhs / np.maximum(rhs, 1e-300)))
    return BoundCheck(name=name, passed=passed,
                      worst_margin=float(np.min(margin)), worst_ratio=ratio)


def verify_lemma22(sys, t_grid,
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
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if not np.all(np.isfinite(t_grid) & (t_grid > 0)):
        raise ValueError("t_grid must be finite and strictly positive")
    ker = _kernels(sys)
    alpha, A0 = ker.alpha, ker.A0
    k = int(math.ceil(alpha - 1e-12))
    report = BoundReport(alpha=alpha)

    # one E_{a,j+1} table per order serves ||E|| and ||phi_j|| = ||t^j E||
    E = np.array([ker.e_ml(j + 1, t_grid) for j in range(k)])
    e_norm = induced_norms(E)
    phi_j_norm = induced_norms(np.array(
        [(t_grid ** j)[:, None, None] * E[j] for j in range(k)]))
    phi_norm = induced_norms(ker.phi(t_grid))

    if envelope is None:
        try:
            envelope = fit_decay_envelope(A0)
        except NotAStabilityMatrix:
            envelope = None
    if alpha < 1 or envelope is not None:
        exp_n = _expm_norms(A0, t_grid)

    if alpha < 1:
        big = t_grid >= 1.0
        if np.any(big):
            tb = t_grid[big]
            exp_b = exp_n[big]

            def fitted(name, norm, power):
                # ||.|| <= C t^power ||e^{A0 t}|| on t >= 1, C fitted
                fit = float(np.max(norm[big] / (tb ** power * exp_b)))
                const = max(fit, 1.0)
                report.checks.append(BoundCheck(
                    name=name, passed=math.isfinite(fit),
                    worst_margin=float(np.min(const * tb ** power * exp_b
                                              - norm[big])),
                    worst_ratio=fit / const, fitted_constant=const))

            # k = 1, and phi_0 = E_{a,1} would repeat the first check
            fitted("sub_unit_order_E_beta1", e_norm[0], 0)
            fitted("sub_unit_order_phi", phi_norm, alpha - 1.0)
    else:
        majorant = norm_series_exp(A0, t_grid ** alpha)
        for j in range(k):
            s_fac = sup_factor(alpha, j + 1.0)
            report.checks.append(_check_from_sides(
                f"series_majorant_E_beta{j + 1}", e_norm[j], s_fac * majorant))
            if j:   # phi_0 = E_{a,1} repeats the check above
                report.checks.append(_check_from_sides(
                    f"series_majorant_phi_{j}", phi_j_norm[j],
                    s_fac * t_grid ** j * majorant))
        s_fac = sup_factor(alpha, alpha)
        report.checks.append(_check_from_sides(
            "series_majorant_phi", phi_norm,
            s_fac * t_grid ** (alpha - 1.0) * majorant))

    # decay envelope checks for stability matrices
    if envelope is not None:
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
        phat = t_grid ** (alpha - 1.0) * norm_series_ml(alpha, alpha, A0,
                                                         t_grid)
        report.checks.append(_check_from_sides(
            "order_phi_km1_vs_phi", phi_j_norm[k - 1],
            c1 * t_grid ** (k - alpha) * phat))
    if k >= 2:
        # ||phi(t)|| <= C t^(a+1-k) Phi-hat_(k-2)(t)
        c2 = sup_gamma_ratio(alpha, k - 1.0, alpha)
        phat2 = t_grid ** (k - 2.0) * norm_series_ml(alpha, k - 1.0, A0,
                                                      t_grid)
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
