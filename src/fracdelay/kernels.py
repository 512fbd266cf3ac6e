"""Fundamental solution kernels and the constants of their norms.

For the constant part A0 of the instantaneous dynamics, the initial-data and
forcing kernels are

    phi_j(t) = t^j  E_{a,j+1}(A0 t^a),      j = 0..k-1
    phi(t)   = t^(a-1) E_{a,a}(A0 t^a)

with phi_j = phi = 0 for t < 0.  The forcing kernel is weakly singular at
t = 0 for a < 1.  Every kernel-norm constant the certificates read comes
from here: L1(delta) = integral_0^delta ||phi|| (``Kernels.norm_integrals``),
its squared-L2 analogue (``phi_alpha_l2sq``), K1 = L1(inf)
(``_l1_to_infinity``) and K0 = sup_t max_j ||phi_j(t)|| (``Kernels.k0``).
The integrals are taken in u = s^a, ||phi||^p ds = u^((p-1)(1 - 1/a))
||E_{a,a}(A0 u)||^p du / a, where the norm factor is smooth: product
integration (the power integrated exactly against a piecewise-linear
interpolant of the norm factor) on uniform meshes, refined by doubling with
Richardson extrapolation, over a whole grid 0 < d_1 < ... < d_K at once or
over the halving edges delta 2^-k, k = 10..0, of one delta.  Two kinds of
kernel take L1 and K1 exactly, from the primitive of a scalar kernel: a
monotone one (``Kernels.monotone``), whose K0 is exact too, and a scalar
one with 1 < alpha < 2, whose L1 sums the primitive between the zeros of
phi up to a proven bound on the last zero (``_last_zero``).

The bound verifier checks the norm inequalities relating these kernels to
exponential majorants.  The right-hand sides use the series-of-norms
majorant sum_l ||A0^l|| t^(a l) / Gamma(a l + b); placing the norm inside the
sum is what the triangle inequality actually yields, and it is the form that
holds for every matrix (the variant with ||e^{A0 t^a}|| on the right fails
already for scalar negative A0, e.g. E_{2,1}(-t^2) = cos t vs e^{-t^2}).
One summation (``norm_series_ml``) computes every majorant over a whole time
grid, one Mittag-Leffler pass gives phi and every E_{a,j+1}, which serves
both ||E|| and ||phi_j||, and ||e^{A0 t}|| comes from one stacked ``expm``
per grid, a Pade(13) scaling and squaring in numpy; only the verifier and
``fit_decay_envelope`` reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (KernelNotIntegrable, NotAStabilityMatrix,
                     QuadratureNotConverged, SingularAtZero)
# ml_scalar_array is not called here (mlf._eig_values calls
# mlf.ml_betas): perfbench/test_harness.py reads it
from .mlf import (_eig_values, _ml_matrices, _recombine, eig_factors,
                  lgamma, ml_scalar_array, rgamma)
from .system import FractionalDelaySystem, order_index
from .tables import induced_norm, induced_norms

_HALVINGS = 10      # a single delta runs over the edges delta 2^-k, k <= 10
_QUAD_TOL = 1e-9    # the one accuracy of the kernel norm quadrature
_N0 = 32            # cells per segment at the first level (quadrature, scan)
_MAX_DOUBLINGS = 11  # their further levels
# a stagnating segment's acceptance floor, needed only at alpha > 1: at 0,
# 13 of 66 L1 grids and 25 of 66 K1s of random 2x2, 3x3 kernels stalled
_NOISE_FLOOR = 3e-8  # at the kinks of ||phi||; none of 76 at alpha <= 1
_ZERO_STEPS = 6     # regula-falsi steps per zero of a scalar phi, 1 < a < 2
_CHECK_SLACK = 1e-9  # bound checks pass at rhs - lhs >= -slack max(1, |rhs|)
_ELL = np.arange(601.0)  # the l = 0..600 of sup_factor and sup_gamma_ratio
_ENVELOPE_MARGIN = 0.1  # fit_decay_envelope's lam: 0.9 of the abscissa
_ENVELOPE_POINTS = 400  # its coarse grid; the fine one has 4x as many
# eigenvalue arguments within this many radians of alpha pi / 2 count as
# on the edge of the decay sector
_SECTOR_TOL = 1e-12
# cond(V) <= 1 + _ORTHONORMAL_TOL is Kernels.monotone's basis test: its
# norms are then upper bounds at most 1e-12 relative above the norm, 1,000x
# below _QUAD_TOL (a normal A0's cond(V) - 1 is about 1e-15)
_ORTHONORMAL_TOL = 1e-12


def _last_zero(alpha: float) -> float:
    """An X >= 1 with E_{a,a}(-x) < 0 for every x > X, for 1 < a < 2.

    For x > 0, with s = x^(1/a) e^(i pi/a) (Gorenflo, Kilbas, Mainardi and
    Rogosin, 2014),

        E_{a,a}(-x) = (2/a) Re(s^(1-a) e^s)
                      + (sin(a pi)/pi) int_0^inf e^(-r) r^a
                        / (r^(2a) + 2 r^a x cos(a pi) + x^2) dr.

    The integral term is negative, and for x >= 1 its size is at least
    L(x) = |sin(a pi)| / (4 e pi (a+1) x^2): on r <= 1, e^(-r) >= 1/e and
    the denominator is at most 4 x^2.  The residue term's size is at most
    R(x) = (2/a) x^((1-a)/a) e^(-c x^(1/a)), c = -cos(pi/a) > 0.  In
    y = x^(1/a), ln(R/L) = C + (a+1) ln y - c y, C = ln(8 e pi (a+1) /
    (a |sin(a pi)|)) > 4.6, is concave with its peak at y = (a+1)/c > 2,
    where it exceeds C - (a+1)(1 - ln 2) > 0.  So it has one root past the
    peak, beyond which E < 0.  Newton's method from the right stays right
    of that root; X^(1/a) is its last iterate, and X is raised by 1% for
    rounding.  X is 21.2, 132, 4,390 and 2.9e5 at a = 1.2, 1.5, 1.8 and
    1.95.
    """
    c = -math.cos(math.pi / alpha)
    C = math.log(8.0 * math.e * math.pi * (alpha + 1.0)
                 / (alpha * abs(math.sin(alpha * math.pi))))

    def log_ratio(y):
        return C + (alpha + 1.0) * math.log(y) - c * y

    y = (alpha + 1.0) / c
    while log_ratio(y) >= 0:
        y *= 2.0
    for _ in range(100):
        step = log_ratio(y) / ((alpha + 1.0) / y - c)
        y -= step
        if step <= 1e-12 * y:
            break
    return 1.01 * y ** alpha


class Kernels:
    """Vectorized evaluator of the kernel family for one (alpha, A0) pair.

    ``lam`` holds the eigenvalues of A0, read once, whether or not the
    eigenvector basis is well conditioned; the one ``eig`` and the one
    ``cond`` of the basis come from ``eig_factors``.  A monotone kernel
    (``monotone``) takes its L1 from one scalar kernel, every other one
    from the Gram 2-norm of the matrices (``_e_norms``).  The object keeps
    one table of Mittag-Leffler contours for every beta it evaluates, so
    the quadrature's levels, the zero scan and its refinement, the
    primitives and the phi_j of one certificate share its contours; and
    ``e_ml_each``, ``scaled_each`` and ``l1_and_kernels`` evaluate every
    beta that one point set needs in one pass.
    """

    def __init__(self, alpha: float, A0: np.ndarray):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.A0 = np.atleast_2d(np.asarray(A0, dtype=float))
        self.n = self.A0.shape[0]
        self._fac = eig_factors(self.A0)
        self.lam, _, self._cond = self._fac
        self._table = {}    # strength p0 -> mlf._Contours

    @property
    def monotone(self) -> bool:
        """True for alpha <= 1, a real spectrum and an eigenvector basis V
        with cond(V) <= 1 + ``_ORTHONORMAL_TOL``.

        For 0 < a <= 1 and b >= a, E_{a,b}(x) is positive and increasing on
        the real line: by its series for x >= 0, and since E_{a,b}(-x) is
        completely monotone for x >= 0 (H. Pollard, Bull. AMS 54, 1948; W.
        R. Schneider, Expo. Math. 14, 1996).  So ||E_{a,b}(A0 u)|| <=
        cond(V) max_k |E_{a,b}(lam_k u)| = cond(V) E_{a,b}(lam_max u), with
        equality for a normal A0: L1 is cond(V) times the exact primitive
        of the scalar kernel of lam_max, K1 = cond(V) / |lam_max| past the
        gate (lam_max < 0), and K0 = cond(V), since phi_0 = E_{a,1}(A0 t^a),
        the one initial-data kernel of such an order, is I at t = 0.  Each
        is exact for a normal A0, else at most cond(V) - 1 relative above;
        a scalar kernel has cond(V) = 1.0 and lam_max = A0[0, 0].
        """
        return (self.alpha <= 1 and not np.iscomplexobj(self.lam)
                and self._cond <= 1.0 + _ORTHONORMAL_TOL)

    @property
    def lam_max(self) -> float:
        """The largest eigenvalue of a real spectrum, A0[0, 0] for n = 1."""
        return float(self.A0[0, 0] if self.n == 1 else self.lam.max())

    def sector_margin(self) -> float:
        """min |arg lambda| - alpha pi / 2 over the nonzero eigenvalues of A0
        (+inf without any).  Below 0 some E_{a,b}(A0 t^a) grows
        exponentially; phi is integrable on [0, inf) only above 0 and
        without a zero eigenvalue, hence only for alpha < 2."""
        args = np.abs(np.angle(self.lam[self.lam != 0]))
        return float(np.min(args, initial=math.inf)) - self.alpha * math.pi / 2

    @property
    def grows(self) -> bool:
        """An eigenvalue lies inside |arg lambda| < alpha pi / 2 by more than
        ``_SECTOR_TOL``: some kernel grows, no norm integral is finite."""
        return self.sector_margin() < -_SECTOR_TOL

    def k0(self) -> float:
        """K0 = sup_t max_j ||phi_j(t)||: cond(V) for a monotone kernel
        (``monotone``), else the largest of 2,001 samples of every phi_j on
        [0, T0], T0 set by min |Re lambda|."""
        if self.monotone:
            return float(self._cond)
        lam = self.lam
        rho = float(np.min(np.abs(lam.real))) if np.all(lam.real < 0) else 1.0
        T0 = max(20.0, 30.0 * (1.0 / rho) ** (1.0 / min(self.alpha, 1.0)))
        grid = np.concatenate(([0.0], np.geomspace(T0 * 1e-5, T0, 2000)))
        return float(np.max(induced_norms(np.array(list(self.scaled_each(
            [(j, j + 1) for j in range(order_index(self.alpha))], grid))))))

    def e_ml(self, beta: float, t) -> np.ndarray:
        """E_{alpha,beta}(A0 t^alpha) for an array of t >= 0, shape (N, n, n)."""
        return next(self.e_ml_each((beta,), t))

    def e_ml_each(self, betas, t):
        """E_{alpha,b}(A0 t^alpha) for an array of t >= 0, one (N, n, n)
        array per beta b of ``betas`` in turn, from one Mittag-Leffler pass
        (``mlf._ml_matrices``).  A t that is not nonnegative and finite
        raises ``ValueError`` before any evaluation, as in
        ``mlf.ml_matrix``."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not (np.isfinite(t) & (t >= 0)).all():
            raise ValueError("t must be nonnegative and finite")
        return _ml_matrices(self.alpha, betas, self.A0, self._fac,
                            t ** self.alpha, self._table)

    def _e_at(self, beta: float, u: np.ndarray) -> np.ndarray:
        """E_{alpha,beta}(A0 u) for an array of u >= 0, shape (N, n, n)."""
        return next(_ml_matrices(self.alpha, (beta,), self.A0, self._fac, u,
                                 self._table))

    def scaled_each(self, terms, t):
        """t^p E_{a,b}(A0 t^a) for an array of t, one (N, n, n) array per
        pair (p, b) of ``terms`` in turn, from one Mittag-Leffler pass; zero
        for t < 0.  A t that is not finite raises ``ValueError`` before any
        evaluation."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.isfinite(t).all():
            raise ValueError("t must be finite")
        pos = t >= 0
        every = pos.all()
        at = t if every else t[pos]
        betas = [beta for _, beta in terms]
        for (power, _), vals in zip(terms, self.e_ml_each(betas, at)):
            vals *= (at ** power)[:, None, None]
            if every:
                yield vals
            else:
                out = np.zeros((t.size, self.n, self.n))
                out[pos] = vals
                yield out

    def phi_j(self, j: int, t) -> np.ndarray:
        """Initial-data kernel t^j E_{a,j+1}(A0 t^a); zero for t < 0."""
        return next(self.scaled_each([(j, j + 1)], t))

    def phi(self, t) -> np.ndarray:
        """Forcing kernel t^(a-1) E_{a,a}(A0 t^a); zero for t < 0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.alpha < 1 and np.any(t == 0):
            raise SingularAtZero(
                f"phi(0) diverges like t^({self.alpha - 1}) for alpha < 1")
        return next(self.scaled_each([(self.alpha - 1.0, self.alpha)], t))

    def int_phi(self, T) -> np.ndarray:
        """Exact primitive integral_0^T phi(s) ds = T^a E_{a,a+1}(A0 T^a)."""
        return next(self.scaled_each([(self.alpha, self.alpha + 1)], T))

    def int_s_phi(self, T) -> np.ndarray:
        """Exact primitive integral_0^T s phi(s) ds.

        Termwise integration gives T^(a+1) [E_{a,a+1} - E_{a,a+2}](A0 T^a),
        that is T int_phi(T) - T^(a+1) E_{a,a+2}(A0 T^a), both from one
        pass.
        """
        T = np.atleast_1d(np.asarray(T, dtype=float))
        int_phi, second = self.scaled_each(
            [(self.alpha, self.alpha + 1), (self.alpha + 1.0, self.alpha + 2)],
            T)
        return T[:, None, None] * int_phi - second

    # -- norms of the smooth factor, vectorized -------------------------

    def _e_norms(self, beta: float, u: np.ndarray) -> np.ndarray:
        """||E_{a,beta}(A0 u)||_2 for an array of u = s^a >= 0, the Gram
        2-norm of the matrices (``tables.induced_norms``)."""
        return induced_norms(self._e_at(beta, u))

    def _zeros(self, edges: np.ndarray) -> np.ndarray:
        """Zeros of a scalar E_{a,a}(A0 s^a), A0 < 0, 1 < a < 2, inside
        [0, e_K] of edges 0 < e_1 < ... < e_K, increasing.

        The scan starts from ``_N0`` uniform cells a segment of ``edges``
        and doubles a segment's cells, at most ``_MAX_DOUBLINGS`` times,
        until each is at most a quarter of phi's half-period
        pi / (|A0|^(1/a) sin(pi/a)), the spacing of its zeros far out, so
        that no pair of zeros falls in one cell; a segment still wider than
        that raises ``QuadratureNotConverged``, since a missed pair of
        zeros would drop two lobes of |phi| from L1.  Segments that start
        past the last zero, s^a >= ``_last_zero(a)`` / |A0|, are not
        scanned: past it E_{a,a}(A0 s^a) < 0.  Each sign change on those
        nodes is refined by ``_ZERO_STEPS`` Illinois regula-falsi steps,
        all brackets at once.

        Six steps leave a zero inexact, but not L1: the zeros are the
        extrema of the primitive P, where P' = phi vanishes, so an error e
        in a zero moves L1 by O(e^2).  Over 199 random scalar kernels at
        1.05 < alpha < 1.97, 22 had zeros more than 1e-13 relative away
        from a 30-step refinement, at worst 1.3e-7 (alpha 1.82, A0 =
        -2.477), while their L1 grids agreed to 6.6e-16.  A sum of
        |P(z_(i+1)) - P(z_i)| over any points is at most the total
        variation of P, so L1 from inexact zeros is a lower bound of the
        exact L1; here the shortfall is at the level of rounding.
        """
        alpha = self.alpha
        lam = abs(float(self.A0[0, 0]))
        # a segment wholly past the last zero is neither scanned nor doubled
        last = (_last_zero(alpha) / lam) ** (1 / alpha)
        scanned = np.searchsorted(edges[:-1], last)
        lo, hi = edges[:scanned], edges[1:scanned + 1]
        quarter = 0.25 * math.pi / (lam ** (1 / alpha)
                                    * math.sin(math.pi / alpha))
        cells = np.full(lo.size, _N0)
        wide = (hi - lo) / cells > quarter
        for _ in range(_MAX_DOUBLINGS):
            if not wide.any():
                break
            cells[wide] *= 2
            wide = (hi - lo) / cells > quarter
        if wide.any():
            k = int(np.argmax(wide))
            raise QuadratureNotConverged(
                f"zero scan: {cells[k]} cells on [{lo[k]:.6g}, {hi[k]:.6g}] "
                f"are wider than a quarter of phi's half-period, "
                f"{quarter:.3g}")
        # the nodes after each segment's start, at fractions k / cells of it
        seg = np.repeat(np.arange(lo.size), cells)
        k = np.arange(1, cells.sum() + 1) - np.repeat(np.cumsum(cells) - cells,
                                                      cells)
        s = np.concatenate((edges[:1], lo[seg] + (hi[seg] - lo[seg])
                            * (k / cells[seg])))
        f = self.e_ml(alpha, s)[:, 0, 0]
        # a value of exactly 0 counts as positive: a zero at a node is
        # bracketed once, and the steps land on that node
        i = np.flatnonzero((f[:-1] < 0) != (f[1:] < 0))
        a, b, fa, fb = s[i], s[i + 1], f[i], f[i + 1]
        for _ in range(_ZERO_STEPS if i.size else 0):
            c = (a * fb - b * fa) / (fb - fa)
            # a converged bracket lands on b again: b's value, not a new one
            fc = fb.copy()
            moved = c != b
            fc[moved] = self.e_ml(alpha, c[moved])[:, 0, 0]
            # keep the bracket; halve a kept end's value (Illinois)
            flip = (fc < 0) != (fb < 0)
            a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
            b, fb = c, fc
        return b

    def norm_integrals(self, deltas) -> np.ndarray:
        """integral_0^(d_k) ||phi(s)||_2 ds at every delta d_k.

        ``deltas`` is one delta, which runs over its halving edges
        (``_edges``), or an increasing sequence of them; the result has one
        value per delta.  A delta that is not positive and finite, or a
        sequence that does not increase, raises ``ValueError`` before any
        evaluation.

        For a monotone kernel (``monotone``) and a scalar kernel with
        alpha < 2, L1 is exact: cond(V) times the primitive P(s) = s^a
        E_{a,a+1}(lam s^a) of the scalar kernel phi_lam of lam =
        ``lam_max``, no n x n matrix formed, summed between the zeros of
        phi_lam: with anchors 0 and the zeros z_i (``_zeros``; only for
        n = 1, 1 < alpha < 2 and A0 < 0), L1(d_k) is the sum of
        |P(z_(i+1)) - P(z_i)| over the lobes below d_k plus |P(d_k) - P(the
        last anchor below d_k)|.  Every other kernel takes the quadrature
        (``_norm_quadrature``).
        """
        return self.l1_and_kernels(deltas, ())[0]

    def l1_and_kernels(self, deltas, terms) -> tuple:
        """(``norm_integrals(deltas)``, the list of t^p E_{a,b}(A0 t^a) at
        the deltas, one (K, n, n) array per pair (p, b) of ``terms``).

        Where L1 is exact, the primitive at the anchors and the edges and
        the kernels at the deltas, which are the last edges, come from one
        Mittag-Leffler pass over every eigenvalue (lam_max alone without
        kernels); else the kernels take one pass of their own
        (``scaled_each``).
        """
        edges = _edges(deltas)
        count = np.size(deltas)
        at = edges[-count:]
        if not (self.monotone or self.n == 1 and self.alpha < 2):
            return (self._norm_quadrature(1, edges)[-count:],
                    list(self.scaled_each(terms, at)))
        alpha, lam = self.alpha, self.lam_max
        zeros = self._zeros(edges) if alpha > 1 and lam < 0 else np.empty(0)
        anchors = np.append(0.0, zeros)
        u = np.concatenate((anchors, edges[1:])) ** alpha
        # a monotone kernel's spectrum is real: lam_max is one of its
        # eigenvalues, the only one L1 reads
        eigs = self.lam if terms else np.array([lam])
        vals = _eig_values(alpha, [alpha + 1.0] + [b for _, b in terms],
                           eigs, u, self._table)
        prim = u * vals[0][:, np.argmax(eigs)].real
        at_anchor, at_edge = prim[:anchors.size], prim[anchors.size:]
        lobes = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(at_anchor)))))
        below = np.searchsorted(anchors, edges[1:]) - 1
        l1 = self._cond * (lobes[below] + np.abs(at_edge - at_anchor[below]))
        kernels = []
        for (power, _), v in zip(terms, vals[1:]):
            mats = _recombine(v[-count:], self._fac[1])
            mats *= (at ** power)[:, None, None]
            kernels.append(mats)
        return l1[-count:], kernels

    def _norm_quadrature(self, p: int, edges: np.ndarray) -> np.ndarray:
        """integral_0^(e_k) ||phi(s)||_2^p ds, p = 1 or 2, at every edge
        e_k > 0 of ``_edges``.

        One segmented cumulative product integration in u = s^a over the
        edges e_k^a serves every edge: there ||phi(s)||^p ds =
        u^((p-1)(1 - 1/a)) ||E_{a,a}(A0 u)||^p du / a, and ||E_{a,a}(A0 u)||
        is smooth in u (its power series), not in s.  L1 has no power
        weight; L2 keeps u^(1 - 1/a).  The weight carries the 1/a, so the
        stop test measures the integral itself, at ``_QUAD_TOL`` = 1e-9 of
        the mixed absolute/relative scale; a stagnating segment is accepted
        at 50 x ``_NOISE_FLOOR`` = 3e-8 of its share.  A stall names its
        segment in u.
        """
        alpha = self.alpha
        u = edges ** alpha
        # edges an ulp apart, or below the underflow of u, share one u:
        # their segment adds nothing
        new = np.append(True, u[1:] > u[:-1])
        if np.count_nonzero(new) < 2:
            return np.zeros(edges.size - 1)
        cum = np.append(0.0, weighted_singular_integral(
            (p - 1) * (1.0 - 1.0 / alpha),
            lambda x: self._e_norms(alpha, x) ** p / alpha, u[new]))
        return cum[np.cumsum(new)[1:] - 1]


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------
#
# ``sys`` is a Kernels (used as is), a FractionalDelaySystem (its alpha and
# kernel_matrix) or an (alpha, A0) pair.

def _kernels(sys) -> Kernels:
    if isinstance(sys, Kernels):
        return sys
    if isinstance(sys, FractionalDelaySystem):
        return Kernels(sys.alpha, sys.kernel_matrix)
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

def _segment_mesh(lo, hi, n_cells: int) -> np.ndarray:
    """Uniform nodes of [lo, hi], one row per segment for arrays of ends."""
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi)[..., None]
    return lo + (hi - lo) * (np.arange(n_cells + 1, dtype=float) / n_cells)


def _product_integrate(gamma_exp: float, w: np.ndarray,
                       mesh: np.ndarray) -> np.ndarray:
    """integral s^gamma w(s) ds per segment, w piecewise linear.

    ``w`` and ``mesh`` have shape (segments, nodes); the result has shape
    (segments,).  The moments of the power weight are integrated exactly
    per cell, so the integrable singularity at s = 0 (gamma > -1) costs no
    accuracy.
    """
    a, b = mesh[:, :-1], mesh[:, 1:]
    m0, m1 = ((b ** g - a ** g) / g for g in (gamma_exp + 1.0,
                                              gamma_exp + 2.0))
    width = b - a
    wa, wb = w[:, :-1], w[:, 1:]
    slope = np.where(width > 0, (wb - wa) / np.where(width > 0, width, 1.0), 0.0)
    return np.sum(wa * m0 + slope * (m1 - a * m0), axis=-1)


def weighted_singular_integral(gamma_exp, w_func, edges):
    """Adaptive integral of s^gamma w(s) ds for a smooth vectorized w.

    ``edges`` is an increasing sequence e_0 < e_1 < ... < e_K (e_0 >= 0).
    ``gamma_exp`` is one exponent and ``w_func`` maps N nodes to their N
    weights.  The result, shape (K,), holds the integrals from e_0 to every
    e_k.

    Each segment [e_(k-1), e_k] doubles its own nested uniform mesh, so
    only odd nodes are evaluated per level, and accelerates its raw
    product-integration sequence with a Richardson tableau in powers of
    h^2, which needs w smooth up to s = 0.  Every segment starts at ``_N0``
    cells and the unconverged ones double together, up to
    ``_MAX_DOUBLINGS`` times, so they always share one cell count:
    each level is one (segments x nodes) mesh, one ``w_func`` call, one
    product integration and one tableau row over the unconverged segments.
    A segment has converged when its tableau change drops below its share
    ``_QUAD_TOL / K`` of the mixed absolute/relative scale of the cumulative
    value at its right edge, so for a nonnegative integrand the summed
    change at every edge stays within ``_QUAD_TOL * max(1, |value|)``.  A
    stagnating segment whose changes are already at 50 times its share of
    the evaluation noise floor ``_NOISE_FLOOR`` is accepted there rather
    than refined forever.
    """
    gamma = float(gamma_exp)
    if gamma <= -1.0:
        raise ValueError("weight exponent must exceed -1 for integrability")
    edges = np.asarray(edges, dtype=float)
    K = edges.size - 1
    n_cells = n0 = _N0
    mesh = _segment_mesh(edges[:-1], edges[1:], n0)
    # adjacent segments share their common edge: evaluate it once
    first = w_func(np.concatenate((mesh[0], mesh[1:, 1:].ravel())))
    vals = np.lib.stride_tricks.sliding_window_view(first, n0 + 1)[::n0]
    rows = [_product_integrate(gamma, vals, mesh)]    # the tableau
    est = rows[0].copy()
    done = np.zeros(K, dtype=bool)
    best_change = np.full(K, math.inf)
    change = np.zeros(K)
    active = np.arange(K)
    for _ in range(_MAX_DOUBLINGS):
        live = ~done[active]
        active = active[live]
        if not active.size:
            break
        n_cells *= 2
        mesh = _segment_mesh(edges[active], edges[active + 1], n_cells)
        v = np.empty((active.size, n_cells + 1))
        v[:, ::2] = vals[live]
        v[:, 1::2] = w_func(mesh[:, 1::2].ravel()).reshape(active.size, -1)
        vals = v
        prev = [col[live] for col in rows]
        rows = [_product_integrate(gamma, v, mesh)]
        for j in range(1, min(len(prev) + 1, 5)):
            fac = 4.0 ** j
            rows.append(rows[j - 1] + (rows[j - 1] - prev[j - 1]) / (fac - 1.0))
        ch = change[active] = np.abs(rows[-1] - prev[-1])
        est[active] = rows[-1]
        scale = (np.maximum(1.0, np.abs(np.cumsum(est))) / K)[active]
        # converged, or stagnating at the weight-evaluation noise floor
        done[active] = ((ch <= _QUAD_TOL * scale)
                        | ((ch >= 0.25 * best_change[active])
                           & (ch <= 50.0 * _NOISE_FLOOR * scale)))
        best_change[active] = np.minimum(best_change[active], ch)
    if not done.all():
        # an unconverged segment refined at every level
        k = int(np.argmin(done))
        raise QuadratureNotConverged(
            f"power-weight quadrature stalled at {n_cells} cells on "
            f"[{edges[k]:.6g}, {edges[k + 1]:.6g}] (last tableau change "
            f"{change[k]:.3e})")
    return np.cumsum(est)


# ---------------------------------------------------------------------------
# kernel-norm constants: L1, squared L2, K1 (K0 is ``Kernels.k0``)
# ---------------------------------------------------------------------------

def _edges(deltas) -> np.ndarray:
    """0 and the upper limits ``deltas``: for one delta its halving edges
    delta 2^-k, k = ``_HALVINGS``..0, where one mesh over [0, delta] can
    stall on a far kink of ||phi||; else the increasing sequence itself."""
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    if not np.all(np.isfinite(deltas)):
        raise ValueError("deltas must be finite")
    if not deltas.size or deltas[0] <= 0 or not np.all(np.diff(deltas) > 0):
        raise ValueError("deltas must be positive and increase")
    if deltas.size == 1:
        deltas = deltas[0] * 2.0 ** -np.arange(_HALVINGS, -1, -1.0)
    return np.append(0.0, deltas)


def phi_alpha_l1(sys, delta: float) -> float:
    """integral_0^delta ||phi(s)||_2 ds (see ``Kernels.norm_integrals``)."""
    return float(_kernels(sys).norm_integrals(delta)[0])


def phi_alpha_l2sq(sys, delta: float) -> float:
    """integral_0^delta ||phi(s)||_2^2 ds over the halving edges of delta
    (``_edges``), by ``Kernels._norm_quadrature``; requires alpha > 1/2."""
    ker = _kernels(sys)
    if ker.alpha <= 0.5:
        raise SingularAtZero(
            f"||phi||^2 ~ s^({2 * ker.alpha - 2}) is not integrable for "
            f"alpha <= 1/2")
    return float(ker._norm_quadrature(2, _edges(delta))[-1])


def _l1_to_infinity(ker: Kernels) -> float:
    """K1 = integral_0^inf ||phi(s)|| ds, finite exactly when A0 has no zero
    eigenvalue and none in |arg lambda| <= alpha pi / 2 (the gate).

    Exact for a monotone kernel, cond(V) / |lam_max| (``Kernels.monotone``;
    past the gate every eigenvalue is negative), and for a scalar kernel
    with 1 < alpha < 2 (past the gate lam < 0): phi keeps one sign past
    last = (``_last_zero`` / |lam|)^(1/a), so K1 is L1(last), read on the
    edges last 2^-k, k = 20..0, plus |E_{a,1}(lam last^a)| / |lam|, the
    size of integral_last^inf phi, since d/ds E_{a,1}(lam s^a) = lam phi(s).
    Otherwise one integration over the edges T 2^k, k = -10..10, T set
    by min |lambda|.  phi decays like t^(-1-alpha) (Gorenflo, Kilbas,
    Mainardi and Rogosin, 2014), so doubling segments shrink by 2^-alpha:
    the tail is twice the geometric series of the last increment, with
    ratio max(last observed, 2^-alpha).  Raises once they stop shrinking.
    The doubled tail over-states K1: on normal kernels sent down this route,
    where K1 = 1 / |lam_max| is known, by 4.0% at alpha 0.3, 0.39% at 0.5,
    0.032% at 0.7 and 4e-6 at 0.95.
    """
    alpha = ker.alpha
    rho = float(np.min(np.abs(ker.lam)))
    if rho == 0.0 or ker.sector_margin() <= _SECTOR_TOL:
        raise KernelNotIntegrable(
            "phi is not integrable: A0 has a zero eigenvalue or one with "
            "|arg| <= alpha pi / 2")
    if ker.monotone:
        return float(ker._cond / abs(ker.lam_max))
    if ker.n == 1 and alpha < 2:
        lam = ker.lam_max
        last = (_last_zero(alpha) / abs(lam)) ** (1.0 / alpha)
        head = ker.norm_integrals(last * 2.0 ** -np.arange(20, -1, -1.0))[-1]
        return float(head + abs(ker.e_ml(1.0, last)[0, 0, 0]) / abs(lam))
    T = max(20.0, 20.0 * (1.0 / rho) ** (1.0 / min(alpha, 1.0)))
    deltas = T * 2.0 ** np.arange(-_HALVINGS, _HALVINGS + 1.0)
    cum = ker.norm_integrals(deltas)
    inc_prev, inc = np.diff(cum)[-2:]
    if inc == 0.0:     # an exponential decay underflows before T 2^10
        return float(cum[-1])
    ratio = max(inc / inc_prev, 2.0 ** -alpha)
    if ratio >= 1.0:
        raise KernelNotIntegrable(
            f"L1 increments stopped shrinking by T = {deltas[-1]:.3g} "
            f"(ratio {inc / inc_prev:.3g})")
    return float(cum[-1] + 2.0 * inc * ratio / (1.0 - ratio))


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
    k = order_index(alpha)
    report = BoundReport(alpha=alpha)

    # one pass: E_{a,j+1} serves ||E|| and ||phi_j|| = ||t^j E||, and
    # E_{a,a} gives phi = t^(a-1) E_{a,a}
    *E, phi = ker.scaled_each([(0, j + 1) for j in range(k)]
                              + [(alpha - 1.0, alpha)], t_grid)
    E = np.array(E)
    e_norm = induced_norms(E)
    phi_j_norm = induced_norms(np.array(
        [(t_grid ** j)[:, None, None] * E[j] for j in range(k)]))
    phi_norm = induced_norms(phi)

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
