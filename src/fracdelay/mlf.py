"""Gamma and Mittag-Leffler evaluation, scalar and matrix.

The package's one Gamma source is the standard library: ``gamma_fn``,
``rgamma`` (1/Gamma) and ``lgamma`` (ln|Gamma|, elementwise) are built on
``math.gamma`` and ``math.lgamma`` and share one pole test.

The two-parameter function E_{a,b}(z) = sum_l z^l / Gamma(a*l + b) is entire.
For a scalar argument three routes cover the plane, each chosen per point:

* exact reductions for integer orders (exp, cosh, sinh), identities of the
  series rather than approximations;
* the power series in double precision for |z| <= 1 (the pole-free real
  points below excepted), where its terms never exceed its sum by much: it
  sums to round-off and keeps a point only when its cancellation estimate
  is below 1e-13, else the point goes to the contour;
* everywhere else the inverse Laplace transform at t = 1,

      E_{a,b}(z) = (1/2 pi i) int_C e^s s^(a-b) / (s^a - z) ds,

  by the trapezoidal rule on a parabola s = mu (1 + iu)^2 (Weideman &
  Trefethen, Math. Comp. 76, 2007), plus the residues
  (1/a) s*^(1-b) e^(s*) of the poles s*^a = z right of it.  The parabola
  is Garrappa's (SIAM J. Numer. Anal. 53(3), 2015): among the regions
  between the origin and the poles it takes the one needing the fewest
  nodes for 1e-15, keeping mu small enough that round-off (about
  eps e^mu) stays at that level.  The rule sees each pole through the
  edge of its bin of ratio 2^(1/8) nearer the parabola, so points whose
  poles share bins share a parabola and its node factors; points with no
  pole on the principal sheet, such as every negative real z for a < 1,
  all share one and cost one division per node.  Such points skip the
  series even for |z| <= 1 when 0 < b <= a < 1: they share one parabola of
  27 nodes, 1.4-12x cheaper per call than the series (a 0.99 down to 0.1,
  10 to 100k points on [-1, 0), one CPU of a 2-vCPU x86-64 host) and
  within 2.4e-15 absolute of a 40-digit series (the series: 9.1e-16), so
  every sample of E_{a,a}(A0 s^a) for a real negative spectrum goes there.
  For b > a the contour loses digits toward z = 0 (6.7e-13 absolute at
  a = 0.99, b = a + 1) and the series keeps those points.  The rule runs
  contour by contour: each contour's node factors are computed once, and
  its terms as (nodes x points) blocks of at most 2^14 elements, so the
  memory the rule needs beyond its output is bounded by the block, not by
  the number of points.

The evaluator has one accuracy, set by no argument.  Against a 30-digit
series for alpha in 0.3..1.8 and the betas 1, alpha, alpha + 1, alpha + 2,
the measured error is at most 3.3e-14 absolute where |E| <= 1, and that
much relative above, on |z| <= 1 as everywhere else.

Matrix arguments go through the eigendecomposition whenever the eigenvector
basis is well conditioned (condition number below ``SPECTRAL_THRESHOLD``),
otherwise through a truncated matrix power series with a norm-based tail
bound.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (OverflowBeyondRepresentableRange, PoleAtNonpositiveInteger,
                     SeriesNotConverged)

_EPS = 2.2204460492503131e-16
# the |z| <= 1 series keeps a point whose cancellation estimate is below
# _SERIES_ACCEPT, the contour's level; a matrix series whose estimate
# exceeds _MATRIX_SERIES_FLOOR raises
_SERIES_ACCEPT = 1e-13
_MATRIX_SERIES_FLOOR = 1e-8
_MAX_TERMS = 10_000
# eigenvector condition number from which a matrix is treated as defective
SPECTRAL_THRESHOLD = 1e8


def _at_pole(x: float) -> bool:
    """True at the poles 0, -1, -2, ... of Gamma (to 1e-14) and at -inf."""
    return x <= 0 and (x == -math.inf or abs(x - round(x)) < 1e-14)


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, poles and overflow mapped to errors."""
    x = float(x)
    if _at_pole(x):
        raise PoleAtNonpositiveInteger(f"Gamma has a pole at {x:g}")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise OverflowBeyondRepresentableRange(
            f"Gamma({x}) exceeds double range") from exc


def rgamma(x: float) -> float:
    """1/Gamma(x) on the real line: 0 at the poles and where Gamma overflows
    (x > 171.62), a signed infinity where 1/Gamma does (x below about -171
    off the poles)."""
    x = float(x)
    if _at_pole(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        return 0.0
    return 1.0 / g if g else math.copysign(math.inf, g)


def lgamma(x) -> np.ndarray:
    """ln|Gamma(x)| elementwise, an array of x's shape; +inf at the poles."""
    x = np.asarray(x, dtype=float)
    return np.array([math.inf if _at_pole(v) else math.lgamma(v)
                     for v in x.ravel().tolist()]).reshape(x.shape)


# ---------------------------------------------------------------------------
# power series, double precision, vectorized over z
# ---------------------------------------------------------------------------

def _series_double(alpha: float, beta: float, z: np.ndarray):
    """Sum the defining series for a 1-D array of z.

    A point stops after three shrinking terms in a row below ``_EPS`` of
    its sum, or at a non-finite term, and at the latest after ``_MAX_TERMS``
    terms; only the points still summing are updated.  Returns (values,
    rel_err_estimate, n_terms).  The error estimate is eps * (largest term
    magnitude) / |sum|, i.e. the cancellation noise floor.
    """
    z = np.asarray(z, dtype=complex)
    S = np.full(z.shape, complex(rgamma(beta)))
    maxabs = np.abs(S)
    stop_ell = np.zeros(z.shape, dtype=int)
    # the points still summing: index, z, z^ell, partial sum, largest and
    # last term magnitude, consecutive small-and-shrinking terms
    live, zl, zp, Sl = np.arange(z.size), z, np.ones_like(z), S.copy()
    big, prev, calm = maxabs.copy(), maxabs.copy(), np.zeros(z.shape, int)
    ell = 0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        while live.size and ell < _MAX_TERMS:
            ell += 1
            zp = zp * zl
            term = zp * rgamma(alpha * ell + beta)
            Sl = Sl + term
            ta = np.abs(term)
            big = np.maximum(big, ta)
            small = ta <= _EPS * np.maximum(np.abs(Sl), 1e-300)
            calm = np.where(small & (ta < prev), calm + 1, 0)
            prev = ta
            stop = (calm >= 3) | ~np.isfinite(ta)
            if stop.any():
                idx = live[stop]
                S[idx], maxabs[idx], stop_ell[idx] = Sl[stop], big[stop], ell
                keep = ~stop
                live, zl, zp, Sl, big, prev, calm = (
                    a[keep] for a in (live, zl, zp, Sl, big, prev, calm))
    S[live], maxabs[live], stop_ell[live] = Sl, big, ell
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        absS = np.abs(S)
        # each term also carries the rounding of its Gamma argument
        # alpha*ell + beta, amplified by psi(x) ~ ln(x)
        x_end = alpha * stop_ell.astype(float) + abs(beta)
        noise = _EPS * (1.0 + x_end * np.log(x_end + 2.0))
        rel_err = np.where(np.isfinite(absS) & (absS > 0),
                           noise * maxabs / np.maximum(absS, 1e-300), np.inf)
        rel_err = np.where(np.isfinite(S.real) & np.isfinite(S.imag),
                           rel_err, np.inf)
    # points still summing hit the cap
    rel_err[live] = np.inf
    return S, rel_err, ell


# ---------------------------------------------------------------------------
# contour integral, vectorized over z
# ---------------------------------------------------------------------------

_LOG_EPS = math.log(_EPS)
_LOG_TOL = math.log(1e-15)       # Garrappa's target accuracy
_BINS_PER_OCTAVE = 8
_NO_POLE = np.iinfo(np.int64).max
# elements of one (nodes x points) block of trapezoid terms
_BLOCK = 2 ** 14


def _singularities(alpha: float, z: np.ndarray):
    """Poles of s^(a-b)/(s^a - z) on the principal sheet and their bins.

    Returns (poles, phi, bins), each of shape (P, m).  phi(s) =
    (Re s + |s|)/2 is the mu of the parabola mu (1 + iu)^2 through s.  The
    bin of a pole is floor(8 log2 phi), sorted per row; a missing pole, or
    one on the branch cut (phi = 0, left of every parabola), has phi = inf
    and the bin _NO_POLE.
    """
    theta = np.angle(z)
    radius = np.abs(z) ** (1.0 / alpha)
    kmin = np.ceil(-alpha / 2.0 - theta / (2.0 * np.pi)).astype(int)
    kmax = np.floor(alpha / 2.0 - theta / (2.0 * np.pi)).astype(int)
    m = int(np.max(kmax - kmin + 1, initial=0))
    poles = np.zeros((z.size, m), dtype=complex)
    phi = np.zeros((z.size, m))
    for i in range(m):
        k = kmin + i
        ok = k <= kmax
        s = radius[ok] * np.exp(1j * (theta[ok] + 2.0 * np.pi * k[ok]) / alpha)
        poles[ok, i] = s
        phi[ok, i] = (s.real + np.abs(s)) / 2.0
    phi = np.where(phi > 1e-15, phi, np.inf)
    bins = np.floor(_BINS_PER_OCTAVE * np.log2(np.where(phi < np.inf, phi, 1)))
    bins = np.where(phi < np.inf, bins.astype(np.int64), _NO_POLE)
    return poles, phi, np.sort(bins, axis=1)


def _params_between(lo, hi, p, log_tol):
    """Parabola between singularities at phi = lo < hi (Garrappa's
    OptimalParam_RB, pole strength q = 1 on the right): (mu, h, N)."""
    f_max = np.exp(log_tol - _LOG_EPS)
    sq_lo = np.sqrt(lo)
    sq_hi = np.minimum(np.sqrt(hi), 2.0 * np.sqrt(log_tol - _LOG_EPS) - sq_lo)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if p < 1e-14:
            f_min = np.where(sq_lo > 0, 1.01 * sq_lo / (sq_hi - sq_lo), 1.01)
            ok = f_min < f_max
            f_bar = f_min + f_min / f_max * (f_max - f_min)
            fq = 1.0 / f_bar
            sqb_lo = sq_lo
            sqb_hi = (2.0 * sq_hi - fq * sq_lo) / (2.0 + fq)
        else:
            f_min = 1.01 * (sq_lo + sq_hi) / (sq_hi - sq_lo) ** max(p, 1.0)
            ok = f_min < f_max
            f_min = np.maximum(f_min, 1.5)
            f_bar = f_min + f_min / f_max * (f_max - f_min)
            fp = f_bar ** (-1.0 / p)
            fq = 1.0 / f_bar
            w = -hi / log_tol
            den = 2.0 + w - (1.0 + w) * fp + fq
            sqb_lo = ((2.0 + w + fq) * sq_lo + fp * sq_hi) / den
            sqb_hi = (-(1.0 + w) * fq * sq_lo
                      + (2.0 + w - (1.0 + w) * fp) * sq_hi) / den
        lt = log_tol - np.log(f_bar)
        w = -sqb_hi ** 2 / lt
        mu = (((1.0 + w) * sqb_lo + sqb_hi) / (2.0 + w)) ** 2
        h = (-2.0 * np.pi / lt * (sqb_hi - sqb_lo)
             / ((1.0 + w) * sqb_lo + sqb_hi))
        N = np.ceil(np.sqrt(1.0 - lt / mu) / h)
    return mu, h, np.where(ok & np.isfinite(N), N, np.inf)


def _params_beyond(lo, p, log_tol):
    """Parabola right of the last singularity, at phi = lo (Garrappa's
    OptimalParam_RU): (mu, h, N)."""
    sq_lo = np.sqrt(lo)
    phib = np.where(lo > 0, 1.01 * lo, 0.01)
    sqb = np.sqrt(phib)
    N, A, sq_mu = (np.empty(lo.shape) for _ in range(3))
    todo = np.arange(lo.size)
    while todo.size:
        lept = log_tol[todo] / phib[todo]
        N[todo] = np.ceil(phib[todo] / np.pi
                          * (1.0 - 1.5 * lept + np.sqrt(1.0 - 2.0 * lept)))
        A[todo] = np.pi * N[todo] / phib[todo]
        sq_mu[todo] = (sqb[todo] * np.abs(4.0 - A[todo])
                       / np.abs(7.0 - np.sqrt(1.0 + 12.0 * A[todo])))
        if p < 1e-14:
            break
        f_bar = ((sqb[todo] - sq_lo[todo]) / sq_mu[todo]) ** (-p)
        todo = todo[~((f_bar > 1.0) & (f_bar < 10.0))]
        sqb[todo] = 5.0 ** (-1.0 / p) * sq_mu[todo] + sq_lo[todo]
        phib[todo] = sqb[todo] ** 2
    mu = sq_mu ** 2
    h = (-3.0 * A - 2.0 + 2.0 * np.sqrt(1.0 + 12.0 * A)) / (4.0 - A) / N
    # round-off grows like e^mu: cap mu where the singularity allows it
    thr = log_tol - _LOG_EPS
    big = mu > thr
    if np.any(big):
        q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * np.sqrt(mu[big])
        ok = (q + sq_lo[big]) ** 2 < thr[big]
        w = np.sqrt(_LOG_EPS / (_LOG_EPS - log_tol[big]))
        u = np.sqrt(-(q + sq_lo[big]) ** 2 / _LOG_EPS)
        Nb = np.ceil(w * log_tol[big] / (2.0 * np.pi) / (u * w - 1.0))
        mu[big] = thr[big]
        N[big] = np.where(ok, Nb, np.inf)
        h[big] = np.where(ok, w / Nb, 0.0)
    return mu, h, N


def _contours(alpha: float, beta: float, bins: np.ndarray):
    """Garrappa's contour for each row of pole bins: (mu, h, N).

    Region r lies between singularity r and r + 1 (0 is the origin, poles
    in order); the one needing the fewest nodes wins, and the target
    accuracy is relaxed tenfold while every region needs more than 200.
    A pole enters as the edge of its bin that is nearer the contour, so the
    true singularities are never closer to it than the rule assumed.
    """
    U, m = bins.shape
    # bin b covers [2^(b/8), 2^((b+1)/8)); no pole, no edge
    none = bins == _NO_POLE
    edge = np.where(none, np.inf,
                    2.0 ** (np.where(none, 0, bins) / _BINS_PER_OCTAVE))
    lows = np.concatenate(
        [np.zeros((U, 1)), edge * 2.0 ** (1.0 / _BINS_PER_OCTAVE)], axis=1)
    highs = np.concatenate([edge, np.full((U, 1), np.inf)], axis=1)
    p0 = max(0.0, 2.0 * (beta - alpha - 1.0))   # strength of the origin
    mu, h = np.zeros(U), np.zeros(U)
    N = np.full(U, np.inf)
    log_tol = np.full(U, _LOG_TOL)
    todo = np.arange(U)
    while todo.size:
        for r in range(m + 1):
            lo, hi, lt = lows[todo, r], highs[todo, r], log_tol[todo]
            p = p0 if r == 0 else 1.0
            adm = (lo < lt - _LOG_EPS) & (lo < hi)
            for beyond in (False, True):
                sel = adm & (np.isinf(hi) == beyond)
                if not sel.any():
                    continue
                cand = (_params_beyond(lo[sel], p, lt[sel]) if beyond else
                        _params_between(lo[sel], hi[sel], p, lt[sel]))
                better = cand[2] < N[todo[sel]]
                idx = todo[sel][better]
                mu[idx], h[idx], N[idx] = (c[better] for c in cand)
        todo = todo[N[todo] > 200]
        log_tol[todo] += math.log(10.0)
        N[todo] = np.inf
    return mu, h, N.astype(int)


def _trapezoid(alpha: float, beta: float, z: np.ndarray, contour: np.ndarray,
               mu, h, N, real: bool) -> np.ndarray:
    """h/(2 pi i) sum_k e^s s^(a-b) s' / (s^a - z), nodes s = mu (1 + ihk)^2.

    Point i runs over |k| <= N of its contour ``contour[i]`` (an index into
    ``mu``, ``h``, ``N``).  Contour by contour, the node factors are computed
    once and the terms as (nodes x points) blocks of at most ``_BLOCK``
    elements, whose rows are summed in ascending k: a value does not depend
    on the batch, and memory beyond the output is bounded by the block.  For
    real z the nodes k and -k are conjugate: only k >= 0 is summed, and only
    the imaginary part, in real arithmetic.
    """
    out = np.empty(z.size, dtype=complex)
    order = np.argsort(contour, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(contour[order])) + 1):
        i = contour[idx[0]]
        w = 1.0 + 1j * (np.arange(0 if real else -N[i], N[i] + 1) * h[i])
        s = mu[i] * w * w
        ls = np.log(s)
        c = (np.exp(s + (alpha - beta) * ls) * (2j * mu[i] * w))[:, None]
        d = np.exp(alpha * ls)[:, None]
        if real:
            c[1:] *= 2.0
            # Im c / (d - x) = (Im c (Re d - x) - Re c Im d) / |d - x|^2
            c, cd, d, dd = c.imag, c.real * d.imag, d.real, d.imag * d.imag
        step = h[i] / (2.0 * np.pi)
        for cols in np.split(idx, range(_BLOCK - 1, idx.size, _BLOCK - 1)):
            # a point at 0 pads the block to two columns or more: numpy sums
            # the rows of a wider block in order, of a one-column one pairwise
            zs = np.append(z[cols].real if real else z[cols], 0.0)
            rows = _BLOCK // zs.size
            acc = 0.0
            for r in range(0, w.size, rows):
                k = slice(r, r + rows)
                e = d[k] - zs
                # in place: fewer temporaries of the block's size
                if real:
                    t = c[k] * e
                    t -= cd[k]
                    e *= e
                    e += dd[k]
                    t /= e
                else:
                    t = np.divide(c[k], e, out=e)
                t[0] += acc
                acc = np.add.reduce(t, axis=0)
            out[cols] = (step * acc if real else -1j * step * acc)[:-1]
    return out


def _contour_values(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for nonzero z by the contour integral.

    Points whose poles fall in the same bins share one contour.
    """
    poles, phi, bins = _singularities(alpha, z)
    if bins.shape[1] <= 4:
        # a row of bins as one integer: 16 bits per pole, |bin| < 2^14
        code = np.where(bins == _NO_POLE, 0xFFFF, bins + 0x8000)
        key = np.zeros(z.size, dtype=np.uint64)
        for col in code.T:
            key = (key << np.uint64(16)) | col.astype(np.uint64)
        _, first, contour = np.unique(key, return_index=True,
                                      return_inverse=True)
    else:
        _, first, contour = np.unique(bins, axis=0, return_index=True,
                                      return_inverse=True)
    contour = contour.ravel()
    mu, h, N = _contours(alpha, beta, bins[first])
    out = np.empty(z.size, dtype=complex)
    real = z.imag == 0
    for part in (True, False):
        sel = np.flatnonzero(real == part)
        if sel.size:
            out[sel] = _trapezoid(alpha, beta, z[sel], contour[sel], mu, h, N,
                                  part)
    # residues of the poles right of the contour
    mu = mu[contour]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(poles.shape[1]):
            right = np.isfinite(phi[:, i]) & (phi[:, i] > mu)
            s = poles[right, i]
            out[right] += np.exp(s + (1.0 - beta) * np.log(s)) / alpha
    out[real] = out[real].real
    return out


# ---------------------------------------------------------------------------
# exact reductions for integer orders
# ---------------------------------------------------------------------------

def _sinhc(w: np.ndarray) -> np.ndarray:
    """sinh(w)/w with a series guard at the origin."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-4
    safe = np.where(small, 1.0, w)
    out = np.sinh(safe) / safe
    w2 = w * w
    return np.where(small, 1.0 + w2 / 6.0 + w2 * w2 / 120.0, out)


def _identity_path(alpha: float, beta: float, z: np.ndarray):
    """Closed forms for integer (alpha, beta) as (values, mask of the points
    where they apply); None when no closed form exists for (alpha, beta).

    The mask is chosen per point, so a value never depends on the other
    points of the same call.
    """
    z = np.asarray(z, dtype=complex)
    everywhere = np.ones(z.shape, dtype=bool)
    if alpha == 1.0:
        if beta == 1.0:
            return np.exp(z), everywhere
        if float(beta).is_integer() and beta >= 2:
            m = int(beta)
            # (e^z - partial sum)/z^{m-1}, safe once |z| dominates the partial sum
            ok = np.abs(z) >= m + 2
            zo = z[ok]
            part = np.zeros_like(zo)
            zp = np.ones_like(zo)
            fact = 1.0
            for i in range(m - 1):
                part = part + zp / fact
                zp = zp * zo
                fact *= (i + 1)
            vals = np.zeros_like(z)
            vals[ok] = (np.exp(zo) - part) / zo ** (m - 1)
            return vals, ok
    if alpha == 2.0:
        w = np.sqrt(z)
        if beta == 1.0:
            return np.cosh(w), everywhere
        if beta == 2.0:
            return _sinhc(w), everywhere
        if beta in (3.0, 4.0):
            ok = np.abs(z) >= 4
            wo, zo = w[ok], z[ok]
            vals = np.zeros_like(z)
            vals[ok] = ((np.cosh(wo) if beta == 3.0 else _sinhc(wo)) - 1.0) / zo
            return vals, ok
    return None


# ---------------------------------------------------------------------------
# public scalar / array evaluation
# ---------------------------------------------------------------------------

def ml_scalar_array(alpha: float, beta: float, z) -> np.ndarray:
    """Vectorized E_{alpha,beta} over an array of complex arguments.

    Closed forms serve integer orders, the power series |z| <= 1 where it
    keeps its digits, and the contour integral every other point; a real
    z < 0 with 0 < beta <= alpha < 1 has no pole on the principal sheet and
    takes the shared pole-free contour, cheaper there than the series and
    as accurate (see the module docstring).  Each value depends on its own
    point only.  A real z whose value exceeds double range gives inf; a
    complex one raises OverflowBeyondRepresentableRange.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    vals = np.empty(flat.shape, dtype=complex)
    todo = np.ones(flat.shape, dtype=bool)
    ident = _identity_path(alpha, beta, flat)
    if ident is not None:
        vals[ident[1]] = ident[0][ident[1]]
        todo &= ~ident[1]
    zero = todo & (flat == 0)
    vals[zero] = rgamma(beta)
    todo &= ~zero
    near = todo & (np.abs(flat) <= 1.0)
    if alpha < 1.0 and 0.0 < beta <= alpha:
        # no pole on the principal sheet: one shared contour is cheaper
        near &= ~((flat.imag == 0) & (flat.real < 0))
    near = np.flatnonzero(near)
    if near.size:
        vs, es, _ = _series_double(alpha, beta, flat[near])
        ok = es <= _SERIES_ACCEPT
        vals[near[ok]] = vs[ok]
        todo[near[ok]] = False
    if todo.any():
        vals[todo] = _contour_values(alpha, beta, flat[todo])
    lost = ~np.isfinite(vals) & (flat.imag != 0)
    if lost.any():
        raise OverflowBeyondRepresentableRange(
            f"E_{{{alpha},{beta}}}{complex(flat[lost][0])} exceeds double range")
    return vals.reshape(z.shape)


def ml_scalar(alpha: float, beta: float, z: complex) -> complex:
    """Two-parameter Mittag-Leffler function at a single point."""
    return complex(ml_scalar_array(alpha, beta, np.array([z]))[0])


# ---------------------------------------------------------------------------
# matrix arguments
# ---------------------------------------------------------------------------

def eig_basis(A: np.ndarray):
    """(eigenvalues, eigenvectors V, cond(V)) of A; V is None when cond(V)
    is not below ``SPECTRAL_THRESHOLD``, the one defectiveness test."""
    lam, V = np.linalg.eig(np.asarray(A, dtype=float))
    cond = np.linalg.cond(V)
    ok = np.isfinite(cond) and cond < SPECTRAL_THRESHOLD
    return lam, V if ok else None, cond


def eig_factors(A: np.ndarray):
    """(eigenvalues, rank-one factors O_k) when A is safely diagonalizable.

    E(A) is then sum_k f(lambda_k) O_k with O_k = v_k w_k^T built from the
    right/left eigenvectors; returns None for a near-defective basis.
    """
    lam, V, _ = eig_basis(A)
    if V is None:
        return None
    return lam, np.einsum("ik,kj->kij", V, np.linalg.inv(V))


def _ml_matrix_series(alpha: float, beta: float, M: np.ndarray) -> np.ndarray:
    """Truncated power series, stopped at an exactly zero term (nilpotent M)
    or once three shrinking terms in a row are below ``_EPS`` of the sum.
    Reaching ``_MAX_TERMS`` terms, a non-finite term, or a cancellation
    estimate (eps times the largest term norm over the sum's norm, as in
    ``_series_double``) above 1e-8 raises SeriesNotConverged.
    """
    n = M.shape[0]
    S = np.eye(n) * rgamma(beta)
    P = np.eye(n)
    norm_prev = np.inf
    largest = np.linalg.norm(S, ord="fro")
    calm = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for ell in range(1, _MAX_TERMS):
            P = P @ M
            term = P * rgamma(alpha * ell + beta)
            S = S + term
            tn = np.linalg.norm(term, ord="fro")
            sn = np.linalg.norm(S, ord="fro")
            largest = max(largest, tn)
            small = tn <= _EPS * max(sn, 1e-300) and tn < norm_prev
            calm = calm + 1 if small else 0
            norm_prev = tn
            if tn == 0 or calm >= 3 or not np.isfinite(tn):
                break
        else:
            raise SeriesNotConverged(f"matrix series for E_{{{alpha},{beta}}} "
                                     f"hit {_MAX_TERMS} terms")
    if not np.isfinite(tn) or _EPS * largest > _MATRIX_SERIES_FLOOR * sn:
        raise SeriesNotConverged(
            f"matrix series for E_{{{alpha},{beta}}} lost its digits: "
            f"largest term norm {largest:.3g}, sum norm {sn:.3g}")
    return S


def _ml_matrices(alpha: float, beta: float, A: np.ndarray, fac,
                scale: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(A s) for every s in ``scale``, shape (N, n, n).

    ``fac`` is ``eig_factors(A)``: when it is not None, one scalar call over
    every eigenvalue times every s; else the matrix series per s.
    """
    if fac is not None:
        lam, factors = fac
        f = ml_scalar_array(alpha, beta, np.multiply.outer(lam, scale))
        return np.real(np.einsum("kN,kij->Nij", f, factors))
    out = np.empty((scale.size, A.shape[0], A.shape[0]))
    for idx, s in enumerate(scale):
        out[idx] = np.real(_ml_matrix_series(alpha, beta, A * s))
    return out


def ml_matrix(alpha: float, beta: float, A: np.ndarray, t: float) -> np.ndarray:
    """E_{alpha,beta}(A t^alpha) for a square matrix A and time t >= 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    A = np.asarray(A, dtype=float)
    return _ml_matrices(alpha, beta, A, eig_factors(A),
                        np.array([t ** alpha]))[0]
