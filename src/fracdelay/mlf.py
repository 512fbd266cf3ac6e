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
  is below 1e-13, else the point goes to the contour.  One pass sums
  every beta's points, each at its own beta: its terms come in blocks for
  every point still summing, ``_TERM_BLOCK`` = 10 terms at a time or, for
  a pass of at most 372 points, as many as make 2^12 elements, up to 30,
  as (terms x points) arrays in real arithmetic when every z is real,
  with one stop test per block and the bits of a term-by-term loop;
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
  a = 0.99, b = a + 1) and the series keeps those points.  A contour's
  key is its row of pole bins packed into one integer, 16 bits a pole,
  and the strength p0 = max(0, 2 (b - a - 1)) of the origin, the one
  place where the parabola reads beta: betas of one strength share it.

One pass serves every beta that a caller needs at one point set
(``ml_betas``; ``ml_scalar_array`` is its one-beta case).  What depends
on (alpha, z) alone comes once for all the betas: the points at 0, the
poles and their bins, the pass of the power series, and, for the betas
of one strength, the contours, the layout of the blocks below, the
denominators d - x and (d - x)^2 + (Im d)^2 of real z (d - z of complex
z), d = s^a, and the logarithms of the poles right of the contour.  Each
beta adds only its closed forms, its series terms, the numerators of its
node factors and its residues, so a value has the bits of a one-beta
call.
The node factors of a call's new contours are computed in one pass and
kept as one (factors x contours x nodes) array per kind of point, padded
past each contour's last node: its first rows the factors of d that the
betas share, then those of each beta, with one mask of the rows built for
each contour, so a row that any call built serves every later call that
reads it.  A call's terms come in one pass for its real points and one
for its complex ones, whatever the number of contours and betas: the
points, ordered by node count and contour, are cut into (nodes x points)
blocks of at most 2^14 terms over all the betas, each padded to the most
nodes among its own points, so memory beyond the output is bounded by the
block, not by the number of points.
Contours are kept per kernel: a ``kernels.Kernels`` object holds one
table of the contours and node factors it has met, for every beta, a dict
of one ``_Contours`` per strength, so its quadrature's levels, its zero
scan and the kernels of a certificate build only the contours and rows
they are missing; a direct ``ml_betas`` call builds a table of its own,
dropped with the call.  A value does not depend on what the table held.

The evaluator has one accuracy, set by no argument.  Against a 30-digit
series for alpha in 0.3..1.8 and the betas 1, alpha, alpha + 1, alpha + 2,
the measured error is at most 3.3e-14 absolute where |E| <= 1, and that
much relative above, on |z| <= 1 as everywhere else.

Matrix arguments go through the eigendecomposition whenever the eigenvector
basis is well conditioned (condition number below ``SPECTRAL_THRESHOLD``),
one scalar pass over every eigenvalue, s and beta, the real part of
sum_k E(lambda_k s) O_k recombined in real arithmetic one beta at a time,
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
# terms of the |z| <= 1 series per block, for every point still summing,
# in a call of many points (see _series_double)
_TERM_BLOCK = 10
# elements of one (nodes x points) block of contour terms
_BLOCK = 2 ** 14
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

def _series_double(alpha: float, betas, z: np.ndarray,
                   which: np.ndarray | None = None):
    """Sum the defining series for a 1-D array of z, point j at the beta
    ``betas[which[j]]``; one beta is a float, with ``which`` None.

    A point stops after three shrinking terms in a row below ``_EPS`` of
    its sum, or at a non-finite term, and at the latest after ``_MAX_TERMS``
    terms.  The terms come in blocks, as (terms x points) arrays over the
    points still summing, and the stop test runs once per block: a point
    that stops inside a block takes its sum at its stop term, and only the
    points still summing go on to the next block.  A block has
    ``_TERM_BLOCK`` terms, or for a call of few points as many as make
    ``_BLOCK`` / 4 elements, at most 3 ``_TERM_BLOCK``: the numpy calls of
    a small call's blocks cost more than their arithmetic.  The
    powers come from one multiply per term and the partial sums and the
    largest term from a sequential accumulation along the terms, so every
    value has the bits of a term-by-term loop.  When every z is real the
    arithmetic and the values are real, with the bits of the complex
    arithmetic on zero imaginary parts.  Returns (values,
    rel_err_estimate).  The error estimate is eps * (largest term
    magnitude) / |sum|, i.e. the cancellation noise floor.
    """
    z = np.asarray(z, dtype=complex)
    if not z.imag.any():
        z = z.real
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if which is None:
        which = np.zeros(z.size, dtype=int)
    g0 = np.array([rgamma(b) for b in betas])[which]
    S = np.empty(z.shape, dtype=z.dtype)
    maxabs = np.empty(z.shape)
    stop_ell = np.full(z.shape, _MAX_TERMS)
    # the points still summing: index, beta, z, z^ell, partial sum, largest
    # and last term magnitude, small-and-shrinking flags of the last two
    # terms
    live, wl, zl, zp = np.arange(z.size), which, z, np.ones_like(z)
    Sl, big = g0.astype(z.dtype), np.abs(g0)
    prev, calm = big, np.zeros((2, z.size), dtype=bool)
    ell = 0
    terms = min(max(_TERM_BLOCK, _BLOCK // (4 * max(z.size, 1))),
                3 * _TERM_BLOCK)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        while live.size and ell < _MAX_TERMS:
            nb = min(terms, _MAX_TERMS - ell)
            # (terms x betas); with several betas, one column per point
            gam = np.array([rgamma(alpha * k + b) for b in betas
                            for k in range(ell + 1, ell + nb + 1)])
            gam = gam.reshape(betas.size, nb).T
            if betas.size > 1:
                gam = gam[:, wl]
            # row 0 of each array holds what the previous block left
            P = np.empty((nb + 1, live.size), dtype=z.dtype)
            P[0] = zp
            for j in range(nb):
                np.multiply(P[j], zl, out=P[j + 1])
            sums = np.empty_like(P)
            sums[0] = Sl
            np.multiply(P[1:], gam, out=sums[1:])
            mags = np.empty(P.shape)
            mags[0] = prev
            ta = np.abs(sums[1:], out=mags[1:])
            top = mags.copy()
            top[0] = big
            np.add.accumulate(sums, axis=0, out=sums)
            np.maximum.accumulate(top, axis=0, out=top)
            flags = np.empty((nb + 2, live.size), dtype=bool)
            flags[:2] = calm
            small = np.less_equal(
                ta, _EPS * np.maximum(np.abs(sums[1:]), 1e-300), out=flags[2:])
            small &= ta < mags[:-1]
            stop = small & flags[1:-1] & flags[:-2]
            stop |= ~np.isfinite(ta)
            going = ~stop.any(axis=0)
            zp, Sl, big, prev = P[-1], sums[-1], top[-1], ta[-1]
            calm = flags[-2:]
            if not going.all():
                done = np.flatnonzero(~going)
                j = stop[:, done].argmax(axis=0) + 1
                idx = live[done]
                S[idx], maxabs[idx] = sums[j, done], top[j, done]
                stop_ell[idx] = ell + j
                keep = np.flatnonzero(going)
                live, wl, zl, zp = live[keep], wl[keep], zl[keep], zp[keep]
                Sl = Sl[keep]
                big, prev, calm = big[keep], prev[keep], calm[:, keep]
            ell += nb
        # points still summing hit the cap
        S[live], maxabs[live] = Sl, big
        absS = np.abs(S)
        # each term also carries the rounding of its Gamma argument
        # alpha*ell + beta, amplified by psi(x) ~ ln(x)
        x_end = alpha * stop_ell.astype(float) + np.abs(betas)[which]
        noise = _EPS * (1.0 + x_end * np.log(x_end + 2.0))
        # a non-finite part makes |S| non-finite
        rel_err = np.where(np.isfinite(absS) & (absS > 0),
                           noise * maxabs / np.maximum(absS, 1e-300), np.inf)
    rel_err[live] = np.inf
    return S, rel_err


# ---------------------------------------------------------------------------
# contour integral, vectorized over z
# ---------------------------------------------------------------------------

_LOG_EPS = math.log(_EPS)
_LOG_TOL = math.log(1e-15)       # Garrappa's target accuracy
_BINS_PER_OCTAVE = 8
_NO_POLE = np.iinfo(np.int64).max


def _singularities(alpha: float, z: np.ndarray):
    """Poles of s^(a-b)/(s^a - z) on the principal sheet and their bins.

    Returns (poles, phi, bins), each of shape (P, m).  phi(s) =
    (Re s + |s|)/2 is the mu of the parabola mu (1 + iu)^2 through s.  The
    bin of a pole is floor(8 log2 phi), sorted per row; a missing pole, or
    one on the branch cut (phi = 0, left of every parabola), has phi = inf
    and the bin _NO_POLE.
    """
    theta = np.angle(z)
    turns = theta / (2.0 * np.pi)
    kmin = np.ceil(-alpha / 2.0 - turns).astype(int)
    kmax = np.floor(alpha / 2.0 - turns).astype(int)
    m = int(np.max(kmax - kmin + 1, initial=0))
    poles = np.zeros((z.size, m), dtype=complex)
    phi = np.zeros((z.size, m))
    if not m:
        return poles, phi, np.zeros((z.size, 0), dtype=np.int64)
    # every point's poles at once, row by row
    k = kmin[:, None] + np.arange(m)
    ok = k <= kmax[:, None]
    at = ok.nonzero()[0]
    radius = np.abs(z) ** (1.0 / alpha)
    s = radius[at] * np.exp(1j * (theta[at] + 2.0 * np.pi * k[ok]) / alpha)
    poles[ok] = s
    phi[ok] = (s.real + np.abs(s)) / 2.0
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
    while True:
        # every point anew: one whose f_bar has settled keeps its phib, so
        # its N, A and mu
        lept = log_tol / phib
        N = np.ceil(phib / np.pi
                    * (1.0 - 1.5 * lept + np.sqrt(1.0 - 2.0 * lept)))
        A = np.pi * N / phib
        sq_mu = sqb * np.abs(4.0 - A) / np.abs(7.0 - np.sqrt(1.0 + 12.0 * A))
        if p < 1e-14:
            break
        f_bar = ((sqb - sq_lo) / sq_mu) ** (-p)
        again = ~((f_bar > 1.0) & (f_bar < 10.0))
        if not again.any():
            break
        sqb = np.where(again, 5.0 ** (-1.0 / p) * sq_mu + sq_lo, sqb)
        phib = np.where(again, sqb ** 2, phib)
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


def _strength(alpha: float, beta: float) -> float:
    """p0 = max(0, 2 (beta - alpha - 1)), the strength of the origin as a
    singularity of e^s s^(a-b) / (s^a - z), and 0 for every p0 below
    1e-14: ``_contours`` reads so small a p0 only through its p < 1e-14
    tests, so the betas of one strength share their contours bit for bit."""
    p0 = 2.0 * (beta - alpha - 1.0)
    return p0 if p0 >= 1e-14 else 0.0


def _contours(p0: float, bins: np.ndarray):
    """Garrappa's contour for each row of pole bins: (mu, h, N).

    Region r lies between singularity r and r + 1 (0 is the origin, of
    strength ``p0``, poles in order); the one needing the fewest nodes
    wins, and the target accuracy is relaxed tenfold while every region
    needs more than 200.  A pole enters as the edge of its bin that is
    nearer the contour, so the true singularities are never closer to it
    than the rule assumed.
    """
    U, m = bins.shape
    if m:
        # bin b covers [2^(b/8), 2^((b+1)/8)); no pole, no edge
        none = bins == _NO_POLE
        edge = np.where(none, np.inf,
                        2.0 ** (np.where(none, 0, bins) / _BINS_PER_OCTAVE))
        lows = np.concatenate(
            [np.zeros((U, 1)), edge * 2.0 ** (1.0 / _BINS_PER_OCTAVE)], axis=1)
        highs = np.concatenate([edge, np.full((U, 1), np.inf)], axis=1)
    mu, h = np.zeros(U), np.zeros(U)
    N = np.full(U, np.inf)
    log_tol = np.full(U, _LOG_TOL)
    todo = np.arange(U)
    while todo.size:
        if not m:
            # no pole: the one region lies right of the origin; the loop
            # below finds the same at about 1.5 times the cost
            mu[todo], h[todo], N[todo] = _params_beyond(
                np.zeros(todo.size), p0, log_tol[todo])
        else:
            for r in range(m + 1):
                lo, hi, lt = lows[todo, r], highs[todo, r], log_tol[todo]
                p = p0 if r == 0 else 1.0
                adm = (lo < lt - _LOG_EPS) & (lo < hi)
                for beyond in (False, True):
                    sel = adm & (np.isinf(hi) == beyond)
                    if not sel.any():
                        continue
                    cand = (_params_beyond(lo[sel], p, lt[sel]) if beyond
                            else _params_between(lo[sel], hi[sel], p,
                                                 lt[sel]))
                    better = cand[2] < N[todo[sel]]
                    idx = todo[sel][better]
                    mu[idx], h[idx], N[idx] = (c[better] for c in cand)
        todo = todo[N[todo] > 200]
        log_tol[todo] += math.log(10.0)
        N[todo] = np.inf
    return mu, h, N.astype(int)


class _Contours:
    """The contours of one strength p0 of the origin met so far, and their
    node factors, for every beta of that strength.

    A contour is keyed by its row of pole bins packed into one integer, 16
    bits per pole from the nearest up and a missing pole as 0, so the
    padding of rows with fewer poles changes neither key nor contour.  It
    keeps every contour's (mu, h, N) and, once a point has used it, its
    node factors: per kind of point one (factors x contours x nodes)
    array, padded past each contour's last node, whose first rows hold the
    factors every beta shares and the rest those of each beta met, in the
    order met, and one (factors x contours) mask of the rows built
    (``nodes``).
    """

    def __init__(self, alpha: float, p0: float):
        self.alpha, self.p0 = alpha, p0
        self.mu, self.h = np.empty(0), np.empty(0)
        self.N = np.empty(0, dtype=int)
        self._index = {}    # packed bins -> contour number
        self._betas = {}    # beta -> its number among the betas met
        # real -> node factors, and the mask of the rows built
        self._nodes = {real: np.empty((0, 0, 0),
                                      dtype=float if real else complex)
                       for real in (True, False)}
        self._built = {real: np.empty((0, 0), dtype=bool)
                       for real in (True, False)}

    def contours(self, bins: np.ndarray) -> np.ndarray:
        """The contour number of every point, from its row of ``bins``; the
        rows of new contours go through ``_contours`` as one array."""
        # |bin| < 2^14, so a pole's code bin + 2^15 is nonzero; past 4 poles
        # the keys outgrow uint64 and are Python ints
        dtype = np.uint64 if bins.shape[1] <= 4 else object
        code = np.where(bins == _NO_POLE, 0, bins + 0x8000).astype(dtype)
        key = code @ np.array([1 << 16 * c for c in range(bins.shape[1])],
                              dtype=dtype)
        keys, first, inverse = np.unique(key, return_index=True,
                                         return_inverse=True)
        keys = keys.tolist()
        new = [u for u, k in enumerate(keys) if k not in self._index]
        if new:
            mu, h, N = _contours(self.p0, bins[first[new]])
            self._index.update(zip((keys[u] for u in new),
                                   range(self.mu.size, self.mu.size + len(new))))
            self.mu = np.concatenate((self.mu, mu))
            self.h = np.concatenate((self.h, h))
            self.N = np.concatenate((self.N, N))
        return np.array([self._index[k] for k in keys])[inverse]

    def nodes(self, contour: np.ndarray, real: bool, betas) -> tuple:
        """(node factors, rows): the node factors for one kind of
        point, a (factors x contours x nodes) array, after building those
        of ``betas`` of the contours in ``contour`` that lack one of their
        rows, all in one pass, and the rows that a call of ``betas`` reads.

        With c = e^s s^(a-b) s' and d = s^a, the terms are c / (d - z),
        nodes s = mu (1 + ihk)^2 with |k| <= N, column 0 at k = -N; for
        real z only k >= 0, column 0 at k = 0, with c doubled past k = 0.
        The rows of real z hold the shared d = Re s^a and dd = (Im s^a)^2,
        then c = Im c and cd = Re c Im s^a of each beta; those of complex z
        the shared d = s^a, then c of each beta.  Columns past a contour's
        last node hold factors whose terms are exactly zero: c = cd = d = 0
        and dd = 1 for real z, and c = d = 0 for complex z, whose terms
        ``_block_sums`` makes 0 / 1.  A row is built once per contour, by
        the first call that reads it; a contour that lacks one of a call's
        rows has all of them built again, to the same bits.
        """
        i = [self._betas.setdefault(float(b), len(self._betas))
             for b in betas]
        rows = np.array([0, 1] + [r for b in i for r in (2 + 2 * b, 3 + 2 * b)]
                        if real else [0] + [1 + b for b in i])
        nodes, built = self._nodes[real], self._built[real]
        R, C = (2 if real else 1) * (len(self._betas) + 1), self.N.size
        if built.shape != (R, C):
            grown = np.zeros((R, C), dtype=bool)
            grown[:built.shape[0], :built.shape[1]] = built
            built = self._built[real] = grown
        lack = contour[~built[rows].all(axis=0)[contour]]
        if lack.size:
            new = np.bincount(lack).nonzero()[0]
            size = self.N[new] + 1 if real else 2 * self.N[new] + 1
            width = max(nodes.shape[2], int(size.max()))
            # every new contour's nodes, one flat array, contour by contour
            col, row = (np.arange(width) < size[:, None]).nonzero()
            col = new[col]
            k = row if real else row - self.N[col]
            mu = self.mu[col]
            w = 1.0 + 1j * (k * self.h[col])
            s = mu * w * w
            ls = np.log(s)
            shift = np.array([[self.alpha - float(b)] for b in betas])
            c = np.exp(s + shift * ls) * (2j * mu * w)
            d = np.exp(self.alpha * ls)
            if real:
                c[:, k > 0] *= 2.0
                vals = [d.real, d.imag * d.imag]
                for cb in c:
                    vals += [cb.imag, cb.real * d.imag]
            else:
                vals = [d, *c]
            if nodes.shape != (R, C, width):
                grown = np.zeros((R, C, width), dtype=nodes.dtype)
                if real:
                    grown[1] = 1.0
                grown[:nodes.shape[0], :nodes.shape[1],
                      :nodes.shape[2]] = nodes
                nodes = self._nodes[real] = grown
            nodes[rows[:, None], col, row] = vals
            built[rows[:, None], new] = True
        return nodes, rows


def _block_sums(fac: np.ndarray, z: np.ndarray,
                pad: np.ndarray | None = None) -> np.ndarray:
    """Trapezoid sums over the nodes of one block, one row per beta: the
    rows of the (nodes x points) terms, summed in ascending k.

    ``fac`` holds the block's nodes of the ``_Contours.nodes`` rows of
    a call, as (factors x nodes x points): one column shared by every
    point, or one column per point.  The shared d - x and, for real z,
    (d - x)^2 + dd are formed once for every beta.  ``pad`` marks the
    terms of complex z past a point's own last node, whose denominators
    are set to 1: with c = 0 there, 0 / 1 is exactly zero, where 0 / (0 -
    z) is NaN for a z of subnormal size.
    """
    # a point at 0 pads a one-column block to two; numpy sums the rows of a
    # C-contiguous block of two columns or more in order, of a one-column
    # or column-major one pairwise
    zs = np.append(z, 0.0) if z.size == 1 else z
    # gathered columns come transposed: C order keeps the sum in order
    e = np.subtract(fac[0], zs, order="C")
    if fac.dtype.kind == "f":
        # Im c / (d - x) = (Im c (Re d - x) - Re c Im d) / |d - x|^2
        t = np.multiply(fac[2::2], e, order="C")
        t -= fac[3::2]
        # in place: fewer temporaries of the block's size
        e *= e
        e += fac[1]
        t /= e
    else:
        if pad is not None:
            e[pad] = 1.0
        t = np.divide(fac[1:], e, order="C")
    return np.add.reduce(t, axis=1)[:, :z.size]


def _trapezoid(z: np.ndarray, table: _Contours, contour: np.ndarray,
               real: bool, betas) -> np.ndarray:
    """h/(2 pi i) sum_k e^s s^(a-b) s' / (s^a - z), nodes s = mu (1 + ihk)^2,
    |k| <= N, for every beta b of ``betas`` (one row each) and every point
    of ``z`` on its contour of ``table``, whose number ``contour`` holds;
    every point real or every one complex.  The values are complex, the
    sums of real z real.

    One pass for every contour and beta of the call: the points are
    ordered by node count, then by contour, and cut into (nodes x points)
    blocks, each padded to the most nodes among its own points, that hold
    at most ``_BLOCK`` terms over all the betas.  A contour whose points
    make ``_BLOCK`` / 8 terms or more takes blocks of its own, which
    broadcast its factor column: at that size one more block costs less
    than gathering its columns.  The points of the other contours share
    blocks, which gather their columns.  The padded terms are exactly zero
    and each point's own are summed in ascending k, so a value depends
    neither on the batch nor on the other betas, and memory beyond the
    output is bounded by the block.  For real z the nodes k and -k are
    conjugate: only k >= 0 is summed, and only the imaginary part, in real
    arithmetic.
    """
    nodes, rows = table.nodes(contour, real, betas)
    B = len(betas)
    N = table.N
    size = N + 1 if real else 2 * N + 1
    step = table.h / (2.0 * np.pi)
    if not real:
        step = -1j * step
    # the points in runs of one contour, the contours by node count, then
    # number: a stable sort of 16-bit ranks is a radix sort
    by = N.argsort(kind="stable")
    rank = np.empty_like(by)
    rank[by] = np.arange(N.size)
    order = rank[contour].astype(np.min_scalar_type(N.size)).argsort(
        kind="stable")
    cont, zs = contour[order], (z.real if real else z)[order]
    count = np.bincount(contour, minlength=N.size)[by]
    used = count > 0
    run, count = by[used], count[used]
    rows_of = size[run].repeat(count)
    # the block from point i holds the points j from i on with
    # (j - i + 1) B rows[j] <= _BLOCK, i.e. last[j] <= i, and at least
    # point i itself
    last = np.arange(1, z.size + 1) - np.maximum(
        _BLOCK // (B * size[run]), 1).repeat(count)
    if run.size > 1:
        # a block also starts at each run that takes blocks of its own and
        # at the run after it
        own = 8 * B * count * size[run] >= _BLOCK
        own[1:] |= own[:-1]
        begin = np.maximum.accumulate((count.cumsum() - count) * own)
        np.maximum(last, begin.repeat(count), out=last)
    sums = np.empty((B, z.size), dtype=zs.dtype)
    start = 0
    while start < z.size:
        stop = int(last.searchsorted(start, side="right"))
        n, i, pad = int(rows_of[stop - 1]), cont[start], None
        if i == cont[stop - 1]:
            fac = nodes[rows, i, :n, None]
        else:
            fac = nodes[rows[:, None], cont[start:stop], :n].transpose(0, 2, 1)
            if not real:
                pad = np.arange(n)[:, None] >= rows_of[start:stop]
        sums[:, start:stop] = _block_sums(fac, zs[start:stop], pad)
        start = stop
    sums *= step[cont]
    out = np.empty(sums.shape, dtype=complex)
    out[:, order] = sums
    return out


def _contour_values(alpha: float, table: dict, betas, z: np.ndarray,
                    todo: np.ndarray, vals: np.ndarray) -> None:
    """Set ``vals[i, j]`` to E_{alpha,b}(z_j), b = ``betas[i]``, wherever
    ``todo[i, j]``, by the contour integral.

    ``table`` maps a strength p0 (``_strength``) to its ``_Contours``, made
    here at its first use.  The poles come once for every point that some
    beta needs there, and the betas of one strength share one pass of
    ``_strength_values`` over the points that any of them needs.  Their
    values go into ``vals`` one row at a time, so no array of every beta's
    values is formed.
    """
    cols = np.flatnonzero(todo.any(axis=0))
    need, z = todo[:, cols], z[cols]
    poles, phi, bins = _singularities(alpha, z)
    groups = {}
    for i, (beta, some) in enumerate(zip(betas, need.any(axis=1))):
        if some:
            groups.setdefault(_strength(alpha, beta), []).append(i)
    for p0, members in groups.items():
        if p0 not in table:
            table[p0] = _Contours(alpha, p0)
        # one strength's betas need every point that any beta needs
        sel = need[members].any(axis=0) if len(groups) > 1 else None
        every = sel is None or sel.all()
        got = _strength_values(
            table[p0], [betas[i] for i in members],
            *((z, poles, phi, bins) if every
              else (z[sel], poles[sel], phi[sel], bins[sel])))
        at = cols if every else cols[sel]
        for r, i in enumerate(members):
            row = need[i] if every else need[i, sel]
            if row.all():
                vals[i, at] = got[r]
            else:
                vals[i, at[row]] = got[r, row]


def _strength_values(table: _Contours, betas, z, poles, phi,
                     bins) -> np.ndarray:
    """E_{alpha,b}(z) for nonzero z by the contour integral, one row per
    beta b of ``betas``, each of the strength of ``table``; ``poles``,
    ``phi`` and ``bins`` are ``_singularities(alpha, z)``.

    Points whose poles fall in the same bins share one contour of the
    table; every beta takes the same contours and adds the residues of
    the poles right of them, whose logarithms the betas share.
    """
    contour = table.contours(bins)
    real = z.imag == 0
    count = np.count_nonzero(real)
    # one pass for the real points, one for the complex ones; the real
    # sums are real, so their values are too until a residue is added
    if count in (0, z.size):
        out = _trapezoid(z, table, contour, count > 0, betas)
    else:
        out = np.empty((len(betas), z.size), dtype=complex)
        for kind, idx in ((True, np.flatnonzero(real)),
                          (False, np.flatnonzero(~real))):
            out[:, idx] = _trapezoid(z[idx], table, contour[idx], kind,
                                     betas)
    if poles.shape[1]:
        # residues of the poles right of the contour
        mu = table.mu[contour]
        shift = 1.0 - np.array([[float(b)] for b in betas])
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(poles.shape[1]):
                right = (phi[:, i] > mu) & (phi[:, i] < np.inf)
                s = poles[right, i]
                out[:, right] += np.exp(s + shift * np.log(s)) / table.alpha
        if count:
            out.imag[:, real] = 0.0
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
    if alpha not in (1.0, 2.0):
        return None
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

def ml_betas(alpha: float, betas, z, *,
             _table: dict | None = None) -> np.ndarray:
    """E_{alpha,b} for every beta b of ``betas`` over an array of complex
    arguments, in one pass: shape (len(betas),) + z.shape.

    Closed forms serve integer orders, the power series |z| <= 1 where it
    keeps its digits, and the contour integral every other point; a real
    z < 0 with 0 < beta <= alpha < 1 has no pole on the principal sheet and
    takes the shared pole-free contour, cheaper there than the series and
    as accurate (see the module docstring).  The betas share what depends
    on (alpha, z) alone: the points at 0, the pass of the series, the
    poles and, for the betas of one strength (``_strength``), the
    contours, the blocks of the trapezoidal rule and their denominators.  Each value depends on its own
    point and beta only, so it has the bits of a call of that beta alone.
    A real z whose value exceeds double range gives inf; a complex one
    raises OverflowBeyondRepresentableRange, for the first beta in order
    that has one.  The contours come from ``_table``, {p0: ``_Contours``},
    when a kernel passes the one it keeps for alpha, else from a table of
    this call's own.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    vals = np.empty((len(betas), flat.size), dtype=complex)
    todo = np.empty(vals.shape, dtype=bool)
    zero = flat == 0
    near = ~zero & (np.abs(flat) <= 1.0)
    series = np.empty(vals.shape, dtype=bool)
    for i, beta in enumerate(betas):
        todo[i] = ~zero
        vals[i, zero] = rgamma(beta)
        ident = _identity_path(alpha, beta, flat)
        if ident is not None:
            vals[i, ident[1]] = ident[0][ident[1]]
            todo[i] &= ~ident[1]
        np.logical_and(todo[i], near, out=series[i])
        if alpha < 1.0 and 0.0 < beta <= alpha:
            # no pole on the principal sheet: one shared contour is
            # cheaper than the series
            series[i] &= (flat.imag != 0) | (flat.real >= 0)
    # one series pass over every beta's points
    which, series = series.nonzero()
    if series.size:
        vs, es = _series_double(alpha, betas, flat[series], which)
        ok = es <= _SERIES_ACCEPT
        vals[which[ok], series[ok]] = vs[ok]
        todo[which[ok], series[ok]] = False
    if todo.any():
        _contour_values(alpha, {} if _table is None else _table, betas,
                        flat, todo, vals)
    lost = ~np.isfinite(vals) & (flat.imag != 0)
    if lost.any():
        i, j = np.argwhere(lost)[0]
        raise OverflowBeyondRepresentableRange(
            f"E_{{{alpha},{betas[i]}}}{complex(flat[j])} exceeds double "
            f"range")
    return vals.reshape((len(betas),) + z.shape)


def ml_scalar_array(alpha: float, beta: float, z) -> np.ndarray:
    """Vectorized E_{alpha,beta} over an array of complex arguments: the
    one-beta pass of ``ml_betas``."""
    return ml_betas(alpha, (beta,), z)[0]


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
    """(eigenvalues, rank-one factors O_k, cond(V)) of A; the factors are
    None for a near-defective basis.

    E(A) is sum_k f(lambda_k) O_k with O_k = v_k w_k^T built from the
    right/left eigenvectors when A is safely diagonalizable.  cond(V) is
    the one ``eig_basis`` computed, so a caller needs no second
    eigendecomposition to bound ||E(A)||_2 by cond(V) max_k |f(lambda_k)|.
    """
    lam, V, cond = eig_basis(A)
    if V is None:
        return lam, None, cond
    return lam, np.einsum("ik,kj->kij", V, np.linalg.inv(V)), cond


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


def _finite(alpha: float, beta: float, scale: np.ndarray,
            vals: np.ndarray) -> np.ndarray:
    """``vals``, one row per s in ``scale``; a row with a value beyond
    double range raises OverflowBeyondRepresentableRange."""
    lost = ~np.isfinite(vals).all(axis=1)
    if lost.any():
        raise OverflowBeyondRepresentableRange(
            f"E_{{{alpha},{beta}}}(A s) exceeds double range at "
            f"s = {float(scale[lost][0]):.6g}")
    return vals


def _eig_values(alpha: float, betas, lam: np.ndarray, scale: np.ndarray,
                table: dict | None = None) -> np.ndarray:
    """E_{alpha,b}(lambda_k s) for each beta b of ``betas``, every s in
    ``scale`` and eigenvalue lambda_k of a real matrix, shape (B, N, n):
    one ``ml_betas`` pass over every eigenvalue with Im lambda_k >= 0 times
    every s, its contours from ``table`` when given.  The other member of
    a conjugate pair takes the conjugate values, since E(conj z) = conj
    E(z) for real alpha, beta.  A value beyond double range raises
    OverflowBeyondRepresentableRange, for the first beta in order that has
    one."""
    upper = lam.imag >= 0
    vals = ml_betas(alpha, betas, np.multiply.outer(lam[upper], scale),
                    _table=table)
    if not upper.all():
        full = np.empty((len(betas), lam.size, scale.size), dtype=complex)
        full[:, upper] = vals
        # eig returns the pairs of a real matrix as exact conjugates
        pair = np.argmax(lam == lam[:, None].conj(), axis=1)
        full[:, ~upper] = full[:, pair[~upper]].conj()
        vals = full
    vals = vals.transpose(0, 2, 1)
    lost = ~np.isfinite(vals).all(axis=2)
    if lost.any():
        i = int(np.argmax(lost.any(axis=1)))
        _finite(alpha, betas[i], scale, vals[i])
    return vals


def _recombine(vals: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Re sum_k f_k O_k in real arithmetic, shape (N, n, n), from the
    values f_k (N, n) at the eigenvalues and the factors O_k of
    ``eig_factors``."""
    n = factors.shape[1]
    F = factors.reshape(factors.shape[0], n * n)
    out = vals.real @ F.real
    if np.iscomplexobj(F):
        out -= vals.imag @ F.imag
    return out.reshape(vals.shape[0], n, n)


def _ml_matrices(alpha: float, betas, A: np.ndarray, fac, scale: np.ndarray,
                 table: dict | None = None):
    """E_{alpha,b}(A s) for every s in ``scale``, one (N, n, n) array per
    beta b of ``betas``, in turn.

    ``fac`` is ``eig_factors(A)``: with factors, one ``_eig_values`` pass
    for every beta, recombined (``_recombine``) one beta at a time, so no
    stack of every beta's matrices is held; else the matrix series per s
    and beta.  An eigenvalue or a series value beyond double range raises
    OverflowBeyondRepresentableRange.
    """
    lam, factors, _ = fac
    n = A.shape[0]
    if factors is None:
        for beta in betas:
            vals = np.array([np.real(_ml_matrix_series(alpha, beta, A * s))
                             for s in scale]).reshape(scale.size, n * n)
            yield _finite(alpha, beta, scale, vals).reshape(scale.size, n, n)
        return
    for vals in _eig_values(alpha, betas, lam, scale, table):
        yield _recombine(vals, factors)


def ml_matrix(alpha: float, beta: float, A: np.ndarray, t: float) -> np.ndarray:
    """E_{alpha,beta}(A t^alpha) for a square matrix A and a finite time
    t >= 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be nonnegative and finite")
    A = np.asarray(A, dtype=float)
    return next(_ml_matrices(alpha, (beta,), A, eig_factors(A),
                             np.array([t ** alpha])))[0]
