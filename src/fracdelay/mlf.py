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
  is below 1e-13, else the point goes to the contour.  Its terms come in
  blocks for every point still summing, ``_TERM_BLOCK`` = 10 terms at a
  time or, for a call of at most 372 points, as many as make 2^12
  elements, up to 30, as (terms x points) arrays in real arithmetic when
  every z is real, with one stop test per block and the bits of a
  term-by-term loop;
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
  key is its row of pole bins packed into one integer, 16 bits a pole.
  The node factors of a call's new contours are computed in one pass and
  kept as one (factors x contours x nodes) array per kind of point,
  padded past each contour's last node.  A call's terms come in one pass
  for its real points and one for its complex ones, whatever the number
  of contours: the points, ordered by node count and contour, are cut
  into (nodes x points) blocks of at
  most 2^14 elements, each padded to the most nodes among its own points,
  so memory beyond the output is bounded by the block, not by the number
  of points.  Contours are kept per kernel and per beta: a
  ``kernels.Kernels`` object holds one table per beta of the contours and
  node factors it has met, so the levels of its quadrature and its other
  kernels build only the contours they are missing; a direct
  ``ml_scalar_array`` call builds a table of its own, dropped with the
  call.  A value does not depend on what the table held.

The evaluator has one accuracy, set by no argument.  Against a 30-digit
series for alpha in 0.3..1.8 and the betas 1, alpha, alpha + 1, alpha + 2,
the measured error is at most 3.3e-14 absolute where |E| <= 1, and that
much relative above, on |z| <= 1 as everywhere else.

Matrix arguments go through the eigendecomposition whenever the eigenvector
basis is well conditioned (condition number below ``SPECTRAL_THRESHOLD``),
the real part of sum_k E(lambda_k s) O_k recombined in real arithmetic,
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

def _series_double(alpha: float, beta: float, z: np.ndarray):
    """Sum the defining series for a 1-D array of z.

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
    g0 = rgamma(beta)
    S = np.empty(z.shape, dtype=z.dtype)
    maxabs = np.empty(z.shape)
    stop_ell = np.full(z.shape, _MAX_TERMS)
    # the points still summing: index, z, z^ell, partial sum, largest and
    # last term magnitude, small-and-shrinking flags of the last two terms
    live, zl, zp = np.arange(z.size), z, np.ones_like(z)
    Sl, big = np.full(z.shape, g0, dtype=z.dtype), np.full(z.shape, abs(g0))
    prev, calm = big, np.zeros((2, z.size), dtype=bool)
    ell = 0
    terms = min(max(_TERM_BLOCK, _BLOCK // (4 * max(z.size, 1))),
                3 * _TERM_BLOCK)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        while live.size and ell < _MAX_TERMS:
            nb = min(terms, _MAX_TERMS - ell)
            gam = np.array([rgamma(alpha * k + beta)
                            for k in range(ell + 1, ell + nb + 1)])
            # row 0 of each array holds what the previous block left
            P = np.empty((nb + 1, live.size), dtype=z.dtype)
            P[0] = zp
            for j in range(nb):
                np.multiply(P[j], zl, out=P[j + 1])
            sums = np.empty_like(P)
            sums[0] = Sl
            np.multiply(P[1:], gam[:, None], out=sums[1:])
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
                live, zl, zp, Sl = live[keep], zl[keep], zp[keep], Sl[keep]
                big, prev, calm = big[keep], prev[keep], calm[:, keep]
            ell += nb
        # points still summing hit the cap
        S[live], maxabs[live] = Sl, big
        absS = np.abs(S)
        # each term also carries the rounding of its Gamma argument
        # alpha*ell + beta, amplified by psi(x) ~ ln(x)
        x_end = alpha * stop_ell.astype(float) + abs(beta)
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


def _contours(alpha: float, beta: float, bins: np.ndarray):
    """Garrappa's contour for each row of pole bins: (mu, h, N).

    Region r lies between singularity r and r + 1 (0 is the origin, poles
    in order); the one needing the fewest nodes wins, and the target
    accuracy is relaxed tenfold while every region needs more than 200.
    A pole enters as the edge of its bin that is nearer the contour, so the
    true singularities are never closer to it than the rule assumed.
    """
    U, m = bins.shape
    p0 = max(0.0, 2.0 * (beta - alpha - 1.0))   # strength of the origin
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


# the node factors past a contour's last node, for real z (c, cd, d, dd),
# whose terms (c (d - x) - cd) / ((d - x)^2 + dd) = -0 / (x^2 + 1) are
# zero, and for complex z (c, d), whose terms _block_sums makes 0 / 1
_PAD = {True: np.array([0.0, 0.0, 0.0, 1.0])[:, None, None],
        False: np.zeros((2, 1, 1), dtype=complex)}


class _ContourTable:
    """The contours of one E_{alpha,beta} met so far, and their node factors.

    A contour is keyed by its row of pole bins packed into one integer, 16
    bits per pole from the nearest up and a missing pole as 0, so the
    padding of rows with fewer poles changes neither key nor contour.  The
    table keeps its (mu, h, N) and, once a point has used it, its node
    factors for real z (c, cd, d, dd) or for complex z (c, d): per kind of
    point one (factors x contours x nodes) array, row i contour i's,
    padded past its last node.  A value does not depend on what the table
    held.
    """

    def __init__(self, alpha: float, beta: float):
        self.alpha, self.beta = alpha, beta
        self.mu, self.h = np.empty(0), np.empty(0)
        self.N = np.empty(0, dtype=int)
        self._index = {}    # packed bins -> contour number
        # real -> (node factors, mask of the contours that have them)
        self._nodes = {real: (np.empty((pad.shape[0], 0, 0), dtype=pad.dtype),
                              np.empty(0, dtype=bool))
                       for real, pad in _PAD.items()}

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
            mu, h, N = _contours(self.alpha, self.beta, bins[first[new]])
            self._index.update(zip((keys[u] for u in new),
                                   range(self.mu.size, self.mu.size + len(new))))
            self.mu = np.concatenate((self.mu, mu))
            self.h = np.concatenate((self.h, h))
            self.N = np.concatenate((self.N, N))
        return np.array([self._index[k] for k in keys])[inverse]

    def nodes(self, contour: np.ndarray, real: bool) -> np.ndarray:
        """Node factors of the table's contours for one kind of point, a
        (factors x contours x nodes) array, after building those of the
        contours in ``contour`` that lack them, all in one pass.

        c and d = s^a give the terms c / (d - z), nodes s = mu (1 + ihk)^2
        with |k| <= N, row i from column 0 at k = -N; for real z only
        k >= 0, from column 0 at k = 0, with c doubled past k = 0 and split
        into c = Im c, cd = Re c Im d, d = Re d and dd = (Im d)^2.  Columns
        past a contour's last node hold ``_PAD``, whose terms are exactly
        zero.
        """
        nodes, have = self._nodes[real]
        if have.size < self.N.size:
            have = np.concatenate((have, np.zeros(self.N.size - have.size,
                                                  dtype=bool)))
        lack = contour[~have[contour]]
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
            c = np.exp(s + (self.alpha - self.beta) * ls) * (2j * mu * w)
            d = np.exp(self.alpha * ls)
            if real:
                c[k > 0] *= 2.0
                vals = (c.imag, c.real * d.imag, d.real, d.imag * d.imag)
            else:
                vals = (c, d)
            grown = np.empty((len(vals), self.N.size, width),
                             dtype=float if real else complex)
            grown[...] = _PAD[real]
            grown[:, :nodes.shape[1], :nodes.shape[2]] = nodes
            grown[:, col, row] = vals
            nodes = grown
            have[new] = True
        self._nodes[real] = (nodes, have)
        return nodes


def _block_sums(fac: np.ndarray, z: np.ndarray,
                pad: np.ndarray | None = None) -> np.ndarray:
    """Trapezoid sums over the nodes of one block: the rows of the
    (nodes x points) terms, summed in ascending k.

    ``fac`` holds the block's nodes of the ``_ContourTable.nodes`` factors
    for real z (c, cd, d, dd) or for complex z (c, d), as (factors x nodes
    x points): one column shared by every point, or one column per point.
    ``pad`` marks the terms of complex z past a point's own last node,
    whose denominators are set to 1: with c = 0 there, 0 / 1 is exactly
    zero, where 0 / (0 - z) is NaN for a z of subnormal size.
    """
    # a point at 0 pads a one-column block to two; numpy sums the rows of a
    # C-contiguous block of two columns or more in order, of a one-column
    # or column-major one pairwise
    zs = np.append(z, 0.0) if z.size == 1 else z
    if len(fac) == 4:
        # Im c / (d - x) = (Im c (Re d - x) - Re c Im d) / |d - x|^2
        c, cd, d, dd = fac
        # gathered columns come transposed: C order keeps the sum in order
        e = np.subtract(d, zs, order="C")
        # in place: fewer temporaries of the block's size
        t = np.multiply(c, e, order="C")
        t -= cd
        e *= e
        e += dd
        t /= e
    else:
        c, d = fac
        e = np.subtract(d, zs, order="C")
        if pad is not None:
            e[pad] = 1.0
        t = np.divide(c, e, out=e)
    return np.add.reduce(t, axis=0)[:z.size]


def _trapezoid(z: np.ndarray, table: _ContourTable, contour: np.ndarray,
               real: bool) -> np.ndarray:
    """h/(2 pi i) sum_k e^s s^(a-b) s' / (s^a - z), nodes s = mu (1 + ihk)^2,
    |k| <= N, for every point of ``z`` on its contour of ``table``, whose
    number ``contour`` holds; every point real or every one complex.

    One pass for every contour of the call: the points are ordered by node
    count, then by contour, and cut into (nodes x points) blocks of at most
    ``_BLOCK`` elements, each padded to the most nodes among its own
    points.  A contour whose points make ``_BLOCK`` / 8 elements or more
    takes blocks of its own, which broadcast its factor column: at that
    size one more block costs less than gathering its columns.  The points
    of the other contours share blocks, which gather their columns.  The
    padded terms are exactly zero and each point's own are summed in
    ascending k, so a value does not depend on the batch, and memory
    beyond the output is bounded by the block.  For real z the nodes k and
    -k are conjugate: only k >= 0 is summed, and only the imaginary part,
    in real arithmetic.
    """
    nodes = table.nodes(contour, real)
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
    rows = size[run].repeat(count)
    # the block from point i holds the points j from i on with
    # (j - i + 1) rows[j] <= _BLOCK, i.e. last[j] <= i: last increases
    last = np.arange(1, z.size + 1) - (_BLOCK // size[run]).repeat(count)
    if run.size > 1:
        # a block also starts at each run that takes blocks of its own and
        # at the run after it
        own = 8 * count * size[run] >= _BLOCK
        own[1:] |= own[:-1]
        begin = np.maximum.accumulate((count.cumsum() - count) * own)
        np.maximum(last, begin.repeat(count), out=last)
    sums = np.empty(z.size, dtype=zs.dtype)
    start = 0
    while start < z.size:
        stop = int(last.searchsorted(start, side="right"))
        n, i, pad = int(rows[stop - 1]), cont[start], None
        if i == cont[stop - 1]:
            fac = nodes[:, i, :n, None]
        else:
            fac = nodes[:, cont[start:stop], :n].transpose(0, 2, 1)
            if not real:
                pad = np.arange(n)[:, None] >= rows[start:stop]
        sums[start:stop] = _block_sums(fac, zs[start:stop], pad)
        start = stop
    out = np.empty_like(sums)
    out[order] = step[cont] * sums
    return out


def _contour_values(table: _ContourTable, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for nonzero z by the contour integral, alpha and
    beta those of ``table``.

    Points whose poles fall in the same bins share one contour of the table.
    """
    alpha, beta = table.alpha, table.beta
    poles, phi, bins = _singularities(alpha, z)
    contour = table.contours(bins)
    real = z.imag == 0
    out = np.empty(z.size, dtype=complex)
    # one pass for the real points, one for the complex ones
    for kind, sel in ((True, real), (False, ~real)):
        if sel.all():
            out[:] = _trapezoid(z, table, contour, kind)
        elif sel.any():
            idx = np.flatnonzero(sel)
            out[idx] = _trapezoid(z[idx], table, contour[idx], kind)
    # residues of the poles right of the contour
    mu = table.mu[contour]
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

def ml_scalar_array(alpha: float, beta: float, z, *,
                    _table: _ContourTable | None = None) -> np.ndarray:
    """Vectorized E_{alpha,beta} over an array of complex arguments.

    Closed forms serve integer orders, the power series |z| <= 1 where it
    keeps its digits, and the contour integral every other point; a real
    z < 0 with 0 < beta <= alpha < 1 has no pole on the principal sheet and
    takes the shared pole-free contour, cheaper there than the series and
    as accurate (see the module docstring).  Each value depends on its own
    point only.  A real z whose value exceeds double range gives inf; a
    complex one raises OverflowBeyondRepresentableRange.  The contours come
    from ``_table`` when a kernel passes the one it keeps for (alpha, beta),
    else from a table of this call's own.
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
        vs, es = _series_double(alpha, beta, flat[near])
        ok = es <= _SERIES_ACCEPT
        vals[near[ok]] = vs[ok]
        todo[near[ok]] = False
    if todo.any():
        if _table is None:
            _table = _ContourTable(alpha, beta)
        vals[todo] = _contour_values(_table, flat[todo])
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


def _eig_values(alpha: float, beta: float, lam: np.ndarray,
                scale: np.ndarray, table: _ContourTable | None = None
                ) -> np.ndarray:
    """E_{alpha,beta}(lambda_k s) for every s in ``scale`` and eigenvalue
    lambda_k of a real matrix, shape (N, n): one scalar call over every
    eigenvalue with Im lambda_k >= 0 times every s, its contours from
    ``table`` when given.  The other member of a conjugate pair takes the
    conjugate values, since E(conj z) = conj E(z) for real alpha, beta.
    A value beyond double range raises OverflowBeyondRepresentableRange."""
    upper = lam.imag >= 0
    vals = np.empty((lam.size, scale.size), dtype=complex)
    vals[upper] = ml_scalar_array(alpha, beta, np.multiply.outer(
        lam[upper], scale), _table=table)
    # eig returns the pairs of a real matrix as exact conjugates
    pair = np.argmax(lam == lam[:, None].conj(), axis=1)
    vals[~upper] = vals[pair[~upper]].conj()
    return _finite(alpha, beta, scale, vals.T)


def _ml_matrices(alpha: float, beta: float, A: np.ndarray, fac,
                 scale: np.ndarray, table: _ContourTable | None = None
                 ) -> np.ndarray:
    """E_{alpha,beta}(A s) for every s in ``scale``, shape (N, n, n).

    ``fac`` is ``eig_factors(A)``: with factors, the eigenvalue values of
    ``_eig_values`` and Re sum_k f_k O_k in real arithmetic; else the
    matrix series per s.  An eigenvalue term (recombined, inf - inf or inf
    times 0) or a series value beyond double range raises
    OverflowBeyondRepresentableRange.
    """
    lam, factors, _ = fac
    n = A.shape[0]
    if factors is None:
        vals = np.array([np.real(_ml_matrix_series(alpha, beta, A * s))
                         for s in scale]).reshape(scale.size, n * n)
        return _finite(alpha, beta, scale, vals).reshape(scale.size, n, n)
    vals = _eig_values(alpha, beta, lam, scale, table)
    F = factors.reshape(lam.size, n * n)
    out = vals.real @ F.real
    if np.iscomplexobj(F):
        out -= vals.imag @ F.imag
    return out.reshape(scale.size, n, n)


def ml_matrix(alpha: float, beta: float, A: np.ndarray, t: float) -> np.ndarray:
    """E_{alpha,beta}(A t^alpha) for a square matrix A and time t >= 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    A = np.asarray(A, dtype=float)
    return _ml_matrices(alpha, beta, A, eig_factors(A),
                        np.array([t ** alpha]))[0]
