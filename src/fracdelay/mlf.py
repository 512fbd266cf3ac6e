"""Gamma and Mittag-Leffler evaluation, scalar and matrix.

The two-parameter function E_{a,b}(z) = sum_l z^l / Gamma(a*l + b) is entire,
but summing it in double precision cancels catastrophically for a < 1 once z
is moderately large and negative.  Three regimes cover the plane:

* direct power series in double precision where the accumulated cancellation
  stays harmless (an a-posteriori estimate from the largest term);
* the large-|z| expansion combining the algebraic series
  -sum_k z^{-k}/Gamma(b - a*k) with the exponential branch terms
  (1/a) zeta^{1-b} e^zeta for every root zeta = |z|^{1/a} exp(i(arg z + 2 pi m)/a)
  lying inside the sector |arg z + 2 pi m| <= a*pi;
* the same power series summed in extended precision (mpmath) with the working
  precision sized to the observed cancellation, as a rescue for the narrow
  annulus where neither double-precision route meets the requested tolerance.

Exact reductions for integer orders (exp, cosh, sinh) are dispatched first;
they are identities of the series, not approximations.

Matrix arguments go through the eigendecomposition whenever the eigenvector
basis is well conditioned, otherwise through a truncated matrix power series
with a norm-based tail bound.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import gammaln, rgamma

from .errors import (OverflowBeyondRepresentableRange, PoleAtNonpositiveInteger,
                     SeriesNotConverged)

_EPS = 2.2204460492503131e-16


@dataclass(frozen=True)
class MlEvalConfig:
    rel_tol: float = 1e-12
    max_terms: int = 10_000
    spectral_threshold: float = 1e8

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_CONFIG = MlEvalConfig()


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, poles and overflow mapped to errors."""
    x = float(x)
    if x <= 0 and abs(x - round(x)) < 1e-14:
        raise PoleAtNonpositiveInteger(f"Gamma has a pole at {round(x)}")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise OverflowBeyondRepresentableRange(
            f"Gamma({x}) exceeds double range") from exc
    except ValueError as exc:  # pragma: no cover - guarded above
        raise PoleAtNonpositiveInteger(str(exc)) from exc


# ---------------------------------------------------------------------------
# power series, double precision, vectorized over z
# ---------------------------------------------------------------------------

def _series_double(alpha: float, beta: float, z: np.ndarray, rel_tol: float,
                   max_terms: int):
    """Sum the defining series for an array of z.

    Returns (values, rel_err_estimate, n_terms).  The error estimate is
    eps * (largest term magnitude) / |sum|, i.e. the cancellation noise floor.
    """
    z = np.asarray(z, dtype=complex)
    S = np.full(z.shape, complex(rgamma(beta)))
    zp = np.ones_like(z)
    maxabs = np.abs(S).copy()
    prev_abs = np.abs(S).copy()
    active = np.ones(z.shape, dtype=bool)
    calm = np.zeros(z.shape, dtype=int)   # consecutive small-and-shrinking terms
    stop_ell = np.zeros(z.shape, dtype=int)
    ell = 0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        while np.any(active) and ell < max_terms:
            ell += 1
            zp = zp * z
            term = zp * rgamma(alpha * ell + beta)
            S = np.where(active, S + term, S)
            ta = np.abs(term)
            maxabs = np.where(active, np.maximum(maxabs, ta), maxabs)
            small = ta <= rel_tol * np.maximum(np.abs(S), 1e-300)
            shrinking = ta < prev_abs
            calm = np.where(active & small & shrinking, calm + 1, 0)
            prev_abs = np.where(active, ta, prev_abs)
            done = calm >= 3
            bad = ~np.isfinite(ta)
            newly_stopped = active & (done | bad)
            stop_ell = np.where(newly_stopped, ell, stop_ell)
            active &= ~(done | bad)
    stop_ell = np.where(active, ell, stop_ell)
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
        # points still active hit the cap
        rel_err = np.where(active, np.inf, rel_err)
    return S, rel_err, ell


# ---------------------------------------------------------------------------
# large-|z| expansion
# ---------------------------------------------------------------------------

def _asymptotic(alpha: float, beta: float, z: np.ndarray):
    """Algebraic tail plus in-sector exponential branch terms.

    Valid for 0 < alpha; self-reports accuracy through the smallest retained
    algebraic term (classic optimal truncation of a divergent expansion).
    """
    z = np.asarray(z, dtype=complex)
    absz = np.abs(z)
    S = np.zeros(z.shape, dtype=complex)
    # algebraic part: -sum_k z^{-k} / Gamma(beta - alpha k), truncate at the
    # smallest term
    zinv = np.where(absz > 0, 1.0 / z, 0.0)
    zp = np.ones_like(z)
    best = np.full(z.shape, np.inf)
    frozen = np.zeros(z.shape, dtype=bool)
    kmax = min(2 + int(200 / max(alpha, 0.1)), 400)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for k in range(1, kmax + 1):
            x = beta - alpha * k
            rg = rgamma(x)
            # envelope of |1/Gamma(x)| without the reflection sine factor,
            # whose dips would otherwise fake an early optimal truncation
            if x < 0.5:
                g_env = math.exp(min(700.0, gammaln(1.0 + alpha * k - beta))) / math.pi
            else:
                g_env = abs(rg)
            zp = zp * zinv
            # power underflow or envelope overflow: expansion exhausted
            dead = (np.abs(zp) == 0.0) | ~np.isfinite(g_env)
            frozen |= dead
            term = np.where(dead, 0.0, -zp * rg)
            env = np.abs(zp) * g_env
            growing = env > best
            frozen |= growing
            S = np.where(frozen, S, S + term)
            best = np.where(frozen, best,
                            np.minimum(best, np.where(env > 0, env, best)))
            if np.all(frozen) or np.all(best < 1e-320):
                break
    err_abs = np.where(np.isfinite(best), best, 0.0)
    # exponential branch terms
    theta = np.angle(z)
    mmax = int(alpha) + 2
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for m in range(-mmax, mmax + 1):
            th = theta + 2.0 * np.pi * m
            sector = np.abs(th) <= alpha * np.pi + 1e-12
            if not np.any(sector):
                continue
            zeta = absz ** (1.0 / alpha) * np.exp(1j * th / alpha)
            contrib = (zeta ** (1.0 - beta)) * np.exp(zeta) / alpha
            S = np.where(sector, S + contrib, S)
    absS = np.abs(S)
    rel_err = np.where(absS > 0, err_abs / np.maximum(absS, 1e-300) + 4 * _EPS,
                       np.inf)
    rel_err = np.where(absz >= 1.0, rel_err, np.inf)   # expansion needs |z| > 1
    return S, rel_err


# ---------------------------------------------------------------------------
# extended-precision rescue
# ---------------------------------------------------------------------------

# least recently used (alpha, beta, dps) ladders; a fixed number is kept,
# since working precisions vary per point and a ladder can hold 200k terms
_MP_LADDER_SLOTS = 32
_MP_LADDERS: OrderedDict = OrderedDict()


def _mp_ladder(alpha: float, beta: float, dps: int, count: int):
    key = (alpha, beta, dps)
    lst = _MP_LADDERS.setdefault(key, [])
    _MP_LADDERS.move_to_end(key)
    if len(_MP_LADDERS) > _MP_LADDER_SLOTS:
        _MP_LADDERS.popitem(last=False)
    if len(lst) < count:
        with mp.workdps(dps):
            a, b = mp.mpf(alpha), mp.mpf(beta)
            for ell in range(len(lst), count):
                # argument formed in mp arithmetic: a double-rounded
                # alpha*ell + beta would poison heavily cancelled sums
                lst.append(mp.rgamma(a * ell + b))
    return lst


def _series_mp(alpha: float, beta: float, z: complex, rel_tol: float,
               max_terms: int, extra_digits: int) -> complex:
    """Sum the series with working precision sized to the cancellation."""
    digits = min(400, 25 + max(0, extra_digits))
    # the term count needed grows like |z|^(1/alpha)/alpha, independent of the
    # caller's cap meant for the double-precision path
    max_terms = max(max_terms,
                    min(200_000, int(8 * abs(z) ** (1.0 / alpha)) + 500))
    for _ in range(2):
        with mp.workdps(digits):
            zc = mp.mpc(z)
            ladder = _mp_ladder(alpha, beta, digits, 64)
            S = mp.mpc(ladder[0])
            zp = mp.mpc(1)
            maxabs = abs(S)
            calm = 0
            prev = abs(S)
            for ell in range(1, max_terms):
                if ell >= len(ladder):
                    ladder = _mp_ladder(alpha, beta, digits,
                                        min(max_terms, 2 * len(ladder)))
                zp *= zc
                term = zp * ladder[ell]
                S += term
                ta = abs(term)
                maxabs = max(maxabs, ta)
                if ta <= mp.mpf(rel_tol) * abs(S) and ta < prev:
                    calm += 1
                    if calm >= 3:
                        break
                else:
                    calm = 0
                prev = ta
            else:
                raise SeriesNotConverged(
                    f"series for E_{{{alpha},{beta}}}({z}) hit {max_terms} terms")
            need = 25 + int(mp.log10(maxabs / abs(S))) if abs(S) > 0 else digits
            val = complex(S)
        if need <= digits:
            return val
        digits = min(400, need + 10)
    return val


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

def _update_best(vals, err, mask, v_sub, e_sub):
    idx = np.where(mask)[0]
    imp = e_sub < err[idx]
    vals[idx[imp]] = v_sub[imp]
    err[idx[imp]] = e_sub[imp]


def ml_scalar_array(alpha: float, beta: float, z, rel_tol: float = 1e-12,
                    max_terms: int = 10_000, allow_mp: bool = True) -> np.ndarray:
    """Vectorized E_{alpha,beta} over an array of complex arguments.

    With ``allow_mp=False`` the extended-precision rescue is skipped and the
    best double-precision candidate is returned; in the narrow annulus where
    series cancellation and expansion truncation meet, accuracy then bottoms
    out around 1e-8.  Bulk quadrature uses this mode and treats the residue
    as an evaluation noise floor.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)

    ident = _identity_path(alpha, beta, z)
    if ident is not None and ident[1].all():
        return ident[0]

    flat = z.ravel()
    vals = np.full(flat.shape, np.nan, dtype=complex)
    err = np.full(flat.shape, np.inf)

    zero = flat == 0
    vals[zero] = complex(rgamma(beta))
    err[zero] = 0.0
    settled = zero.copy()
    if ident is not None:
        closed = ident[1].ravel()
        vals[closed] = ident[0].ravel()[closed]
        err[closed] = 0.0
        settled |= closed

    # expansion first for clearly large arguments, series for the rest,
    # each route scored by its own error estimate
    big = ~settled & (np.abs(flat) >= 4.0)
    if np.any(big):
        va, ea = _asymptotic(alpha, beta, flat[big])
        _update_best(vals, err, big, va, ea)

    need = err > rel_tol
    if np.any(need):
        vs, es, _ = _series_double(alpha, beta, flat[need], rel_tol, max_terms)
        _update_best(vals, err, need, vs, es)

    need = (err > rel_tol) & (np.abs(flat) >= 1.5) & ~big
    if np.any(need):
        va, ea = _asymptotic(alpha, beta, flat[need])
        _update_best(vals, err, need, va, ea)

    # extended-precision rescue for whatever is left
    need = (err > max(rel_tol, 1e-13)) if allow_mp else np.zeros(flat.shape, bool)
    for idx in np.where(need)[0]:
        mag = abs(vals[idx]) if np.isfinite(vals[idx]) else 0.0
        extra = 60 if mag == 0 else int(
            max(0.0, math.log10(max(err[idx], 1e-300) / _EPS)) + 10)
        vals[idx] = _series_mp(alpha, beta, complex(flat[idx]),
                               min(rel_tol, 1e-14), max_terms, extra)
        err[idx] = rel_tol

    out.ravel()[:] = vals
    return out


def ml_scalar(alpha: float, beta: float, z: complex,
              cfg: MlEvalConfig = DEFAULT_CONFIG) -> complex:
    """Two-parameter Mittag-Leffler function at a single point."""
    return complex(ml_scalar_array(alpha, beta, np.array([z]), cfg.rel_tol,
                                   cfg.max_terms)[0])


# ---------------------------------------------------------------------------
# matrix arguments
# ---------------------------------------------------------------------------

def eig_factors(A: np.ndarray, spectral_threshold: float):
    """(eigenvalues, rank-one factors O_k) when A is safely diagonalizable.

    E(A) is then sum_k f(lambda_k) O_k with O_k = v_k w_k^T built from the
    right/left eigenvectors; returns None for a near-defective basis.
    """
    A = np.asarray(A, dtype=float)
    lam, V = np.linalg.eig(A)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond >= spectral_threshold:
        return None
    Vinv = np.linalg.inv(V)
    factors = np.einsum("ik,kj->kij", V, Vinv)
    return lam, factors


def _ml_matrix_series(alpha: float, beta: float, M: np.ndarray, rel_tol: float,
                      max_terms: int) -> np.ndarray:
    """Truncated power series.  A non-finite term, or a cancellation estimate
    (eps times the largest term norm over the sum's norm, as in
    ``_series_double``) above max(rel_tol, 1e-8) raises SeriesNotConverged.
    """
    n = M.shape[0]
    S = np.eye(n) * rgamma(beta)
    P = np.eye(n)
    norm_prev = np.inf
    largest = np.linalg.norm(S, ord="fro")
    calm = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for ell in range(1, max_terms):
            P = P @ M
            term = P * rgamma(alpha * ell + beta)
            S = S + term
            tn = np.linalg.norm(term, ord="fro")
            sn = np.linalg.norm(S, ord="fro")
            largest = max(largest, tn)
            small = tn <= rel_tol * max(sn, 1e-300) and tn < norm_prev
            calm = calm + 1 if small else 0
            norm_prev = tn
            if calm >= 3 or not np.isfinite(tn):
                break
        else:
            raise SeriesNotConverged(f"matrix series for E_{{{alpha},{beta}}} "
                                     f"hit {max_terms} terms")
    if not np.isfinite(tn) or _EPS * largest > max(rel_tol, 1e-8) * sn:
        raise SeriesNotConverged(
            f"matrix series for E_{{{alpha},{beta}}} lost its digits: "
            f"largest term norm {largest:.3g}, sum norm {sn:.3g}")
    return S


def ml_matrix(alpha: float, beta: float, A: np.ndarray, t: float,
              cfg: MlEvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """E_{alpha,beta}(A t^alpha) for a square matrix A and time t >= 0."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    A = np.asarray(A, dtype=float)
    scale = t ** alpha
    fac = eig_factors(A, cfg.spectral_threshold)
    if fac is not None:
        lam, factors = fac
        f = ml_scalar_array(alpha, beta, lam * scale, cfg.rel_tol, cfg.max_terms)
        E = np.einsum("k,kij->ij", f, factors)
        return np.real(E)
    return np.real(_ml_matrix_series(alpha, beta, A * scale, cfg.rel_tol,
                                     cfg.max_terms))
