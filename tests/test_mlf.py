import inspect
import math
import os
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import erfc, gammaln

import fracdelay
from fracdelay import Kernels, gamma_fn, ml_matrix, ml_scalar, mlf
from fracdelay.errors import (OverflowBeyondRepresentableRange,
                              PoleAtNonpositiveInteger, SeriesNotConverged)
from fracdelay.certificates import DEFAULT_DELTA_GRID
from fracdelay.kernels import norm_series_ml
from fracdelay.mlf import (_ml_matrix_series, _series_double, lgamma,
                          ml_scalar_array, rgamma)


def ml_reference(alpha, beta, z):
    """Independent extended-precision sum with exact ladder arguments."""
    az = abs(z)
    lstar = max(10, int(az ** (1.0 / alpha) / alpha) + 10)
    lnmax = 0.0
    for ell in range(1, 3 * lstar, max(1, lstar // 40)):
        x = alpha * ell + beta
        if x > 0:
            lnmax = max(lnmax, ell * math.log(max(az, 1e-300)) - math.lgamma(x))
    dps = int(lnmax / math.log(10)) + 30
    with mp.workdps(dps):
        am, bm = mp.mpf(alpha), mp.mpf(beta)
        s = mp.mpc(0)
        zp = mp.mpc(1)
        calm, prev = 0, mp.inf
        for ell in range(200000):
            t = zp * mp.rgamma(am * ell + bm)
            s += t
            zp *= z
            ta = abs(t)
            if ta < mp.mpf(10) ** (-dps + 10) * max(abs(s), mp.mpf("1e-60")) \
                    and ta < prev:
                calm += 1
                if calm >= 3:
                    break
            else:
                calm = 0
            prev = ta
        return complex(s)


def per_term_series(alpha, beta, z):
    """The |z| <= 1 power series term by term, every point in complex
    arithmetic and its own stop test after each term: the bit-for-bit
    reference of ``mlf._series_double``'s blocks.  Reads ``mlf._MAX_TERMS``
    at call time."""
    z = np.asarray(z, dtype=complex)
    S = np.full(z.shape, complex(rgamma(beta)))
    maxabs = np.abs(S)
    stop_ell = np.zeros(z.shape, dtype=int)
    live, zl, zp, Sl = np.arange(z.size), z, np.ones_like(z), S.copy()
    big, prev, calm = maxabs.copy(), maxabs.copy(), np.zeros(z.shape, int)
    ell = 0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        while live.size and ell < mlf._MAX_TERMS:
            ell += 1
            zp = zp * zl
            term = zp * rgamma(alpha * ell + beta)
            Sl = Sl + term
            ta = np.abs(term)
            big = np.maximum(big, ta)
            small = ta <= mlf._EPS * np.maximum(np.abs(Sl), 1e-300)
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
        absS = np.abs(S)
        x_end = alpha * stop_ell.astype(float) + abs(beta)
        noise = mlf._EPS * (1.0 + x_end * np.log(x_end + 2.0))
        rel_err = np.where(np.isfinite(absS) & (absS > 0),
                           noise * maxabs / np.maximum(absS, 1e-300), np.inf)
        rel_err = np.where(np.isfinite(S.real) & np.isfinite(S.imag),
                           rel_err, np.inf)
    rel_err[live] = np.inf
    return S, rel_err


def assert_series_bits(alpha, beta, z):
    """``_series_double`` gives the reference's error estimates and its
    finite values bit for bit; a real batch gives real values.  Where the
    reference value is not finite (its estimate is inf, so it is never
    used) a real batch's value is only non-finite: complex arithmetic turns
    inf * 0 into NaN parts that real arithmetic does not have."""
    vals, err = _series_double(alpha, beta, z)
    ref, ref_err = per_term_series(alpha, beta, z)
    assert err.tolist() == ref_err.tolist()
    if np.iscomplexobj(vals):
        assert np.array_equal(vals, ref, equal_nan=True)
        return
    assert not np.asarray(z).imag.any()
    fin = np.isfinite(ref)
    assert vals[fin].tolist() == ref[fin].real.tolist()
    assert not ref[fin].imag.any()
    assert not np.isfinite(vals[~fin]).any()


class TestSeriesBlocks:
    """The |z| <= 1 series sums ``_TERM_BLOCK`` terms at a time for every
    point still summing; each point keeps the sum, error estimate and stop
    term of a term-by-term loop."""

    @pytest.mark.parametrize("alpha", [0.3, 0.55, 0.8, 1.0, 1.3, 1.6, 1.9])
    def test_bits_of_the_per_term_loop(self, alpha):
        rng = np.random.default_rng(int(alpha * 100))
        real = rng.uniform(-1.0, 1.0, 40)
        radius, angle = rng.uniform(0, 1, 40), rng.uniform(-np.pi, np.pi, 40)
        cplx = radius * np.exp(1j * angle)
        for beta in (alpha, 1.0, alpha + 1.0, alpha + 2.0, 0.5):
            for z in (real + 0j, cplx, np.concatenate((real[:20],
                                                       cplx[:20]))):
                assert_series_bits(alpha, beta, z)

    @pytest.mark.parametrize("alpha, beta", [(0.7, 1.0), (0.7, 1.7),
                                             (1.3, 1.3)])
    def test_wide_batches(self, alpha, beta):
        rng = np.random.default_rng(3)
        real = rng.uniform(-1.0, 1.0, 2000)
        cplx = real[:600] * np.exp(1j * rng.uniform(0.0, 3.0, 600))
        assert_series_bits(alpha, beta, real + 0j)
        assert_series_bits(alpha, beta, cplx)

    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.3, 1.9])
    def test_points_of_several_betas_keep_their_bits(self, alpha):
        # one pass over the points of every beta, each at its own beta,
        # gives a point the sum and estimate of its own beta's pass
        rng = np.random.default_rng(int(alpha * 10))
        real = rng.uniform(-1.0, 1.0, 30)
        cplx = rng.uniform(0, 1, 30) * np.exp(1j * rng.uniform(-3, 3, 30))
        betas = (1.0, alpha, alpha + 1.0, alpha + 2.0)
        for z in (real + 0j, np.concatenate((real, cplx))):
            which = rng.integers(0, len(betas), z.size)
            vals, err = _series_double(alpha, betas, z, which)
            for i, beta in enumerate(betas):
                own = which == i
                one, one_err = _series_double(alpha, beta, z[own])
                assert err[own].tolist() == one_err.tolist(), beta
                assert vals[own].tolist() == one.tolist(), beta

    @pytest.mark.parametrize("cap", [25, 30])
    def test_term_cap(self, monkeypatch, cap):
        # a cap inside a block and one at its end; points stop before, at
        # and past the cap, whose error estimate is inf
        monkeypatch.setattr(mlf, "_MAX_TERMS", cap)
        zs = np.concatenate((-np.geomspace(1e-3, 1.0, 30), [0.3j, -0.9j]))
        for alpha in (0.3, 0.9, 1.5):
            assert_series_bits(alpha, 1.0, zs.real + 0j)
            assert_series_bits(alpha, 1.0, zs)
            assert np.isinf(_series_double(0.3, 1.0, zs)[1]).any()

    def test_non_finite_terms(self):
        # powers and Gamma values beyond double range stop a point at that
        # term, with an infinite error estimate
        real = np.array([0.5, 5.0, -30.0, 1e200, -1e200, np.inf, -np.inf,
                         np.nan], dtype=complex)
        mixed = np.concatenate((real, [3.0 + 4.0j, 1e300j,
                                       complex(0, np.nan)]))
        for alpha in (0.5, 1.5):
            for beta in (1.0, -171.5, -200.5):
                assert_series_bits(alpha, beta, real)
                assert_series_bits(alpha, beta, mixed)
                assert np.isinf(_series_double(alpha, beta, real)[1][3:]).all()

    def test_empty_batch(self):
        vals, err = _series_double(0.7, 1.0, np.array([], dtype=complex))
        assert vals.size == err.size == 0


class TestGamma:
    def test_known_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(5.0) == 24.0

    def test_negative_noninteger(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        assert gamma_fn(-0.5) == pytest.approx(-2 * math.sqrt(math.pi),
                                               rel=1e-13)

    def test_pole(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            gamma_fn(0.0)
        with pytest.raises(PoleAtNonpositiveInteger):
            gamma_fn(-3.0)

    def test_overflow(self):
        with pytest.raises(OverflowBeyondRepresentableRange):
            gamma_fn(500.0)

    def test_accuracy_sweep(self):
        for x in np.geomspace(0.1, 170, 60):
            with mp.workdps(30):
                ref = float(mp.gamma(x))
            assert gamma_fn(float(x)) == pytest.approx(ref, rel=1e-13)


class TestStdlibGamma:
    """rgamma and lgamma against mpmath and a test-only scipy reference."""

    def test_rgamma_zero_at_poles_and_past_overflow(self):
        for x in (0.0, -1.0, -7.0, 171.7, 200.0):
            assert rgamma(x) == 0.0

    def test_rgamma_against_mpmath(self):
        xs = np.random.default_rng(7).uniform(-5.0, 171.0, 2000)
        with mp.workdps(30):
            refs = [mp.rgamma(mp.mpf(float(x))) for x in xs]
        for x, ref in zip(xs, refs):
            val = rgamma(float(x))
            assert np.sign(val) == np.sign(float(ref))
            assert abs(val - ref) <= 2e-15 * abs(ref), x

    def test_rgamma_is_reciprocal_gamma(self):
        assert rgamma(3.7) == 1.0 / gamma_fn(3.7)

    def test_lgamma_matches_gammaln(self):
        rng = np.random.default_rng(11)
        x = np.concatenate((rng.uniform(-5.0, 171.0, 1000),
                            np.geomspace(1e-10, 1e300, 200),
                            -rng.uniform(0.0, 60.0, 200))).reshape(10, -1)
        got = lgamma(x)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, gammaln(x), rtol=1e-15, atol=1e-13)

    def test_lgamma_infinite_at_poles(self):
        poles = np.array([0.0, -1.0, -2.0, -13.0])
        assert np.all(lgamma(poles) == np.inf)
        assert lgamma(-1.5) == math.lgamma(-1.5)

    def test_norm_series_at_zero_is_rgamma(self):
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        for alpha, beta in ((0.5, 0.5), (1.5, 1.0), (0.8, 2.3)):
            assert (norm_series_ml(alpha, beta, A, 0.0)
                    == 1.0 / math.gamma(beta))


class TestMlScalar:
    def test_exponential_identity(self):
        for z in np.linspace(-5, 5, 21):
            assert ml_scalar(1.0, 1.0, z).real == pytest.approx(
                math.exp(z), rel=1e-12)

    def test_value_at_zero(self):
        for alpha in (0.3, 0.7, 1.0, 1.7):
            for beta in (0.5, 1.0, 2.4):
                assert ml_scalar(alpha, beta, 0.0).real == pytest.approx(
                    1.0 / gamma_fn(beta), rel=1e-14)

    def test_half_order_erfc_identity(self):
        # E_{1/2,1}(z) = e^{z^2} erfc(-z) on the real axis
        for z in (-1.0, -2.5, 0.5, -6.0):
            ref = math.exp(z * z) * erfc(-z)
            assert ml_scalar(0.5, 1.0, z).real == pytest.approx(ref, rel=1e-11)

    def test_spec_value(self):
        assert ml_scalar(0.5, 1.0, -1.0).real == pytest.approx(0.4275836,
                                                               abs=5e-8)

    def test_hard_regimes_against_reference(self):
        cases = [(0.5, 1.0, -40.0), (0.7, 0.7, -12.0), (1.5, 1.5, -80.0),
                 (0.7, 1.0, complex(-4, 6)), (0.6, 1.6, -7.0),
                 (1.2, 1.2, -60.0), (0.9, 2.0, -18.0), (0.4, 1.0, -3.0)]
        for alpha, beta, z in cases:
            got = ml_scalar(alpha, beta, z)
            if (alpha, beta) == (0.5, 1.0):
                # E_{1/2,1}(z) = exp(z^2) erfc(-z): the series reference
                # needs hundreds of digits at z = -40
                with mp.workdps(30):
                    ref = complex(mp.exp(mp.mpf(z) ** 2) * mp.erfc(-mp.mpf(z)))
            else:
                ref = ml_reference(alpha, beta, z)
            assert abs(got - ref) <= 1e-10 * abs(ref), (alpha, beta, z)

    def test_generic_series_path_matches_exp(self):
        # bypass the alpha=1 closed form: the raw double series at moderate z
        vals, err = _series_double(1.0, 1.0, np.array([-2.0 + 0j]))
        assert vals[0].real == pytest.approx(math.exp(-2.0), rel=1e-13)
        assert err[0] < 1e-11

    def test_series_cap_raises(self, monkeypatch):
        monkeypatch.setattr(mlf, "_MAX_TERMS", 8)
        with pytest.raises(SeriesNotConverged, match="hit 8 terms"):
            _ml_matrix_series(0.5, 1.0, np.array([[-30.0]]))

    @pytest.mark.parametrize("alpha, beta", [(1.0, 2.0), (1.0, 3.0),
                                             (2.0, 3.0), (2.0, 4.0)])
    def test_closed_forms_do_not_depend_on_the_batch(self, alpha, beta):
        # small and large arguments in one call: each point gets the value
        # of its own one-point call
        zs = np.array([-0.5, -3.0, -6.0, -14.68, -40.0, 2.5 - 7.0j],
                      dtype=complex)
        arr = ml_scalar_array(alpha, beta, zs)
        one = [ml_scalar_array(alpha, beta, zs[i:i + 1])[0]
               for i in range(zs.size)]
        assert arr.tolist() == one

    def test_array_matches_scalar(self):
        zs = np.array([-0.5, -5.0, 2.0, -15.0], dtype=complex)
        arr = ml_scalar_array(0.8, 1.3, zs)
        for z, v in zip(zs, arr):
            assert abs(ml_scalar(0.8, 1.3, z) - v) <= 1e-12 * max(1, abs(v))


# the contour probe: every order band, the betas Kernels uses, arg z in
# {pi, 0.8 pi, 0.5 pi, 0} at sizes the reference sums quickly (|z| = 1 on
# the power series' side of its seam with the contour), plus two
# alpha = 1.2 points in the annulus where neither the power series nor the
# large-|z| expansion keeps its digits in double precision
PROBE_ALPHAS = (0.3, 0.6, 0.9, 1.2, 1.5, 1.8)
PROBE_ZS = ([sign * r for sign in (-1.0, 1.0) for r in (0.5, 1.0, 4.0, 15.0)]
            + [r * np.exp(1j * th * np.pi) for th in (0.8, 0.5)
               for r in (0.5, 1.0, 4.0, 15.0)])


def probe_points(alpha):
    zs = [z for z in PROBE_ZS if abs(z) ** (1.0 / alpha) <= 200]
    if alpha == 1.2:
        zs += [complex(-27.0, 0.0), 27.0 * np.exp(0.8j * np.pi)]
    return np.array(zs, dtype=complex)


def table_size(table):
    """The number of contours a kernel's table, {p0: ``mlf._Contours``},
    holds over its strengths."""
    return sum(c.mu.size for c in table.values())


def per_node_trapezoid(z, table, contour, real, betas):
    """``mlf._trapezoid`` node by node, one beta at a time, one complex row
    per beta: at each k, every point whose contour (numbered in ``contour``)
    has node k adds its term; the table gives only each contour's (mu, h,
    N), no node factor.  The nodes are arrays over the points, as numpy's
    scalar complex exp and log may round differently from its array
    loops."""
    return np.array([per_node_one(z, table, contour, real, beta)
                     for beta in betas], dtype=complex)


def per_node_one(z, table, contour, real, beta):
    alpha = table.alpha
    N, mu, h = table.N[contour], table.mu[contour], table.h[contour]
    zs = z.real if real else z
    acc = np.zeros(z.size, dtype=zs.dtype)
    for k in range(0 if real else -N.max(), N.max() + 1):
        on = np.abs(k) <= N
        w = 1.0 + 1j * (k * h[on])
        s = mu[on] * w * w
        ls = np.log(s)
        c = np.exp(s + (alpha - beta) * ls) * (2j * mu[on] * w)
        d = np.exp(alpha * ls)
        if not real:
            acc[on] += c / (d - zs[on])
            continue
        if k:
            c = 2.0 * c
        e = d.real - zs[on]
        acc[on] += (c.imag * e - c.real * d.imag) / (e * e + d.imag * d.imag)
    step = h / (2.0 * np.pi)
    return step * acc if real else -1j * step * acc


# batches of the blocked trapezoid rule: dozens of contours of complex
# points, both kinds of point in one call, and dozens of blocks whose
# contours need from about 35 to 190 nodes
CIRCLE = np.geomspace(1.1, 200, 300) * np.exp(0.8j * np.pi)
MIXED = np.concatenate((-np.geomspace(1.1, 200, 150), CIRCLE[::2]))
SPREAD = np.concatenate((-np.geomspace(1.1, 2e4, 1500),
                         np.geomspace(1.1, 2e3, 500) * np.exp(0.6j * np.pi)))
# two contours of 500 points each, of 47 and 103 nodes at alpha 1.5
CLUSTERS = np.concatenate([r * (1 + np.linspace(0, 1e-3, 500))
                           for r in (-5.0, -60.0)]) + 0j


class TestContour:
    @pytest.mark.parametrize("alpha", PROBE_ALPHAS)
    def test_against_reference_at_the_floor(self, alpha):
        # measured floor: 3.3e-14 absolute for |E| <= 1, relative above
        zs = probe_points(alpha)
        for beta in (1.0, alpha, alpha + 1.0, alpha + 2.0):
            got = ml_scalar_array(alpha, beta, zs)
            for z, v in zip(zs, got):
                ref = ml_reference(alpha, beta, z)
                assert abs(v - ref) <= 5e-14 * max(1.0, abs(ref)), (beta, z)

    @pytest.mark.parametrize("alpha", [4.5, 5.5])
    def test_more_than_four_poles_at_the_floor(self, alpha):
        # five or six poles per point: the packed keys of the rows of bins
        # outgrow uint64 and are Python ints
        zs = np.array([sign * r for sign in (-1.0, 1.0)
                       for r in (1.5, 4.0, 20.0)]
                      + [r * np.exp(1j * th * np.pi) for th in (0.8, 0.5, 0.2)
                         for r in (1.5, 4.0, 20.0)], dtype=complex)
        assert mlf._singularities(alpha, zs)[2].shape[1] > 4
        for beta in (1.0, alpha):
            got = ml_scalar_array(alpha, beta, zs)
            for z, v in zip(zs, got):
                ref = ml_reference(alpha, beta, z)
                assert abs(v - ref) <= 5e-14 * max(1.0, abs(ref)), (beta, z)

    @pytest.mark.parametrize("alpha", PROBE_ALPHAS)
    def test_values_do_not_depend_on_the_batch(self, alpha):
        zs = probe_points(alpha)
        for beta in (1.0, alpha, alpha + 1.0, alpha + 2.0):
            arr = ml_scalar_array(alpha, beta, zs)
            one = [ml_scalar_array(alpha, beta, zs[i:i + 1])[0]
                   for i in range(zs.size)]
            assert arr.tolist() == one, beta

    @pytest.mark.parametrize("alpha, zs", [
        # dozens of contours: for alpha > 1 every negative real z has poles
        (1.2, -np.geomspace(1.1, 200, 300)),
        (1.5, -np.geomspace(1.1, 200, 300)),
        (0.3, np.array([z for z in probe_points(0.3) if z.imag])),
        (0.9, np.array([-7.5])),
        (0.9, np.array([6.0 * np.exp(0.7j * np.pi)])),
        (1.2, CIRCLE),
        (1.5, CIRCLE),
        (1.2, MIXED),
        (0.7, MIXED),
        (1.3, SPREAD),
    ])
    def test_against_per_node_reference(self, monkeypatch, alpha, zs):
        # the blocked rule adds each point's terms in the reference's order;
        # the padding past a contour's last node adds exact zeros
        for beta in (1.0, alpha, alpha + 2.0):
            got = ml_scalar_array(alpha, beta, zs)
            monkeypatch.setattr(mlf, "_trapezoid", per_node_trapezoid)
            ref = ml_scalar_array(alpha, beta, zs)
            monkeypatch.undo()
            assert got.tolist() == ref.tolist(), beta

    @staticmethod
    def assert_blocks(monkeypatch, alpha, zs, kinds, betas):
        """Every block of terms, padded rows and the padding column of a
        one-point block included, holds at most _BLOCK elements with the
        terms of all of its betas counted, and the blocks cover each point
        once; ``kinds`` tells whether the blocks are shared by several
        contours (gathered), of one (broadcast), or both: a contour whose
        points fill a block shares none.  The values are those of one-beta
        calls."""
        blocks = []
        inner = mlf._block_sums

        def recorded(fac, z, pad=None):
            real = not np.iscomplexobj(fac)
            count = (len(fac) - 2) // 2 if real else len(fac) - 1
            blocks.append((count, fac[0].shape[0], max(z.size, 2),
                           fac[0].shape[1], z.size))
            return inner(fac, z, pad)

        monkeypatch.setattr(mlf, "_block_sums", recorded)
        got = mlf.ml_betas(alpha, betas, zs)
        assert {b for b, _, _, _, _ in blocks} == {len(betas)}
        assert all(b * rows * cols <= mlf._BLOCK
                   for b, rows, cols, _, _ in blocks)
        assert sum(points for _, _, _, _, points in blocks) == zs.size
        assert {shared > 1 for _, _, _, shared, _ in blocks} == kinds
        monkeypatch.undo()
        for beta, row in zip(betas, got):
            assert row.tolist() == ml_scalar_array(alpha, beta, zs).tolist()

    @pytest.mark.parametrize("alpha, zs, kinds", [
        (1.2, CIRCLE, {True}), (1.2, MIXED, {True}),
        (1.3, SPREAD, {False, True}), (0.9, MIXED[:1], {False}),
        (1.5, CLUSTERS, {False})])
    def test_blocks_hold_at_most_the_bound(self, monkeypatch, alpha, zs,
                                           kinds):
        self.assert_blocks(monkeypatch, alpha, zs, kinds, (1.0,))

    @pytest.mark.parametrize("alpha, zs, kinds, betas", [
        (1.2, MIXED, {False, True}, (1.0, 2.0, 1.2, 2.2)),
        (1.3, SPREAD, {False, True}, (1.0, 2.0, 2.3)),
        (1.5, CLUSTERS, {False}, (1.0, 2.0, 1.5, 2.5)),
        (0.9, MIXED[:1], {False}, (1.0, 0.9, 1.9))])
    def test_blocks_of_several_betas_hold_at_most_the_bound(
            self, monkeypatch, alpha, zs, kinds, betas):
        # the betas of one strength share every block, so a block holds
        # fewer points: more contours take blocks of their own
        self.assert_blocks(monkeypatch, alpha, zs, kinds, betas)

    def test_complex_padding_is_masked(self, monkeypatch):
        # a complex z of subnormal size whose series sums to 0 goes to the
        # contour, and there 0 / (0 - z) is NaN: the terms of complex z
        # past a point's own last node are masked, whatever z
        zs = np.concatenate(([5e-324j], CIRCLE[::10]))
        for alpha, beta in ((0.4, 0.0), (1.5, -1.0)):
            assert np.isinf(_series_double(alpha, beta, zs[:1])[1][0])
            with np.errstate(over="raise", invalid="raise"):
                got = ml_scalar_array(alpha, beta, zs)
            monkeypatch.setattr(mlf, "_trapezoid", per_node_trapezoid)
            ref = ml_scalar_array(alpha, beta, zs)
            monkeypatch.undo()
            assert got.tolist() == ref.tolist(), alpha

    def test_one_pass_for_a_scan_over_dozens_of_contours(self, monkeypatch):
        # the zero scan of the scalar kernel of A0 = -sqrt(0.3) at alpha
        # 1.5 puts 287 points on 40 contours: one pass of a few blocks
        # within the bound, not one per contour
        events = []
        trapezoid, block_sums = mlf._trapezoid, mlf._block_sums

        def recorded_pass(z, table, contour, real, betas):
            events.append(("pass", z.size, np.unique(contour).size))
            return trapezoid(z, table, contour, real, betas)

        def recorded_block(fac, z, pad=None):
            events.append(("block", fac[0].shape[0], max(z.size, 2)))
            return block_sums(fac, z, pad)

        monkeypatch.setattr(mlf, "_trapezoid", recorded_pass)
        monkeypatch.setattr(mlf, "_block_sums", recorded_block)
        ker = Kernels(1.5, np.array([[-math.sqrt(0.3)]]))
        ker.norm_integrals(DEFAULT_DELTA_GRID)
        assert events[0] == ("pass", 287, 40)
        scan = next(i for i, e in enumerate(events[1:], 1) if e[0] == "pass")
        blocks = events[1:scan]
        assert 1 < len(blocks) < 40
        assert all(rows * cols <= mlf._BLOCK for _, rows, cols in blocks)
        assert sum(cols for _, _, cols in blocks) == 287

    @pytest.mark.parametrize("alpha", [1.2, 1.5])
    def test_kernel_tables_give_the_bits_of_fresh_calls(self, monkeypatch,
                                                        alpha):
        # the dozens-of-contours points above, as E(A0 t^a) for A0 = -1,
        # reached in overlapping calls on one kernel object, whose one
        # table serves every beta
        t = np.geomspace(1.1, 200, 300) ** (1.0 / alpha)
        zs = -(t ** alpha) + 0j
        built = []
        contours = mlf._contours

        def counted(p0, bins):
            built.append(bins.shape[0])
            return contours(p0, bins)

        monkeypatch.setattr(mlf, "_contours", counted)
        ker = Kernels(alpha, np.array([[-1.0]]))
        for beta in (1.0, alpha, alpha + 2.0):
            fresh = ml_scalar_array(alpha, beta, zs)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mlf, "_trapezoid", per_node_trapezoid)
                ref = ml_scalar_array(alpha, beta, zs)
            built.clear()
            before = table_size(ker._table)
            half = ker.e_ml(beta, t[:150])[:, 0, 0]
            full = ker.e_ml(beta, t)[:, 0, 0]
            again = ker.e_ml(beta, t)[:, 0, 0]
            # every contour of a new strength went through _contours once,
            # the last call's through none; beta = alpha has the strength
            # of beta = 1 and builds none
            if beta == alpha:
                assert built == []
            else:
                assert len(built) == 2
                assert sum(built) == table_size(ker._table) - before > 24
            assert again.tolist() == full.tolist()
            assert half.tolist() == full[:150].tolist()
            assert full.tolist() == fresh.real.tolist(), beta
            assert full.tolist() == ref.real.tolist(), beta

    @pytest.mark.parametrize("padded_first", [True, False])
    def test_padding_keeps_the_contour(self, monkeypatch, padded_first):
        # at alpha 4.5, E(-x) has 4 poles and E(+x) 5, so a kernel with the
        # eigenvalues -1 and 1 pads the rows of -x to 5 poles: with or
        # without the padding, the points of -x share their contours
        built = []
        contours = mlf._contours

        def counted(p0, bins):
            built.append(bins.shape[0])
            return contours(p0, bins)

        monkeypatch.setattr(mlf, "_contours", counted)
        t = np.geomspace(1.2, 2.0, 20)
        zs = -(t ** 4.5) + 0j
        assert mlf._singularities(4.5, zs)[2].shape[1] == 4
        ker = Kernels(4.5, np.diag([-1.0, 1.0]))
        if padded_first:
            padded = ker.e_ml(1.0, t)
        table = ker._table
        alone = mlf.ml_betas(4.5, (1.0,), zs, _table=table)[0]
        if not padded_first:
            padded = ker.e_ml(1.0, t)
        assert sum(built) == table_size(table)
        assert len(built) == 2 - padded_first
        fresh = ml_scalar_array(4.5, 1.0, zs)
        assert alone.tolist() == fresh.tolist()
        assert padded[:, 0, 0].tolist() == fresh.real.tolist()

    def test_kernels_share_no_table(self):
        A0 = np.array([[-1.0, 0.5], [0.0, -2.0]])
        t = np.geomspace(0.1, 50.0, 40)
        one, two = Kernels(1.3, A0), Kernels(1.3, A0)
        first = one.e_ml(1.3, t)
        assert table_size(one._table) and not table_size(two._table)
        second = two.e_ml(1.3, t)
        assert second.tolist() == first.tolist()
        assert one._table is not two._table
        assert one._table[0.0] is not two._table[0.0]
        # a direct call builds a table of its own and leaves the kernel's
        size = table_size(one._table)
        ml_scalar_array(1.3, 1.3, -np.geomspace(300.0, 900.0, 7))
        assert table_size(one._table) == size

    def test_complex_overflow_raises_and_real_gives_inf(self):
        for alpha, beta, r, th in ((0.5, 1.0, 200.0, 0.1),
                                   (0.9, 0.9, 1e6, 0.3)):
            with pytest.raises(OverflowBeyondRepresentableRange,
                               match=rf"E_\{{{alpha},{beta}\}}\("):
                ml_scalar_array(alpha, beta, np.array([r * np.exp(1j * th)]))
            assert ml_scalar_array(alpha, beta, np.array([r]))[0] == np.inf

    def test_import_does_not_load_mpmath(self):
        # mpmath is a test dependency: the tests' reference, not the library's
        src = os.path.dirname(os.path.dirname(fracdelay.__file__))
        code = "import sys, fracdelay; print('mpmath' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "False"


# the orders of the shared pass: every band, the integer orders' closed
# forms, and alpha = 1.2 whose beta 2.2 has p0 = 2 (2.2 - 1.2 - 1) = 4.4e-16
SHARED_ALPHAS = (0.3, 0.6, 0.95, 1.0, 1.2, 1.5, 1.9, 2.0)
SHARED_RADII = np.array([0.05, 0.5, 1.0, 1.5, 4.0, 15.0, 60.0])


def shared_betas(alpha):
    """1..k, alpha, alpha + 1 and alpha + 2: every beta a kernel of order
    alpha evaluates."""
    k = math.ceil(alpha - 1e-12)
    return [j + 1.0 for j in range(k)] + [alpha, alpha + 1.0, alpha + 2.0]


def shared_points(alpha):
    """(name, z) of real, complex and mixed batches, z = 0, the |z| <= 1
    series and the pole-free negative reals included, within the
    reference's reach."""
    r = SHARED_RADII[SHARED_RADII ** (1.0 / alpha) <= 200]
    real = np.concatenate(([0.0], -r, r)).astype(complex)
    cplx = np.concatenate([r * np.exp(1j * th * np.pi)
                           for th in (0.9, 0.6, 0.3, -0.5)])
    return [("real", real), ("complex", cplx),
            ("mixed", np.concatenate((real, cplx, [0.3j, -2.0 + 1e-3j])))]


class TestSharedPass:
    """ml_betas evaluates every beta at one point set in one pass, with the
    bits of one-beta calls."""

    @pytest.mark.parametrize("alpha", SHARED_ALPHAS)
    def test_bits_of_one_beta_calls(self, alpha):
        betas = shared_betas(alpha)
        for name, zs in shared_points(alpha):
            got = mlf.ml_betas(alpha, betas, zs)
            assert got.shape == (len(betas), zs.size)
            for beta, row in zip(betas, got):
                one = ml_scalar_array(alpha, beta, zs)
                assert row.tolist() == one.tolist(), (name, beta)

    @pytest.mark.parametrize("alpha", [0.6, 1.2, 1.5, 1.9])
    def test_bits_of_the_per_node_rule(self, monkeypatch, alpha):
        # the blocks of several betas add each point's terms in the order
        # of the node-by-node rule, one beta at a time
        betas = shared_betas(alpha)
        zs = shared_points(alpha)[2][1]
        got = mlf.ml_betas(alpha, betas, zs)
        monkeypatch.setattr(mlf, "_trapezoid", per_node_trapezoid)
        for beta, row in zip(betas, got):
            ref = ml_scalar_array(alpha, beta, zs)
            assert row.tolist() == ref.tolist(), beta

    def test_tiny_strength_shares_the_contours_of_beta_one(self, monkeypatch):
        # p0 = 4.4e-16 at alpha 1.2, beta 2.2 reads as 0: its contours are
        # those of beta 1 and 2, built once, with the bits of its own call
        assert 2.0 * (2.2 - 1.2 - 1.0) > 0.0
        assert mlf._strength(1.2, 2.2) == mlf._strength(1.2, 1.0) == 0.0
        built = []
        contours = mlf._contours

        def counted(p0, bins):
            built.append((p0, bins.shape[0]))
            return contours(p0, bins)

        zs = -np.geomspace(1.1, 200, 300) + 0j
        alone = ml_scalar_array(1.2, 2.2, zs)
        monkeypatch.setattr(mlf, "_contours", counted)
        got = mlf.ml_betas(1.2, (1.0, 2.0, 2.2), zs)
        assert len(built) == 1 and built[0][0] == 0.0
        assert got[2].tolist() == alone.tolist()

    def test_strengths_keep_their_own_contours(self, monkeypatch):
        # beta = alpha + 2 has p0 = 2: its contours are its own, built in
        # the same call as those of the betas of strength 0
        built = []
        contours = mlf._contours

        def counted(p0, bins):
            built.append(p0)
            return contours(p0, bins)

        monkeypatch.setattr(mlf, "_contours", counted)
        table = {}
        zs = -np.geomspace(1.1, 200, 50) + 0j
        mlf.ml_betas(1.5, (1.0, 1.5, 2.5, 3.5), zs, _table=table)
        assert sorted(built) == [0.0, 2.0]
        built.clear()
        mlf.ml_betas(1.5, (3.5, 2.0), zs, _table=table)
        assert built == []
        # the rows that the call of (1, a, a + 1, a + 2) built serve a call
        # of a + 1 alone, which writes no node factor
        for part in table.values():
            for nodes in part._nodes.values():
                nodes.flags.writeable = False
        got = mlf.ml_betas(1.5, (2.5,), zs, _table=table)
        assert got[0].tolist() == ml_scalar_array(1.5, 2.5, zs).tolist()

    @pytest.mark.parametrize("alpha", [0.6, 1.2, 1.5])
    def test_values_do_not_depend_on_the_table_history(self, alpha):
        # one table met by calls of overlapping sets of betas, in the order
        # of a certificate: zero scan, L1 with the phi_j, then K1; the L1
        # call meets part of the points, so the later calls find contours
        # that hold the rows of some of their betas and not of others
        table = {}
        part = shared_points(alpha)[2][1]
        zs = np.concatenate((part, -np.geomspace(1.1, 200, 50)))
        for betas, at in (((alpha,), zs), ((alpha + 1.0, 1.0, 2.0), part),
                          ((alpha + 1.0,), zs), ((2.0, alpha + 1.0), zs)):
            got = mlf.ml_betas(alpha, betas, at, _table=table)
            for beta, row in zip(betas, got):
                one = ml_scalar_array(alpha, beta, at)
                assert row.tolist() == one.tolist(), (betas, beta)

    @pytest.mark.parametrize("alpha, beta", [(0.95, 0.95), (0.6, 1.0),
                                             (1.5, 2.5)])
    def test_conjugate_pairs_keep_the_bits(self, alpha, beta):
        A = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -0.5]])
        lam = np.linalg.eigvals(A)
        assert np.iscomplexobj(lam)
        u = np.geomspace(1e-3, 79.0, 120)
        betas = (1.0, beta, alpha + 1.0, alpha + 2.0)
        got = mlf._eig_values(alpha, betas, lam, u)
        for b, vals in zip(betas, got):
            one = mlf._eig_values(alpha, (b,), lam, u)[0]
            assert vals.tolist() == one.tolist(), b

    def test_out_of_range_raises_as_the_one_beta_call(self):
        z = np.array([0.5, 200.0 * np.exp(0.1j), -3.0])
        with pytest.raises(OverflowBeyondRepresentableRange) as one:
            ml_scalar_array(0.5, 1.0, z)
        with pytest.raises(OverflowBeyondRepresentableRange) as shared:
            mlf.ml_betas(0.5, (1.0, 0.5, 1.5), z)
        assert str(shared.value) == str(one.value)
        # the first beta in order names the error
        with pytest.raises(OverflowBeyondRepresentableRange,
                           match=r"E_\{0.5,1.5\}"):
            mlf.ml_betas(0.5, (1.5, 1.0), z)

    def test_one_beta_is_the_shared_pass(self):
        zs = shared_points(1.2)[2][1]
        got = mlf.ml_betas(1.2, (2.2,), zs)
        assert got.shape == (1, zs.size)
        assert got[0].tolist() == ml_scalar_array(1.2, 2.2, zs).tolist()
        assert mlf.ml_betas(0.7, (1.0, 0.7), np.zeros((0,))).shape == (2, 0)


POLE_FREE_ZS = np.array([-1e-300, -1e-16, -1e-6, -0.5, -1.0], dtype=complex)


class TestPoleFreeRoute:
    """For alpha < 1 and 0 < beta <= alpha a real z < 0 has no pole on the
    principal sheet and goes to the shared contour, not the power series."""

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.75, 0.9, 0.999])
    def test_against_reference_at_the_floor(self, alpha):
        for beta in (alpha, alpha / 2.0):
            got = ml_scalar_array(alpha, beta, POLE_FREE_ZS)
            for z, v in zip(POLE_FREE_ZS, got):
                ref = ml_reference(alpha, beta, z)
                assert abs(v - ref) <= 3.3e-14 * max(1.0, abs(ref)), (beta, z)

    def test_series_sees_no_pole_free_point(self, monkeypatch):
        seen = []
        series = mlf._series_double

        def counted(alpha, betas, z, which=None):
            (beta,) = betas
            seen.append((alpha, beta, z.copy()))
            return series(alpha, betas, z, which)

        monkeypatch.setattr(mlf, "_series_double", counted)
        mixed = np.concatenate((POLE_FREE_ZS, [0.5, 0.3 + 0.4j, -0.5j]))
        for alpha in (0.3, 0.7, 0.95):
            for beta in (alpha, alpha / 2.0, alpha + 1.0):
                ml_scalar_array(alpha, beta, mixed)
        negative = [(a, b) for a, b, z in seen
                    if np.any((z.imag == 0) & (z.real < 0))]
        # beta > alpha keeps the series: the contour loses digits toward 0
        assert negative == [(a, a + 1.0) for a in (0.3, 0.7, 0.95)]
        # positive and complex points still take the series
        assert len(seen) == 9
        # alpha >= 1 has poles for z < 0: the series serves them
        seen.clear()
        ml_scalar_array(1.2, 1.2, POLE_FREE_ZS)
        assert seen and seen[0][2].size == POLE_FREE_ZS.size

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.999])
    def test_values_do_not_depend_on_the_batch(self, alpha):
        mixed = np.concatenate((POLE_FREE_ZS, [0.5, 1.0, 0.3 + 0.4j,
                                               -0.5j, -3.0 + 1e-3j, -4.0]))
        for beta in (alpha, alpha / 2.0):
            arr = ml_scalar_array(alpha, beta, mixed)
            one = [ml_scalar_array(alpha, beta, mixed[i:i + 1])[0]
                   for i in range(mixed.size)]
            assert arr.tolist() == one, beta


class TestMlMatrix:
    def test_zero_matrix(self):
        out = ml_matrix(0.7, 1.0, np.zeros((3, 3)), 2.0)
        np.testing.assert_allclose(out, np.eye(3), atol=1e-15)

    def test_diagonal_exponential(self):
        out = ml_matrix(1.0, 1.0, np.diag([-1.0, -2.0]), 1.0)
        np.testing.assert_allclose(out, np.diag([math.exp(-1), math.exp(-2)]),
                                   rtol=1e-12)

    def test_matches_scalar_on_1x1(self):
        out = ml_matrix(0.5, 1.0, np.array([[-1.0]]), 1.0)
        assert out[0, 0] == pytest.approx(0.4275836, abs=5e-8)

    def test_spectral_vs_series_paths(self, rng=None):
        rng = np.random.default_rng(42)
        for _ in range(6):
            n = int(rng.integers(2, 4))
            A = rng.normal(scale=0.6, size=(n, n))
            t = float(rng.uniform(0.2, 1.5))
            alpha, beta = 0.8, 1.0
            spectral = ml_matrix(alpha, beta, A, t)
            # the series path as ml_matrix runs it for a defective matrix
            series = _ml_matrix_series(alpha, beta, A * t ** alpha)
            assert np.max(np.abs(spectral - series)) <= 1e-9 * max(
                1.0, np.max(np.abs(spectral)))

    @pytest.mark.parametrize("alpha, beta", [(0.95, 0.95), (0.6, 1.0),
                                             (1.5, 2.5)])
    def test_conjugate_eigenvalues_take_conjugate_values(self, monkeypatch,
                                                         alpha, beta):
        # E(conj z) = conj E(z): the member of a pair with Im >= 0 is
        # evaluated, and the other takes its conjugate, bit for bit
        A = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -0.5]])
        lam = np.linalg.eigvals(A)
        upper = lam.imag >= 0
        u = np.geomspace(1e-3, 79.0, 400)
        points = []

        ml_betas = mlf.ml_betas

        def counted(alpha, betas, z, **kwargs):
            points.append(np.size(z))
            return ml_betas(alpha, betas, z, **kwargs)

        monkeypatch.setattr(mlf, "ml_betas", counted)
        vals = mlf._eig_values(alpha, (beta,), lam, u)[0]
        assert points == [2 * u.size]
        lower = np.flatnonzero(~upper)[0]
        pair = np.flatnonzero(lam == lam[lower].conj())[0]
        assert vals[:, lower].tolist() == vals[:, pair].conj().tolist()
        assert np.array_equal(vals[:, upper], ml_scalar_array(
            alpha, beta, np.multiply.outer(lam[upper], u)).T)

    def test_nondiagonalizable_series_path(self):
        A = np.array([[-1.0, 1.0], [0.0, -1.0]])   # Jordan block
        out = ml_matrix(1.0, 1.0, A, 1.0)
        expected = math.exp(-1) * np.array([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_series_path_refuses_lost_digits(self):
        # a Jordan block takes the matrix series; e^{40 J} has norm 1.7e-16
        # while its terms reach 1e17, so the double sum is noise
        J = np.array([[-1.0, 1.0], [0.0, -1.0]])
        ref = expm(5.0 * J)
        np.testing.assert_allclose(ml_matrix(1.0, 1.0, J, 5.0), ref, rtol=0,
                                   atol=1e-12 * np.linalg.norm(ref, 2))
        t0 = time.monotonic()
        with pytest.raises(SeriesNotConverged):
            ml_matrix(1.0, 1.0, J, 40.0)
        # terms that overflow stop the series at once
        with pytest.raises(SeriesNotConverged):
            ml_matrix(0.8, 0.8, np.array([[-2.0, 1.0], [0.0, -2.0]]), 1000.0)
        assert time.monotonic() - t0 < 1.0

    def test_nilpotent_series_stops_on_a_zero_term(self):
        # N^2 = 0: the terms from l = 2 on are exactly zero, and the value
        # is I + N t^a / Gamma(1 + a)
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        closed = [np.eye(2) + N * t ** 0.5 / math.gamma(1.5)
                  for t in (0.5, 1.0)]
        np.testing.assert_allclose(ml_matrix(0.5, 1.0, N, 1.0), closed[1],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(Kernels(0.5, N).e_ml(1.0, [0.5, 1.0]),
                                   closed, rtol=0, atol=1e-15)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: ml_scalar_array(0.0, 1.0, [0.5]),
                 "alpha must be positive, got 0.0", id="array-alpha-zero"),
    pytest.param(lambda: ml_scalar_array(-0.5, 1.0, [0.5]),
                 "alpha must be positive, got -0.5",
                 id="array-alpha-negative"),
    pytest.param(lambda: ml_matrix(0.0, 1.0, np.eye(2), 1.0),
                 "alpha must be positive", id="matrix-alpha-zero"),
    pytest.param(lambda: ml_matrix(-1.0, 1.0, np.eye(2), 1.0),
                 "alpha must be positive", id="matrix-alpha-negative"),
    pytest.param(lambda: ml_matrix(0.8, 1.0, np.eye(2), -0.1),
                 "t must be nonnegative", id="matrix-t-negative"),
    pytest.param(lambda: ml_matrix(0.8, 1.0, -np.eye(2), math.nan),
                 "t must be nonnegative and finite", id="matrix-t-nan"),
    pytest.param(lambda: ml_matrix(0.8, 1.0, -np.eye(2), math.inf),
                 "t must be nonnegative and finite", id="matrix-t-inf"),
])
def test_refused_orders_and_times(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_no_public_accuracy_options():
    # the evaluator and the kernel quadrature have one accuracy each:
    # nothing public takes a tolerance, term cap or configuration for them
    banned = {"cfg", "rel_tol", "max_terms", "tol"}
    public = [getattr(fracdelay, name) for name in fracdelay.__all__]
    public += [member for name, member in vars(fracdelay.Kernels).items()
               if not name.startswith("__")]
    takers = [fn.__qualname__ for fn in public if callable(fn)
              and banned & set(inspect.signature(fn).parameters)]
    assert takers == []
