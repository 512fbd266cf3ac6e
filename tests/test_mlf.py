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
        vals, err, _ = _series_double(1.0, 1.0, np.array([-2.0 + 0j]))
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


def per_node_trapezoid(alpha, beta, z, contour, mu, h, N, real):
    """``mlf._trapezoid`` node by node: at each k, every point whose contour
    reaches k adds its term."""
    zs = z.real if real else z
    acc = np.zeros(z.size, dtype=zs.dtype)
    for k in range(0 if real else -N.max(), N.max() + 1):
        on = abs(k) <= N[contour]
        i = contour[on]
        w = 1.0 + 1j * (k * h[i])
        s = mu[i] * w * w
        ls = np.log(s)
        c = np.exp(s + (alpha - beta) * ls) * (2j * mu[i] * w)
        d = np.exp(alpha * ls)
        if not real:
            acc[on] += c / (d - zs[on])
            continue
        if k:
            c = 2.0 * c
        e = d.real - zs[on]
        acc[on] += (c.imag * e - c.real * d.imag) / (e * e + d.imag * d.imag)
    step = h[contour] / (2.0 * np.pi)
    return step * acc if real else -1j * step * acc


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
        # five or six poles per point: contours are grouped by whole rows
        # of bins (np.unique over axis 0), not by a packed integer key
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
    ])
    def test_against_per_node_reference(self, monkeypatch, alpha, zs):
        # the blocked rule adds each point's terms in the reference's order
        for beta in (1.0, alpha, alpha + 2.0):
            got = ml_scalar_array(alpha, beta, zs)
            monkeypatch.setattr(mlf, "_trapezoid", per_node_trapezoid)
            ref = ml_scalar_array(alpha, beta, zs)
            monkeypatch.undo()
            assert got.tolist() == ref.tolist(), beta

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

        def counted(alpha, beta, z):
            seen.append((alpha, beta, z.copy()))
            return series(alpha, beta, z)

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
