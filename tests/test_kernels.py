import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_stable_matrix
from fracdelay import (fit_decay_envelope, phi_alpha, phi_alpha_j,
                       phi_alpha_l1, phi_alpha_l2sq, verify_lemma22)
from fracdelay import kernels
from fracdelay.errors import NotAStabilityMatrix, SingularAtZero
from fracdelay.kernels import (Kernels, norm_series_exp, norm_series_ml,
                               weighted_singular_integral)

A1 = np.array([[-1.0]])


class TestPhi:
    def test_phi_j0_at_zero_is_identity(self):
        np.testing.assert_array_equal(phi_alpha_j((0.7, A1), 0, 0.0),
                                      np.eye(1))

    def test_phi_j1_at_zero_is_zero(self):
        prob = (1.5, np.diag([-1.0, -2.0]))
        np.testing.assert_array_equal(phi_alpha_j(prob, 1, 0.0),
                                      np.zeros((2, 2)))

    def test_negative_time_is_zero(self):
        assert phi_alpha((0.7, A1), -1.0)[0, 0] == 0.0
        assert phi_alpha_j((0.7, A1), 0, -2.0)[0, 0] == 0.0

    def test_exponential_reduction(self):
        assert phi_alpha_j((1.0, A1), 0, 2.0)[0, 0] == pytest.approx(
            math.exp(-2), rel=1e-14)
        assert phi_alpha((1.0, A1), 1.0)[0, 0] == pytest.approx(
            math.exp(-1), rel=1e-14)

    def test_pure_power_kernel(self):
        # A0 = 0: phi(t) = t^(a-1)/Gamma(a)
        val = phi_alpha((0.5, np.array([[0.0]])), 4.0)[0, 0]
        assert val == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-13)

    def test_singular_at_zero_for_low_order(self):
        with pytest.raises(SingularAtZero):
            phi_alpha((0.5, A1), 0.0)


class TestIntegrals:
    def test_l1_exponential_closed_form(self):
        for delta in (0.5, 1.0, 10.0):
            assert phi_alpha_l1((1.0, A1), delta) == pytest.approx(
                1.0 - math.exp(-delta), rel=1e-12)
            assert (phi_alpha_l1(Kernels(1.0, A1), delta)
                    == phi_alpha_l1((1.0, A1), delta))

    def test_l1_pure_power(self):
        assert phi_alpha_l1((0.5, np.array([[0.0]])), 1.0) == pytest.approx(
            2.0 / math.sqrt(math.pi), rel=1e-12)

    def test_l1_small_delta(self):
        assert phi_alpha_l1((1.0, A1), 1e-8) == pytest.approx(1e-8, rel=1e-6)

    def test_l2sq_exponential_closed_form(self):
        assert phi_alpha_l2sq((1.0, A1), 1.0) == pytest.approx(
            (1.0 - math.exp(-2)) / 2.0, rel=1e-10)

    def test_l2sq_requires_order_above_half(self):
        with pytest.raises(SingularAtZero):
            phi_alpha_l2sq((0.5, A1), 1.0)

    def test_matrix_l1_against_quadpack(self):
        M = np.array([[-1.0, 0.5], [0.0, -2.0]])
        alpha = 0.7
        got = phi_alpha_l1((alpha, M), 3.0)
        ker = Kernels(alpha, M)
        assert phi_alpha_l1(ker, 3.0) == got

        def f(s):
            return float(np.linalg.norm(ker.e_ml(alpha, np.array([s]))[0], 2))

        ref, _ = quad(f, 0, 3.0, weight="alg", wvar=(alpha - 1.0, 0),
                      limit=200, epsabs=1e-11, epsrel=1e-11)
        assert got == pytest.approx(ref, rel=1e-7)

    def test_matrix_l1_at_order_one_half(self):
        # ||E_{a,a}(A0 s^a)|| is E_{a,a}(-s^a) here, whose L1 the scalar
        # kernel reads off its primitive; the p = 2 mesh grading is not
        # evaluated (it divides by 2 alpha - 1)
        got = phi_alpha_l1((0.5, np.diag([-1.0, -2.0])), 1.0)
        assert got == pytest.approx(phi_alpha_l1((0.5, A1), 1.0), rel=1e-8)

    def test_matrix_l2sq_against_quadpack(self):
        M = np.array([[-1.0, 0.5], [0.0, -2.0]])
        alpha = 0.8
        got = phi_alpha_l2sq((alpha, M), 2.0)
        ker = Kernels(alpha, M)
        assert phi_alpha_l2sq(ker, 2.0) == got

        def f(s):
            return float(np.linalg.norm(ker.e_ml(alpha, np.array([s]))[0],
                                        2) ** 2)

        ref, _ = quad(f, 0, 2.0, weight="alg", wvar=(2 * alpha - 2.0, 0),
                      limit=200, epsabs=1e-11, epsrel=1e-11)
        assert got == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("alpha", [0.7, 0.8])
    def test_cumulative_table_against_quadpack(self, alpha):
        # L1 and L2sq at several deltas, all read from one integration
        M = np.array([[-1.0, 0.5], [0.0, -2.0]])
        ker = Kernels(alpha, M)
        deltas = [0.05, 0.4, 1.0, 2.0, 3.0]
        table = ker.norm_integrals([0.0] + deltas, (1, 2))

        def f(s, p):
            return float(np.linalg.norm(ker.e_ml(alpha, np.array([s]))[0],
                                        2)) ** p

        for i, p in enumerate((1, 2)):
            gamma = p * (alpha - 1.0)
            ref, _ = quad(f, 0, deltas[0], args=(p,), weight="alg",
                          wvar=(gamma, 0), epsabs=1e-11, epsrel=1e-11)
            for j, delta in enumerate(deltas):
                if j > 0:
                    ref += quad(lambda s: s ** gamma * f(s, p), deltas[j - 1],
                                delta, epsabs=1e-12, epsrel=1e-12)[0]
                assert table[i, j] == pytest.approx(ref, rel=1e-7), (p, delta)

    def test_refinement_convergence(self):
        # halving the mesh changes the raw rule by less than the tolerance
        ker = Kernels(0.7, np.array([[-1.0, 0.3], [0.1, -1.5]]))

        def w(s):
            out = np.empty(s.shape)
            pos = s > 0
            out[pos] = np.linalg.svd(ker.e_ml(0.7, s[pos]),
                                     compute_uv=False)[:, 0]
            out[~pos] = 1.0 / math.gamma(0.7)
            return out

        tol = 1e-8
        coarse = weighted_singular_integral(-0.3, w, 2.0, tol, n0=32,
                                            grading=1 / 0.7, noise_floor=3e-8)
        fine = weighted_singular_integral(-0.3, w, 2.0, tol, n0=64,
                                          grading=1 / 0.7, noise_floor=3e-8)
        assert abs(coarse - fine) < tol * max(1.0, abs(fine)) * 5


class TestDecayEnvelope:
    def test_normal_matrix(self):
        env = fit_decay_envelope(np.diag([-1.0, -2.0]))
        assert env.lam == pytest.approx(0.9, rel=1e-12)
        assert env.K == pytest.approx(1.0, rel=1e-6)

    def test_not_stable(self):
        with pytest.raises(NotAStabilityMatrix):
            fit_decay_envelope(np.array([[0.0]]))

    def test_nonnormal_transient(self):
        A = np.array([[-1.0, 10.0], [0.0, -1.0]])
        env = fit_decay_envelope(A)
        assert env.K > 1.0
        # independent grid re-verification of the envelope
        from scipy.linalg import expm
        for t in np.linspace(0.0, 20.0, 200):
            assert np.linalg.norm(expm(A * t), 2) <= env.K * math.exp(
                -env.lam * t) * (1 + 1e-9)


class TestLemmaVerifier:
    def test_integer_order_identity(self):
        rep = verify_lemma22((1.0, A1), np.linspace(0.1, 10, 25))
        names = {c.name: c for c in rep.checks}
        assert names["integer_order_identity"].passed
        assert rep.all_passed

    def test_alpha_one_point_five_scalar(self):
        rep = verify_lemma22((1.5, A1), np.array([0.5, 1.0, 2.0]))
        assert rep.all_passed
        for c in rep.checks:
            if c.name.startswith("series_majorant"):
                assert c.worst_margin > 0

    def test_envelope_checks_scalar(self):
        rep = verify_lemma22((1.5, A1), np.linspace(0.5, 5, 10))
        names = {c.name for c in rep.checks}
        assert "envelope_exp" in names
        assert "envelope_exp_power" in names
        assert rep.all_passed

    def test_sub_unit_order_constants_reported(self):
        rep = verify_lemma22((0.5, A1), np.linspace(1.0, 10, 30))
        fitted = [c for c in rep.checks if c.fitted_constant is not None]
        assert fitted
        assert all(c.fitted_constant >= 1.0 for c in fitted)
        assert rep.all_passed

    def test_random_stable_matrices(self, rng):
        for _ in range(4):
            n = int(rng.integers(2, 5))
            A0 = random_stable_matrix(rng, n)
            for alpha in (0.5, 1.0, 1.5, 2.0):
                grid = (np.linspace(1.0, 10.0, 20) if alpha < 1
                        else np.linspace(0.1, 10.0, 20))
                rep = verify_lemma22((alpha, A0), grid)
                assert rep.all_passed, (alpha, [c.name for c in rep.checks
                                                if not c.passed])

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_each_table_evaluated_once(self, monkeypatch, alpha):
        # one E_{a,j+1} table per order (shared by ||E|| and ||phi_j||) plus
        # the phi table; one stacked expm per grid of times
        calls = {"e_ml": 0, "expm": 0}
        e_ml, expm = Kernels.e_ml, kernels.expm

        def count_e_ml(*args, **kwargs):
            calls["e_ml"] += 1
            return e_ml(*args, **kwargs)

        def count_expm(*args, **kwargs):
            calls["expm"] += 1
            return expm(*args, **kwargs)

        monkeypatch.setattr(Kernels, "e_ml", count_e_ml)
        monkeypatch.setattr(kernels, "expm", count_expm)
        A0 = np.array([[-1.0, 0.5, 0.0], [0.0, -1.5, 0.3], [0.2, 0.0, -2.0]])
        grid = np.linspace(1.0, 10.0, 20)
        envelope = fit_decay_envelope(A0)
        calls["expm"] = 0
        rep = verify_lemma22((alpha, A0), grid, envelope=envelope)
        assert rep.all_passed
        k = math.ceil(alpha)
        # ||e^{A0 t}|| on the grid and on its powers t^alpha
        assert calls == {"e_ml": k + 1, "expm": 2}


def test_norm_series_ml_vector_matches_points():
    # a non-normal 3x3: ||A^l|| is not ||A||^l
    A = np.array([[-1.0, 4.0, 0.0], [0.0, -0.5, 2.0], [0.3, 0.0, -2.0]])
    ts = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    for alpha in (0.5, 1.5):
        for beta in (alpha, 1.0, 2.0):
            vec = norm_series_ml(alpha, beta, A, ts)
            one = np.array([norm_series_ml(alpha, beta, A, t) for t in ts])
            np.testing.assert_allclose(vec, one, rtol=1e-15, atol=0)
            assert vec[0] == pytest.approx(1.0 / math.gamma(beta), rel=1e-15)


def test_norm_series_exp_scalar():
    # scalar: majorant equals e^{|a| s}
    assert norm_series_exp(np.array([[-2.0]]), 1.5) == pytest.approx(
        math.exp(3.0), rel=1e-12)
