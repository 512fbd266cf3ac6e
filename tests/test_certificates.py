import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, const_phi, random_stable_matrix, scalar_problem
from test_kernels import exact_l1
from fracdelay import (ControlInput, TimeFunctionTable, align_grid, cert_g_f,
                       cert_g_h, cert_g_hat_f, cert_g_hat_h, certify,
                       delay_free_certify, gain_bound_l2, gain_bound_uniform,
                       high_order_check, solve_delay_free, solve_trajectory,
                       validate_system)
from fracdelay import certificates, kernels, mlf
from fracdelay.certificates import DEFAULT_DELTA_GRID
from fracdelay.errors import (DelaysNotZero, DimensionMismatch, EmptyGrid,
                              KernelNotIntegrable, OrderTooLow,
                              PremiseViolated, QuadratureNotConverged,
                              WindowOutOfRange)
from fracdelay.spectral import theorem34_certify
from fracdelay.system import load_problem


A1 = np.array([[-1.0]])


def g_h_closed_form(delta, a1):
    return math.exp(-delta) + a1 * (1.0 - math.exp(-delta))


def growing_kernel_problem():
    """alpha 1.6219 with eigenvalues of A0 at |arg| = 0.65 pi, strictly
    inside the sector |arg| < alpha pi / 2 = 0.81 pi: phi grows."""
    A0 = np.array([[-1.2333, -0.9583], [1.6, 0.2029]])
    phi = [TimeFunctionTable(np.array([-1.0]), np.array([[1.0, 0.0]]),
                             "const")] * 2
    return validate_system(1.6219, [0.0, 1.0], [A0, 0.1 * np.eye(2)],
                           None, None, phi)


def forbid_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(kernels.Kernels, "norm_integrals", no_quadrature)
    monkeypatch.setattr(kernels, "weighted_singular_integral", no_quadrature)


class TestUniformFamily:
    @pytest.mark.parametrize("a1", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.1, 1.0, 10.0])
    def test_closed_form_agreement(self, a1, delta):
        prob = scalar_problem(1.0, -1.0, a1, r1=1.0)
        value, feasible = cert_g_h(prob, delta)
        assert feasible
        assert value == pytest.approx(g_h_closed_form(delta, a1), abs=1e-8)

    def test_pure_stable_always_below_one(self):
        prob = scalar_problem(1.0, -1.0, 0.0, r1=1.0)
        for delta in (0.2, 1.0, 5.0):
            value, feasible = cert_g_h(prob, delta)
            assert feasible and value < 1.0

    def test_infeasible_denominator_reported(self):
        prob = scalar_problem(1.0, -1.0, 0.5, r1=1.0, at0=2.0)
        value, feasible = cert_g_h(prob, 5.0)
        assert not feasible
        assert value == math.inf

    def test_value_does_not_depend_on_the_delay(self):
        # the uniform family reads sup norms and the kernel of (alpha, A0),
        # no delay: one value, and one verdict, for every delay size
        values = [cert_g_h(scalar_problem(0.7, -1.0, 0.3, r1=r1), 1.0)
                  for r1 in (0.5, 1.3, 2.9)]
        assert values == [values[0]] * 3
        assert values[0] == (pytest.approx(0.5797283846809197, rel=1e-12),
                             True)

    def test_monotone_in_delayed_norm(self):
        prob_small = scalar_problem(1.0, -1.0, 0.2, r1=1.0)
        prob_large = scalar_problem(1.0, -1.0, 0.4, r1=1.0)
        for delta in (0.3, 1.0, 4.0):
            assert cert_g_h(prob_small, delta)[0] <= cert_g_h(
                prob_large, delta)[0] + 1e-14


class TestL2Family:
    def test_constant_tables_closed_form(self):
        prob = scalar_problem(1.0, -1.0, 0.5, r1=1.0)
        value, feasible = cert_g_hat_h(prob, 2.0, 1.0)
        ref = math.exp(-1) + math.sqrt((1 - math.exp(-2)) / 2) * 0.5
        assert feasible
        assert value == pytest.approx(ref, abs=1e-8)

    def test_zero_perturbations_leave_phi_sum(self):
        prob = scalar_problem(1.0, -1.0, 0.0, r1=1.0)
        for t in (0.0, 3.0, 11.0):
            value, _ = cert_g_hat_h(prob, t, 1.0)
            assert value == pytest.approx(math.exp(-1), abs=1e-8)

    def test_phi_j_at_delta_take_one_pass(self, monkeypatch):
        # at alpha 1.5 the numerator reads phi_0 and phi_1 at delta: one
        # Mittag-Leffler pass of both betas
        passes = []
        e_ml_each = kernels.Kernels.e_ml_each

        def counted(self, betas, t):
            passes.append((list(betas), np.size(t)))
            return e_ml_each(self, betas, t)

        monkeypatch.setattr(kernels.Kernels, "e_ml_each", counted)
        prob = validate_system(1.5, [0.0, 1.0], [np.array([[-1.0]]),
                                                 np.array([[0.2]])],
                               phi=[const_phi([1.0], 1.0)] * 2)
        cert_g_hat_h(prob, 0.5, 1.0)
        assert passes == [([1, 2], 1)]

    def test_constant_window_factor(self):
        # denominator factor for constant instantaneous part c: |c| sqrt(delta)
        prob = scalar_problem(1.0, -1.0, 0.0, r1=1.0, at0=0.3)
        delta = 2.0
        value, feasible = cert_g_hat_h(prob, 0.0, delta)
        l2k = math.sqrt((1 - math.exp(-2 * delta)) / 2)
        ref = math.exp(-delta) / (1 - l2k * 0.3 * math.sqrt(delta))
        assert feasible
        assert value == pytest.approx(ref, abs=1e-7)


class TestControlledFamily:
    def make(self, b=1.0, k0=0.2, k1=0.1, a1=0.3):
        fb = ControlInput.feedback([np.array([[k0]]), np.array([[k1]])])
        prob = scalar_problem(1.0, -1.0, a1, r1=1.0, b=b)
        return prob, fb

    def test_zero_gains_reduce_to_uncontrolled(self):
        prob, _ = self.make()
        fb0 = ControlInput.feedback([np.zeros((1, 1)), np.zeros((1, 1))])
        for delta in (0.5, 2.0):
            assert cert_g_f(prob, fb0, delta)[0] == pytest.approx(
                cert_g_h(prob, delta)[0], abs=1e-12)

    def test_large_delta_limit(self):
        prob, fb = self.make()
        value, feasible = cert_g_f(prob, fb, 40.0)
        assert feasible
        assert value == pytest.approx((0.3 + 0.1) / (1 - 0.2), abs=1e-10)

    def test_excessive_instantaneous_gain_infeasible(self):
        prob, _ = self.make()
        fb = ControlInput.feedback([np.array([[5.0]]), np.array([[0.0]])])
        value, feasible = cert_g_f(prob, fb, 10.0)
        assert not feasible

    def test_hat_variant_reduces_and_adds_gain_terms(self):
        prob, fb = self.make(a1=0.2)
        fb0 = ControlInput.feedback([np.zeros((1, 1)), np.zeros((1, 1))])
        v0, _ = cert_g_hat_f(prob, fb0, 1.0, 1.0)
        vh, _ = cert_g_hat_h(prob, 1.0, 1.0)
        assert v0 == pytest.approx(vh, abs=1e-12)
        # constant B K_1 contributes |B K_1| sqrt(delta) through the L2 kernel
        v1, _ = cert_g_hat_f(prob, fb, 1.0, 1.0)
        l2k = math.sqrt((1 - math.exp(-2)) / 2)
        ref = (math.exp(-1) + l2k * (0.2 + 0.1)) / (1 - l2k * 0.2)
        assert v1 == pytest.approx(ref, abs=1e-7)


class TestFeedbackOverride:
    """A feedback passed to a certificate gets validate_system's checks."""

    BAD = {
        # K_1 = 5 breaks its declared bound 0; the closed loop diverges
        "over_bound": ControlInput.feedback([[[0.0]], [[5.0]]], [0.0, 0.0]),
        # 2 x 2 gains for m = 1
        "shape": ControlInput.feedback([np.zeros((2, 2))] * 2),
        # one gain for two lags
        "gain_count": ControlInput.feedback([[[0.1]]]),
        # one declared bound for two gains
        "bound_count": ControlInput.feedback([[[0.1]], [[0.1]]], [1.0]),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_rejected(self, case):
        fb = self.BAD[case]
        prob = scalar_problem(1.0, -1.0, 0.2, r1=1.0, b=1.0)
        with pytest.raises(DimensionMismatch):
            certify(prob, fb, [1.0])
        with pytest.raises(DimensionMismatch):
            cert_g_f(prob, fb, 1.0)
        with pytest.raises(DimensionMismatch):
            cert_g_hat_f(prob, fb, 1.0, 1.0)
        with pytest.raises(DimensionMismatch):
            delay_free_certify(scalar_problem(1.0, -1.0, 0.2, b=1.0,
                                              zero_delays=True), fb)


class TestGainBounds:
    def test_formula_arithmetic(self):
        prob = scalar_problem(1.0, -1.0, 0.0, r1=1.0, b=1.0)
        # L1(40) ~ 1, r = 1, ||B|| = 1
        assert gain_bound_uniform(prob, 40.0, 0.5) == pytest.approx(0.25,
                                                                    abs=1e-10)

    def test_b_two(self):
        prob = scalar_problem(1.0, -1.0, 0.0, r1=1.0, b=2.0)
        assert gain_bound_uniform(prob, 40.0, 0.4) == pytest.approx(0.1,
                                                                    abs=1e-10)

    def test_zero_input_norm_sentinel(self):
        prob = scalar_problem(1.0, -1.0, 0.0, r1=1.0)
        assert gain_bound_uniform(prob, 1.0, 0.3) == math.inf
        assert gain_bound_l2(prob, 1.0, 0.2) == math.inf

    def test_premise_violated(self):
        prob = scalar_problem(1.0, -1.0, 0.9, r1=1.0, b=1.0)
        with pytest.raises(PremiseViolated):
            gain_bound_uniform(prob, 40.0, 0.5)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_margin_outside_the_unit_interval_rejected(self, epsilon):
        prob = scalar_problem(1.0, -1.0, 0.0, r1=1.0, b=1.0)
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            gain_bound_uniform(prob, 40.0, epsilon)

    def test_l2_bound_value(self):
        # windows [1, 2] at both lags from t = h = 1: s_i = l2k sqrt(1)
        prob = scalar_problem(1.0, -1.0, 0.0, r1=1.0, b=1.0)
        ref = 0.2 / (2.0 * math.sqrt((1 - math.exp(-2)) / 2))
        assert gain_bound_l2(prob, 1.0, 0.2) == pytest.approx(ref, abs=1e-8)

    def test_lag_zero_load_enters_the_bound(self):
        # Atilde_0 = 0.5 gives D = 1/2 at delta 40: a gain of norm
        # epsilon / (2 L1 ||B||) = 0.3 at both lags made g_f = 1.5
        prob = scalar_problem(1.0, -1.0, 0.0, r1=1.0, at0=0.5, b=1.0)
        K = gain_bound_uniform(prob, 40.0, 0.6)
        assert K == pytest.approx(0.15, rel=1e-9)
        fb = ControlInput.feedback([np.array([[K]]), np.array([[-K]])])
        assert cert_g_f(prob, fb, 40.0)[0] == pytest.approx(0.15 / 0.35,
                                                            rel=1e-9)

    @pytest.mark.parametrize("at0", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("a1", [0.0, 0.2])
    def test_gains_at_the_bound_keep_the_value_below_one(self, at0, a1):
        # K* = eps (1 - D) / (||B|| sum_i s_i) from g_h <= 1 - eps: gains of
        # norm K* at every lag keep each family's value below 1
        prob = scalar_problem(1.0, -1.0, a1, r1=1.0, at0=at0, b=1.0)
        h = prob.system.h
        checked = 0
        for delta in (0.5, 1.0, 4.0, 40.0):
            for eps in (0.1, 0.5, 0.9):
                for bound, value in (
                        (gain_bound_uniform,
                         lambda fb: cert_g_f(prob, fb, delta)),
                        (gain_bound_l2,
                         lambda fb: cert_g_hat_f(prob, fb, h, delta))):
                    try:
                        K = bound(prob, delta, eps)
                    except PremiseViolated:
                        continue
                    fb = ControlInput.feedback([np.array([[K]]),
                                                np.array([[-K]])])
                    got, feasible = value(fb)
                    assert feasible and got < 1.0
                    checked += 1
        assert checked >= 8


class TestCertify:
    def test_contractive_fixture(self):
        rep = certify(scalar_problem(1.0, -1.0, 0.5, r1=1.0))
        assert rep.verdict == "ContractiveGAS"
        assert rep.contraction_constant <= 0.6840
        entry_at_one = min(rep.grid, key=lambda e: abs(e.delta - 1.0))
        assert entry_at_one.value == pytest.approx(
            g_h_closed_form(entry_at_one.delta, 0.5), abs=1e-8)

    def test_nonexpansive_fixture(self):
        rep = certify(scalar_problem(1.0, -1.0, 1.0, r1=1.0))
        assert rep.verdict == "NonExpansiveStable"
        assert rep.sup_bound == pytest.approx(1.0)

    def test_inconclusive_fixture(self):
        rep = certify(scalar_problem(1.0, -1.0, 2.0, r1=1.0))
        assert rep.verdict == "Inconclusive"
        assert rep.contraction_constant is None

    def test_kernel_outside_decay_sector_is_inconclusive(self, monkeypatch):
        # the quadrature out to delta = 100 used to stall at 65,536 cells
        prob = growing_kernel_problem()
        assert kernels.Kernels(1.6219, prob.system.A[0]).sector_margin() < -0.1
        forbid_quadrature(monkeypatch)
        rep = certify(prob)
        assert rep.verdict == "Inconclusive"
        assert rep.contraction_constant is None and rep.witness_delta is None
        assert [e.delta for e in rep.grid] == list(DEFAULT_DELTA_GRID)
        assert all(e.value == math.inf and not e.feasible for e in rep.grid)

    def test_steep_matrix_kernel_at_low_order_gets_a_report(self):
        # ||A0|| near 40 at alpha 0.33: integrated in s, the kernel norm
        # stalled at 65,536 cells on [0, 0.01]
        A0 = np.array([[6.39, 8.708, 39.694], [0.356, -1.911, 4.078],
                       [-1.623, -1.608, -10.183]])
        A1 = np.array([[-0.211, -0.259, 0.194], [-0.186, -0.585, 0.217],
                       [-0.245, 0.125, 0.131]])
        prob = validate_system(0.33, [0.0, 1.33], [A0, A1],
                               phi=[const_phi([1.0, 1.0, 1.0], 1.33)])
        rep = certify(prob)
        assert rep.verdict == "Inconclusive"
        assert [e.delta for e in rep.grid] == list(DEFAULT_DELTA_GRID)
        assert all(e.feasible and 1.0 < e.value < math.inf for e in rep.grid)

    def test_one_delta_certificates_outside_decay_sector(self, monkeypatch):
        # cert_g_h(prob, 100.0) used to stall in the quadrature, and
        # cert_g_h(prob, 30.0) to return a finite feasible value
        prob = growing_kernel_problem()
        forbid_quadrature(monkeypatch)
        for delta in (30.0, 100.0):
            assert cert_g_h(prob, delta) == (math.inf, False)
            assert cert_g_hat_h(prob, 1.0, delta) == (math.inf, False)
            with pytest.raises(PremiseViolated):
                gain_bound_uniform(prob, delta, 0.1)
            with pytest.raises(PremiseViolated):
                gain_bound_l2(prob, delta, 0.1)

    def test_sector_margin(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +-i
        K = kernels.Kernels
        assert K(0.9, rot).sector_margin() == pytest.approx(0.05 * math.pi)
        assert K(1.1, rot).sector_margin() == pytest.approx(-0.05 * math.pi)
        assert K(2.0, np.array([[-1.0]])).sector_margin() == 0.0
        # a zero eigenvalue has no argument: phi_0 stays bounded there
        assert K(1.0, np.zeros((2, 2))).sector_margin() == math.inf

    def test_zero_kernel_matrix_still_certifies(self):
        # x' = -x(t - 1): A0 = 0 lies on no growing ray, so certify still
        # integrates and reports the finite values 1 + delta
        rep = certify(scalar_problem(1.0, 0.0, -1.0, r1=1.0),
                      delta_grid=[0.5, 1.0])
        assert [e.value for e in rep.grid] == pytest.approx([1.5, 2.0])
        assert all(e.feasible for e in rep.grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyGrid):
            certify(scalar_problem(1.0, -1.0, 0.5), delta_grid=[])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("a0", [-1.0, 0.5])
    def test_non_finite_or_nonpositive_delta_rejected(self, monkeypatch, a0,
                                                      bad):
        # a0 = 0.5 puts the kernel outside the decay sector, where no
        # quadrature runs: a bad delta used to give an Inconclusive report.
        # kernels._edges checks the deltas
        def no_kernel(*args):
            raise AssertionError("kernel built")

        monkeypatch.setattr(certificates, "Kernels", no_kernel)
        monkeypatch.setattr(certificates, "_kernels", no_kernel)
        prob = scalar_problem(0.8, a0, 0.2, r1=1.0)
        match = ("deltas must be finite" if not math.isfinite(bad)
                 else "deltas must be positive and increase")
        with pytest.raises(ValueError, match=match):
            certify(prob, delta_grid=[1.0, bad])
        with pytest.raises(ValueError, match=match):
            cert_g_h(prob, bad)

    def test_report_serialization(self):
        rep = certify(scalar_problem(1.0, -1.0, 0.5, r1=1.0),
                      delta_grid=[0.5, 1.0])
        doc = rep.as_dict()
        assert set(doc) == {"verdict", "contraction_constant",
                            "witness_delta", "grid", "sup_bound"}
        assert len(doc["grid"]) == 2

    def test_unsorted_grid_with_duplicates_keeps_order(self):
        prob = scalar_problem(1.0, -1.0, 0.5, r1=1.0)
        grid = [2.0, 0.5, 2.0, 1.0]
        rep = certify(prob, delta_grid=grid)
        assert [e.delta for e in rep.grid] == grid
        for e in rep.grid:
            assert e.value == certify(prob, delta_grid=[e.delta]).grid[0].value

    @pytest.mark.parametrize("fixture, t", [
        ("scalar_nonexpansive.json", 1e10),
        ("scalar_inconclusive.json", 1e15),
        ("delay_steps.json", 1e15),
    ])
    def test_large_window_start_keeps_the_default_verdict(self, fixture, t):
        # t + delta rounds to t for small delta: the window widths must
        # still be delta, not the rounded difference (0 for an empty one),
        # so the windowed-L2 values at t are those at the default start h
        prob = load_problem(f"{FIXTURES}/{fixture}")
        for delta in DEFAULT_DELTA_GRID[::4]:
            assert cert_g_hat_h(prob, t, delta) == cert_g_hat_h(
                prob, prob.system.h, delta)

    @pytest.mark.parametrize("fixture", ["scalar_contractive.json",
                                         "frac_delay_a07.json", None])
    def test_constant_coefficient_windows_do_not_depend_on_start(self,
                                                                 fixture):
        # None: a problem under feedback, so the B K_i windows run too
        prob = (load_problem(f"{FIXTURES}/{fixture}") if fixture else
                scalar_problem(0.8, -2.0, 0.3, r1=0.5, at0=0.2, b=1.5,
                               control=ControlInput.feedback(
                                   [[[-0.2]], [[0.1]]])))
        near = [cert_g_hat_f(prob, None, 10.0, d) for d in DEFAULT_DELTA_GRID]
        far = [cert_g_hat_f(prob, None, 1e16, d) for d in DEFAULT_DELTA_GRID]
        assert any(feasible for _, feasible in near)
        assert far == near

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_window_start_rejected(self, t):
        prob = scalar_problem(0.8, -1.0, 0.5, r1=1.0)
        with pytest.raises(ValueError, match="window start"):
            cert_g_hat_h(prob, t, 1.0)
        with pytest.raises(ValueError, match="window start"):
            gain_bound_l2(prob, 1.0, 0.5, t=t)

    @pytest.mark.parametrize("alpha, A0", [
        (1.2, np.array([[-2.0]])),
        (0.8, np.diag([-1.0, -2.0, -4.0])),
    ])
    def test_default_grid_quadrature_converges(self, alpha, A0):
        n = A0.shape[0]
        phis = [const_phi(np.ones(n), 1.0)] * math.ceil(alpha)
        prob = validate_system(alpha, [0.0, 1.0], [A0, 0.1 * np.eye(n)],
                               phi=phis)
        rep = certify(prob)
        assert len(rep.grid) == len(DEFAULT_DELTA_GRID)

    @staticmethod
    def _exact_l1(delta):
        # integral_0^delta |phi| for alpha = 1.2, A0 = -2
        return float(exact_l1(1.2, -2.0, (delta,))[0][0])

    def test_oscillating_kernel_l1_against_exact_primitive(self):
        # E_{1.2,1.2}(-2 s^1.2) changes sign; L1 sums the primitive between
        # its zeros
        ker = kernels.Kernels(1.2, np.array([[-2.0]]))
        table = ker.norm_integrals(DEFAULT_DELTA_GRID)
        assert table[-1] == pytest.approx(self._exact_l1(100.0), rel=1e-13)

    def test_one_delta_l1_of_oscillating_kernel_converges(self):
        # the zero near s = 1.99, found on the halving edges, splits [0, 100]
        # into two lobes of the primitive
        ker = kernels.Kernels(1.2, np.array([[-2.0]]))
        got = kernels.phi_alpha_l1(ker, 100.0)
        assert got == pytest.approx(self._exact_l1(100.0), rel=1e-13)

    def test_one_delta_certificates_integrate_over_halving_edges(self):
        # a single delta takes the halving edges inside norm_integrals, so
        # the one-delta certificate and gain bound converge where one graded
        # mesh over [0, 100] stalled, to the quadrature tolerance
        A0 = np.array([[-2.0]])
        prob = validate_system(1.2, [0.0, 1.0], [A0, np.array([[0.3]])],
                               B=np.array([[1.0]]),
                               phi=[const_phi([1.0], 1.0)] * 2)
        ker = kernels.Kernels(1.2, A0)
        l1 = self._exact_l1(100.0)
        phi_sum = abs(sum(ker.phi_j(j, [100.0])[0, 0, 0] for j in range(2)))
        value, feasible = cert_g_h(prob, 100.0)
        assert feasible
        assert value == pytest.approx(phi_sum + 0.3 * l1, rel=1e-9)
        assert gain_bound_uniform(prob, 100.0, 0.1) == pytest.approx(
            0.1 / (2 * l1), rel=1e-9)

    def test_edge_just_past_a_sign_change_is_integrated(self):
        # the first zero is near 1.99, and it splits the segment [0, 2.3]
        ker = kernels.Kernels(1.2, np.array([[-2.0]]))
        table = ker.norm_integrals([2.3, 1000.0])
        assert table[0] == pytest.approx(self._exact_l1(2.3), rel=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.05, 0.6), st.floats(0.05, 0.6))
    def test_value_monotone_in_perturbations(self, small, extra):
        delta = 1.0
        v1 = cert_g_h(scalar_problem(1.0, -1.0, small, r1=1.0), delta)[0]
        v2 = cert_g_h(scalar_problem(1.0, -1.0, small + extra, r1=1.0),
                      delta)[0]
        assert v2 >= v1 - 1e-12


def bump_feedback_problem():
    """Scalar alpha = 0.8 problem under feedback whose tables live on [0, 3].

    The lag-0 perturbation is a bump just after the delay h = 0.6, so the
    windowed-L2 family (window start h) beats the uniform one.
    """
    h = 0.6
    ts = np.linspace(0.0, 3.0, 31)
    at0 = TimeFunctionTable(
        ts, 1.5 * np.exp(-((ts - 0.8) / 0.15) ** 2)[:, None, None], "linear")
    at1 = TimeFunctionTable(ts, 0.1 * np.cos(ts)[:, None, None], "linear")
    B = TimeFunctionTable(ts, (1.0 + 0.2 * np.sin(ts))[:, None, None],
                          "linear")
    prob = validate_system(0.8, [0.0, h], [np.array([[-1.5]]),
                                            np.array([[0.2]])],
                           [at0, at1], B, [const_phi([1.0], h)])
    fb = ControlInput.feedback([np.array([[-0.1]]), np.array([[0.05]])])
    return prob, fb, h


class TestGridArrays:
    """certify reads the uniform family alone, even where the windowed-L2
    value at h is smaller."""

    def test_grid_values_equal_the_one_delta_certificates(self):
        prob, fb, h = bump_feedback_problem()
        deltas = [0.1, 0.5, 1.0, 2.0]
        uniform = {d: cert_g_f(prob, fb, d) for d in deltas}
        assert any(cert_g_hat_f(prob, fb, h, d)[0] < uniform[d][0]
                   for d in deltas)
        # a one-delta grid integrates the kernel over the edges the one-delta
        # certificates use: bit for bit
        for d in deltas:
            e = certify(prob, fb, [d]).grid[0]
            assert (e.value, e.feasible) == uniform[d]
        # a longer grid integrates cumulatively, to the quadrature tolerance
        rep = certify(prob, fb, deltas[::-1] + [0.5])
        assert [e.delta for e in rep.grid] == deltas[::-1] + [0.5]
        for e in rep.grid:
            assert e.feasible == uniform[e.delta][1]
            assert e.value == pytest.approx(uniform[e.delta][0], rel=1e-9)

    def test_grid_past_the_table_end_drops_only_its_l2_values(self):
        prob, fb, h = bump_feedback_problem()
        deltas = [0.5, 2.0, 3.0, 5.0]       # windows [h, h + delta], 3 ends
        rep = certify(prob, fb, deltas)
        for d, e in zip(deltas, rep.grid):
            g = cert_g_f(prob, fb, d)
            if h + d <= 3.0:
                assert cert_g_hat_f(prob, fb, h, d)[0] < g[0]
            else:
                with pytest.raises(WindowOutOfRange):
                    cert_g_hat_f(prob, fb, h, d)
            assert e.feasible == g[1]
            assert e.value == pytest.approx(g[0], rel=1e-9)


class TestLagTerms:
    """Every certificate reads the lags one way: the kernel matrix sums the
    A_i with r_i = 0, and each table of lag i is windowed over
    [max(t, r_i), t + delta]."""

    def test_delayed_coefficient_is_windowed_where_it_acts(self):
        # Atilde_1 multiplies x(tau - 1) at tau, so its window from t = h = 1
        # is [1, 1 + delta], where it is 3; a window on [0, 1] read 0 there
        # and certified ContractiveGAS, g = 0.37607 at delta = 1
        step = TimeFunctionTable(np.array([0.0, 1.0]),
                                 np.array([[[0.0]], [[3.0]]]), "const")
        prob = validate_system(0.9, [0.0, 1.0], [np.array([[-1.0]]),
                                                  np.array([[0.0]])],
                               [None, step], None, [const_phi([1.0], 1.0)])
        rep = certify(prob)
        assert rep.verdict == "Inconclusive"
        assert min(e.value for e in rep.grid) == pytest.approx(1.0327,
                                                               abs=1e-4)
        assert min(cert_g_hat_h(prob, 1.0, d)[0]
                   for d in DEFAULT_DELTA_GRID) == pytest.approx(1.0330,
                                                                 abs=1e-4)
        traj = solve_trajectory(prob, align_grid(0.01, 12.0, [0.0, 1.0]))
        sup = np.abs(traj.states[:, 0])
        assert sup[traj.times >= 10.0].max() > 100 * sup[traj.times < 2.0].max()

    def test_windowed_l2_value_at_one_start_certifies_nothing(self):
        # Atilde_1 steps from 0 to 3 at t = 2: from t = h = 1 the lag-1
        # window [1, 1 + delta] reads 0 for delta <= 1, and g_hat_h(1, 1)
        # = 0.3761; certify read it as ContractiveGAS, yet x grows
        step = TimeFunctionTable(np.array([0.0, 2.0]),
                                 np.array([[[0.0]], [[3.0]]]), "const")
        prob = validate_system(0.9, [0.0, 1.0], [np.array([[-1.0]]),
                                                  np.array([[0.0]])],
                               [None, step], None, [const_phi([1.0], 1.0)])
        value, feasible = cert_g_hat_h(prob, 1.0, 1.0)
        assert feasible and value == pytest.approx(0.3761, abs=1e-4)
        rep = certify(prob)
        assert rep.verdict == "Inconclusive"
        assert min(e.value for e in rep.grid) == pytest.approx(1.0327,
                                                               abs=1e-4)
        traj = solve_trajectory(prob, align_grid(0.01, 12.0, [0.0, 1.0]))
        sup = np.abs(traj.states[:, 0])
        assert sup[traj.times >= 10.0].max() > 100 * sup[traj.times < 2.0].max()

    def test_delay_free_split_reads_the_kernel_matrix(self):
        # A = [A0 - S, S] at lags 0, 0 is the system of [A0]: same verdict,
        # witness and values (S is exact in binary, so the sums are too)
        A0 = np.array([[-1.0, 0.5], [0.0, -2.0]])
        S = np.array([[0.25, -0.125], [0.5, 0.25]])
        ts = np.linspace(0.0, 200.0, 21)
        T = TimeFunctionTable(ts, 0.2 * np.exp(-ts / 20.0)[:, None, None]
                              * np.array([[1.0, 0.5], [-0.5, 1.0]]),
                              "linear")
        phi = [const_phi([1.0, -1.0], 0.0)]
        split = validate_system(0.8, [0.0, 0.0], [A0 - S, S], [T, None],
                                phi=phi)
        one = validate_system(0.8, [0.0], [A0], [T], phi=phi)
        got, ref = certify(split), certify(one)
        assert ref.verdict == "ContractiveGAS"
        assert (got.verdict, got.witness_delta) == (ref.verdict,
                                                    ref.witness_delta)
        for e, f in zip(got.grid, ref.grid):
            assert (e.delta, e.feasible) == (f.delta, f.feasible)
            assert e.value == pytest.approx(f.value, rel=1e-12)

    def test_open_loop_input_has_no_sup_bound(self):
        # x' = -x + 1 from x(0) = 0 rises to 1 - e^-t; the window map of the
        # forced system is not derived, so no bound is claimed
        one = TimeFunctionTable(np.array([0.0]), np.array([[1.0]]), "const")
        prob = validate_system(1.0, [0.0], [np.array([[-1.0]])], None,
                               np.array([[1.0]]), [const_phi([0.0], 0.0)],
                               control=ControlInput.open_loop(one))
        rep = certify(prob)
        assert rep.verdict == "ContractiveGAS" and rep.sup_bound is None
        assert rep.as_dict()["sup_bound"] is None
        free = certify(prob, ControlInput.none())
        assert free.sup_bound == 0.0


class TestDelayFreeBounds:
    def test_pure_exponential(self):
        prob = scalar_problem(1.0, -0.5, -0.5, zero_delays=True)
        b = delay_free_certify(prob)
        assert b.K0_bar == 1.0
        assert b.K1_bar == pytest.approx(1.0, abs=1e-6)
        assert b.K2_bar == pytest.approx(1.0, abs=1e-6)
        assert b.verdict == "GloballyAsymptoticallyStable"

    def test_loaded_variant(self):
        prob = scalar_problem(1.0, -0.5, -0.5, zero_delays=True, at0=0.5)
        b = delay_free_certify(prob)
        assert b.condition_holds
        assert b.K2_bar == pytest.approx(2.0, abs=1e-5)

    def test_condition_fails(self):
        prob = scalar_problem(1.0, -0.5, -0.5, zero_delays=True, at0=1.5)
        b = delay_free_certify(prob)
        assert not b.condition_holds
        assert b.K2_bar is None
        assert b.verdict == "Inconclusive"

    def test_requires_zero_delays(self):
        with pytest.raises(DelaysNotZero):
            delay_free_certify(scalar_problem(1.0, -1.0, 0.5, r1=1.0))

    def test_growing_kernel_is_not_integrable(self):
        # alpha 0.8, A0 = 0.5: E_{a,a}(0.5 t^a) grows, phi has no finite L1
        with pytest.raises(KernelNotIntegrable, match="not integrable"):
            delay_free_certify(scalar_problem(0.8, 0.5))

    def test_gate_runs_before_kernel_sampling(self, monkeypatch):
        calls = self.sampled(monkeypatch)
        with pytest.raises(KernelNotIntegrable, match="not integrable"):
            delay_free_certify(scalar_problem(0.8, 0.5))
        assert calls == []

    @staticmethod
    def sampled(monkeypatch):
        """(betas, points) of the Kernels.e_ml_each passes to come, which
        every kernel sample of a certificate takes."""
        calls = []
        method = kernels.Kernels.e_ml_each

        def counted(self, betas, t):
            calls.append((len(betas), np.size(t)))
            return method(self, betas, t)

        monkeypatch.setattr(kernels.Kernels, "e_ml_each", counted)
        return calls

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_monotone_kernel_takes_exact_constants(self, monkeypatch, alpha):
        # phi_0 = E_{a,1}(lam t^a) falls from 1 and phi >= 0: K0 = 1 and
        # K1 = 1 / |lam| without a Mittag-Leffler value, also after a
        # constant gain folds into the kernel (lam = -0.5 - 0.5)
        fb = ControlInput.feedback([np.array([[-0.5]]), np.array([[0.0]])])
        calls = self.sampled(monkeypatch)
        for prob, lam in ((scalar_problem(alpha, -2.0, 0.5, zero_delays=True),
                           -1.5),
                          (scalar_problem(alpha, -0.5, 0.0, zero_delays=True,
                                          b=1.0, control=fb), -1.0)):
            b = delay_free_certify(prob)
            assert b.K0_bar == 1.0 and b.K1_bar == 1.0 / abs(lam)
        assert calls == []

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_normal_kernel_takes_exact_constants(self, monkeypatch, alpha):
        # a symmetric kernel with eigenvalues -0.8 and -2 is monotone: K0 =
        # cond(V) and K1 = cond(V) / 0.8 without a Mittag-Leffler value
        Q = np.array([[0.6, -0.8], [0.8, 0.6]])
        A0 = Q @ np.diag([-0.8, -2.0]) @ Q.T
        prob = validate_system(alpha, [0.0, 1.0], [A0, 0.1 * np.eye(2)],
                               phi=[const_phi([1.0, 0.5], 1.0)])
        ker = kernels.Kernels(alpha, A0)
        assert ker.monotone
        calls = self.sampled(monkeypatch)
        b = delay_free_certify(validate_system(
            alpha, [0.0], [A0], phi=[const_phi([1.0, 0.5], 0.0)]))
        assert b.K0_bar == ker._cond == pytest.approx(1.0, abs=1e-15)
        assert b.K1_bar == ker._cond / abs(ker.lam_max)
        assert b.K1_bar == pytest.approx(1.0 / 0.8, rel=1e-14)
        assert calls == []
        # certify takes the same kernel's L1 grid without quadrature
        quad = []
        integrate = kernels.weighted_singular_integral
        monkeypatch.setattr(kernels, "weighted_singular_integral",
                            lambda *args: quad.append(args) or integrate(
                                *args))
        certify(prob)
        assert quad == []

    @pytest.mark.parametrize("alpha, A0", [
        (0.7, [[-1.0, 0.5], [0.0, -2.0]]),
        (1.5, [[-1.0]]),
    ])
    def test_other_kernels_sample_k0(self, monkeypatch, alpha, A0):
        # a matrix kernel, or one of order above 1: K0 is the largest of
        # 2,001 samples of every phi_j, all from one pass
        k = math.ceil(alpha)
        phi = [const_phi(np.ones(len(A0)), 0.0)] * k
        prob = validate_system(alpha, [0.0], [np.array(A0)], phi=phi)
        calls = self.sampled(monkeypatch)
        b = delay_free_certify(prob)
        assert [c for c in calls if c[1] == 2001] == [(k, 2001)]
        assert b.K0_bar >= 1.0

    def test_zero_eigenvalue_is_not_integrable(self):
        # alpha 0.5, A0 = [[0, 1], [0, -1]]: phi_0 tends to a nonzero limit
        prob = validate_system(0.5, [0.0], [np.array([[0.0, 1.0],
                                                      [0.0, -1.0]])],
                               phi=[const_phi([1.0, 0.0], 0.0)])
        with pytest.raises(KernelNotIntegrable, match="zero eigenvalue"):
            delay_free_certify(prob)

    def test_verdict_follows_the_smallness_condition(self):
        # the kernel of E_{1/2,1}(-t^(1/2)) decays only like t^(-1/2); the
        # condition alone decides, and the report carries no decay flag
        for at0, verdict in ((0.5, "GloballyAsymptoticallyStable"),
                             (1.5, "Inconclusive")):
            b = delay_free_certify(scalar_problem(0.5, -0.5, -0.5,
                                                  zero_delays=True, at0=at0))
            assert b.verdict == verdict
            assert list(b.as_dict()) == ["K0", "K1", "K2", "verdict"]

    def test_open_loop_input_enters_the_sup_bound(self):
        # x' = -x + 1 from x(0) = 0 rises to 1 - e^-t: the bound must reach
        # the forced response, not only the free one (which is zero)
        one = TimeFunctionTable(np.array([0.0]), np.array([[1.0]]), "const")
        prob = validate_system(1.0, [0.0], [np.array([[-1.0]])], None,
                               np.array([[1.0]]), [const_phi([0.0], 0.0)],
                               control=ControlInput.open_loop(one))
        b = delay_free_certify(prob)
        assert b.condition_holds and b.K2_bar == 1.0
        traj = solve_delay_free(prob, align_grid(0.01, 10.0, [0.0]))
        assert np.max(np.abs(traj.states)) > 0.9999
        assert np.max(np.abs(traj.states)) <= b.K2_bar

    def test_open_loop_bound_dominates_simulation(self):
        # criterion 6's construction with a bounded open-loop input
        rng = np.random.default_rng(20261019)
        for alpha in (0.7, 1.0, 1.2):
            n = 2
            A_bar = random_stable_matrix(rng, n)
            split = rng.normal(scale=0.2, size=(n, n))
            ts = np.linspace(0.0, 20.0, 41)
            u = TimeFunctionTable(ts, np.stack([np.sin(ts), np.cos(2 * ts)],
                                               axis=1), "linear")
            B = rng.normal(size=(n, 2))
            phi = [const_phi(rng.normal(size=n), 0.0)] + (
                [const_phi(np.zeros(n), 0.0)] if alpha > 1 else [])
            prob = validate_system(alpha, [0.0, 0.0], [A_bar - split, split],
                                   [0.1 * rng.normal(size=(n, n)),
                                    np.zeros((n, n))], B, phi,
                                   control=ControlInput.open_loop(u))
            b = delay_free_certify(prob)
            free = delay_free_certify(prob, ControlInput.none())
            assert b.condition_holds and b.K2_bar > free.K2_bar
            traj = solve_delay_free(prob, align_grid(0.01, 20.0, [0.0, 0.0]))
            assert np.max(np.linalg.norm(traj.states, 2, axis=1)) <= b.K2_bar

    @pytest.mark.parametrize("alpha", [0.3, 0.45, 0.7, 0.9, 1.0])
    def test_scalar_l1_is_exact_up_to_order_one(self, alpha):
        # phi >= 0 with Laplace transform (s^a + 1.5)^-1: K1 = 1 / 1.5
        prob = scalar_problem(alpha, -2.0, 0.5, zero_delays=True)
        assert delay_free_certify(prob).K1_bar == 1.0 / 1.5

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("T", [10.0, 1e3, 1e5])
    def test_scalar_l1_splits_at_any_horizon(self, alpha, T):
        # integral_T^inf phi = E_{a,1}(lam T^a) / |lam|, from
        # z E_{a,a+1}(z) = E_{a,1}(z) - 1
        lam = -1.5
        ker = kernels.Kernels(alpha, np.array([[lam]]))
        head = ker.norm_integrals(T)[0]
        tail = ker.e_ml(1.0, T)[0, 0, 0] / abs(lam)
        assert head + tail == pytest.approx(1.0 / abs(lam), rel=1e-13)

    def test_order_below_the_ratio_test_returns_bounds(self):
        # alpha 0.3: a scalar kernel up to order 1 takes the exact route
        prob = scalar_problem(0.3, -1.0, 0.2, zero_delays=True, at0=0.3)
        b = delay_free_certify(prob)
        assert b.K1_bar == 1.0 / 0.8
        assert b.condition_holds and b.load == pytest.approx(0.3 / 0.8)
        assert b.K2_bar == pytest.approx(b.K0_bar / (1.0 - 0.3 / 0.8))

    def test_constant_gain_folds_into_kernel(self):
        fb = ControlInput.feedback([np.array([[-0.5]]), np.array([[0.0]])])
        prob = scalar_problem(1.0, -0.5, 0.0, zero_delays=True, b=1.0,
                              control=fb)
        b = delay_free_certify(prob)
        # effective matrix -1: same bounds as the pure exponential
        assert b.K1_bar == pytest.approx(1.0, abs=1e-6)
        assert b.condition_holds


class TestL1ToInfinity:
    """``_l1_to_infinity`` on kernels whose tails decay like t^(-1-alpha),
    against references: conservative, and within 3%."""

    @pytest.mark.parametrize("alpha", [1.2, 1.5])
    def test_scalar_above_order_one(self, alpha):
        # exact L1 up to T = 40 plus the signed tail |E_{a,1}(-T^a)|, since
        # E_{a,a}(-s^a) has no zero past s = 17 at these orders
        T = 40.0
        head, zeros = exact_l1(alpha, -1.0, (T,))
        assert zeros[-1] < 17.0
        ref = head[0] + abs(mlf.ml_scalar_array(alpha, 1.0,
                                                np.array([-T ** alpha]))[0])
        got = certificates._l1_to_infinity(
            kernels.Kernels(alpha, np.array([[-1.0]])))
        assert ref <= got <= ref * (1.0 + 1e-5)

    @staticmethod
    def lobe_sum_to_infinity(ker):
        """K1 of a scalar kernel, 1 < alpha < 2, as the exact primitive
        P = E_{a,1}(lam s^a) / lam summed between 0, the zeros of phi on
        the edges last 2^-k, k = 20..0, and infinity, where P is 0."""
        alpha, lam = ker.alpha, ker.lam_max
        last = (kernels._last_zero(alpha) / abs(lam)) ** (1.0 / alpha)
        zeros = ker._zeros(np.append(0.0, last * 2.0 ** -np.arange(
            20, -1, -1.0)))
        prim = np.append(1.0 / lam, ker.e_ml(1.0, zeros)[:, 0, 0] / lam)
        return float(np.sum(np.abs(np.diff(prim))) + abs(prim[-1]))

    @pytest.mark.parametrize("lam", [-0.3, -1.0, -5.0])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.2, 1.5, 1.8, 1.95, 1.99])
    def test_scalar_k1_against_the_lobe_sum(self, alpha, lam):
        # L1 up to the proven last zero plus the one-signed tail past it
        ker = kernels.Kernels(alpha, np.array([[lam]]))
        got = certificates._l1_to_infinity(ker)
        ref = (self.lobe_sum_to_infinity(ker) if alpha > 1
               else 1.0 / abs(lam))
        assert abs(got - ref) <= 4e-15 * ref

    # scipy quad on 480 geometric panels of ||phi|| from 1e-8 to 2e7 (and
    # [0, 1e-8]), plus the asymptotic tail ||A0^-2|| T^-a / (a |Gamma(-a)|)
    # at T = 2e7
    @pytest.mark.parametrize("A0, alpha, ref", [
        ([[-1.0, 0.5], [0.0, -2.0]], 0.8, 1.0442330495),
        ([[-1.0, 0.5], [0.0, -2.0]], 0.45, 1.0430233458),
        ([[-1.0, 0.5], [0.0, -2.0]], 0.35, 1.0428634162),
        ([[-1.0, 5.0], [0.0, -2.0]], 0.4, 2.7939896266),
        # eigenvalues +-i: Re lambda = 0, yet outside the sector
        ([[0.0, -1.0], [1.0, 0.0]], 0.5, 1.7939389948),
    ])
    def test_matrix_kernels(self, A0, alpha, ref):
        got = certificates._l1_to_infinity(kernels.Kernels(alpha,
                                                           np.array(A0)))
        assert ref <= got <= 1.03 * ref

    def test_scaling_law_where_zeros_crowd(self):
        # phi of lam c at s is c^(1 - 1/a) times phi of lam at c^(1/a) s,
        # so L1(inf) scales as 1/c; at alpha 1.99 and lam = -5 the
        # half-period of phi is 1.4 out to s = 1,600, and at 1.999 phi has
        # 15,633 zeros
        for alpha in (1.99, 1.999):
            one = certificates._l1_to_infinity(kernels.Kernels(alpha, A1))
            five = certificates._l1_to_infinity(kernels.Kernels(alpha,
                                                                5.0 * A1))
            assert five == pytest.approx(one / 5.0, rel=1e-12), alpha

    def test_one_cumulative_integration(self, monkeypatch):
        calls = []
        integrate = kernels.Kernels.norm_integrals

        def counted(self, deltas):
            calls.append(np.size(deltas))
            return integrate(self, deltas)

        monkeypatch.setattr(kernels.Kernels, "norm_integrals", counted)
        certificates._l1_to_infinity(
            kernels.Kernels(0.35, np.array([[-1.0, 0.5], [0.0, -2.0]])))
        assert calls == [2 * kernels._HALVINGS + 1]

    def test_growing_increments_raise(self, monkeypatch):
        # a table whose last increment exceeds the one before it
        def growing(self, deltas):
            return np.cumsum(np.append(np.ones(np.size(deltas) - 1), 2.0))

        monkeypatch.setattr(kernels.Kernels, "norm_integrals", growing)
        # a non-normal kernel: a monotone one takes K1 exactly
        with pytest.raises(KernelNotIntegrable,
                           match=r"L1 increments stopped shrinking by "
                                 r"T = .* \(ratio 2\)"):
            certificates._l1_to_infinity(
                kernels.Kernels(0.8, np.array([[-1.0, 0.5], [0.0, -2.0]])))


def march_sups(prob, horizon, step=0.01):
    """max |x_i| of the march over [0, 5] and over the last 5 time units."""
    traj = solve_trajectory(prob, align_grid(step, horizon,
                                             prob.system.delays))
    x = np.max(np.abs(traj.states), axis=1)
    return (float(x[traj.times <= 5.0].max()),
            float(x[traj.times >= horizon - 5.0].max()))


class TestHighOrder:
    def make(self, alpha, phis):
        return validate_system(alpha, [0.0, 1.0],
                               [np.diag([-2.0, -3.0]), 0.1 * np.eye(2)],
                               phi=phis)

    def test_order_too_low(self):
        phis = [const_phi([0.0, 0.0], 1.0), const_phi([0.0, 0.0], 1.0)]
        with pytest.raises(OrderTooLow):
            high_order_check(self.make(1.5, phis))

    def test_nonzero_low_index_function_fails(self):
        phis = [const_phi([1.0, 0.0], 1.0), const_phi([0.0, 0.0], 1.0),
                const_phi([0.0, 0.0], 1.0)]
        res = high_order_check(self.make(2.5, phis))
        assert not res.zeroing_holds
        assert res.verdict == "Inconclusive"

    def test_zeroed_functions_pass(self):
        # both diagnostics pass, yet every kernel grows at alpha 2.5: the
        # march (step 0.01) grows from 4.4 on [0, 5] to 7.3e11 on [55, 60]
        phis = [const_phi([0.0, 0.0], 1.0), const_phi([0.0, 0.0], 1.0),
                const_phi([1.0, 2.0], 1.0)]
        prob = self.make(2.5, phis)
        res = high_order_check(prob)
        assert res.zeroing_holds
        assert res.spectral_passes
        assert res.verdict == "Inconclusive"
        early, late = march_sups(prob, 60.0)
        assert early == pytest.approx(4.44, abs=0.01) and late > 1e11

    def test_alpha_two_requires_zero_phi0(self):
        phis = [const_phi([1.0, 0.0], 1.0), const_phi([0.0, 0.0], 1.0)]
        res = high_order_check(self.make(2.0, phis))
        assert not res.zeroing_holds

    def test_third_order_grows(self):
        # D^3 x = -x: s^3 = -1 has the root e^(i pi / 3) with Re s = 1/2
        zero = const_phi([0.0], 0.0)
        prob = validate_system(3.0, [0.0], [np.array([[-1.0]])],
                               phi=[zero, zero, const_phi([1.0], 0.0)])
        res = high_order_check(prob)
        assert res.zeroing_holds and res.spectral_passes
        assert res.verdict == "Inconclusive"
        early, late = march_sups(prob, 20.0)
        assert early == pytest.approx(5.01, abs=0.01) and late > 1e4


def one_delay_problem(alpha, a0, a1, r1):
    """x of order alpha with delays [0, r1], phi_0 = 1 and every other
    phi_j = 0."""
    phi = [const_phi([float(j == 0)], r1) for j in range(math.ceil(alpha))]
    return validate_system(alpha, [0.0, r1],
                           [np.array([[a0]]), np.array([[a1]])], phi=phi)


def grid_minimum(rep):
    return min(e.value for e in rep.grid if e.feasible)


def load(prob):
    """q = K1 sum_i a_i of the module docstring."""
    return (kernels._l1_to_infinity(kernels._kernels(prob.system))
            * sum(bound for _, bound, _ in certificates._lag_terms(prob,
                                                                   None)))


class TestSmallGainLoad:
    """A grid verdict stands only where q = K1 sum_i a_i supports it."""

    @pytest.mark.parametrize("alpha, a0, a1, r1, g, q", [
        # ROADMAP item 1: the marches grow, to 113 and 7.2 on [90, 100]
        (1.8, -1.0, -0.43, 2.0, 0.99166, 1.7508),
        (1.8, -1.0, 0.43, 5.0, 0.99166, 1.7508),
        # CLI test_kernel_near_order_two_gets_a_report
        (1.95, -0.5975, 0.1, 0.5, 0.43142, 2.7139)])
    def test_load_above_one_takes_the_verdict(self, alpha, a0, a1, r1, g, q):
        prob = one_delay_problem(alpha, a0, a1, r1)
        rep = certify(prob)
        assert grid_minimum(rep) == pytest.approx(g, abs=1e-5)
        assert load(prob) == pytest.approx(q, abs=1e-4)
        assert rep.verdict == "Inconclusive"
        assert rep.contraction_constant is None and rep.witness_delta is None
        assert rep.sup_bound is None

    @pytest.mark.parametrize("prob", [
        # ROADMAP item 1 at alpha 2: g = 0.4385 for every r, and the march
        # grows at r = 4 (785 on [180, 200]); the stable sector is empty
        one_delay_problem(2.0, -1.0, 0.1, 4.0),
        # eigenvalues +-i at alpha 1: the grid's minimum is 1
        validate_system(1.0, [0.0], [np.array([[0.0, 1.0], [-1.0, 0.0]])],
                        phi=[const_phi([1.0, 1.0], 0.0)])],
        ids=["alpha-2", "rotation"])
    def test_kernel_on_the_sector_edge_is_inconclusive(self, prob):
        rep = certify(prob)
        assert grid_minimum(rep) <= 1.0 + 1e-12
        with pytest.raises(KernelNotIntegrable, match="not integrable"):
            load(prob)
        assert rep.verdict == "Inconclusive"

    def test_nonexpansive_fixture_has_load_one(self):
        prob = load_problem(f"{FIXTURES}/scalar_nonexpansive.json")
        assert load(prob) == 1.0
        assert certify(prob).verdict == "NonExpansiveStable"

    def test_load_only_after_the_grid_certifies(self, monkeypatch):
        def fail(ker):
            raise AssertionError("K1 computed")

        monkeypatch.setattr(certificates, "_l1_to_infinity", fail)
        rep = certify(scalar_problem(1.0, -1.0, 2.0, r1=1.0))
        assert rep.verdict == "Inconclusive"

    def test_quadrature_failure_is_raised(self, monkeypatch):
        def stalled(ker):
            raise QuadratureNotConverged("stalled")

        monkeypatch.setattr(certificates, "_l1_to_infinity", stalled)
        with pytest.raises(QuadratureNotConverged, match="stalled"):
            certify(scalar_problem(1.0, -1.0, 0.5, r1=1.0))


def exact_stable(alpha, a1):
    """Whether x of order alpha with a0 = -1, one delay and a1 is stable
    for every delay (Cermak, Hornicek and Kisela, 2016): |a1| below 1 at
    alpha <= 1 and below sin(alpha pi / 2) at 1 < alpha < 2."""
    return abs(a1) < (1.0 if alpha <= 1 else math.sin(alpha * math.pi / 2))


class TestExactScalarYardstick:
    """Verdicts on the scalar grid a0 = -1, r = 1, whose exact
    delay-independent answer is closed form; boundary points are set
    aside (|a1| = 1 at alpha <= 1, none at alpha > 1)."""

    ALPHAS = (0.3, 0.5, 0.7, 0.9, 1.0, 1.1, 1.3, 1.5, 1.7, 1.9)
    A1S = tuple(s * k / 10 for k in range(1, 13) for s in (-1, 1))

    def points(self):
        for alpha in self.ALPHAS:
            for a1 in self.A1S:
                if not (alpha <= 1 and abs(a1) == 1.0):
                    yield alpha, a1, one_delay_problem(alpha, -1.0, a1, 1.0)

    def count(self, certified):
        """(stable points certified, false verdicts) at alpha <= 1 and at
        alpha > 1."""
        counts = {False: [0, 0], True: [0, 0]}
        for alpha, a1, prob in self.points():
            if certified(prob):
                counts[alpha > 1][0 if exact_stable(alpha, a1) else 1] += 1
        return tuple(counts[False]), tuple(counts[True])

    def test_certify(self):
        low, high = self.count(lambda prob: certify(prob).verdict
                               != "Inconclusive")
        stable = [sum(exact_stable(alpha, a1) for alpha, a1, _ in
                      self.points() if (alpha > 1) == side)
                  for side in (False, True)]
        assert stable == [90, 58]
        assert low == (90, 0)
        assert high == (36, 0)

    def test_spectral(self):
        # ROADMAP item 15: 32 false verdicts at alpha 1.3-1.9, plus the 10
        # points |a1| = 1 at alpha > 1, none of them stable
        low, high = self.count(lambda prob: theorem34_certify(prob.system)
                               .verdict != "Inconclusive")
        assert low == (72, 0)
        assert high[1] <= 42
