import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, const_phi, scalar_problem
from test_kernels import exact_l1
from fracdelay import (ControlInput, TimeFunctionTable, cert_g_f, cert_g_h,
                       cert_g_hat_f, cert_g_hat_h, certify,
                       delay_free_certify, gain_bound_l2, gain_bound_uniform,
                       high_order_check, validate_system)
from fracdelay import certificates, kernels
from fracdelay.certificates import DEFAULT_DELTA_GRID, _CertInputs
from fracdelay.errors import (DelaysNotZero, DimensionMismatch, EmptyGrid,
                              KernelNotIntegrable, OrderTooLow,
                              PremiseViolated, WindowOutOfRange)
from fracdelay.system import load_problem


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

    def test_l2_bound_value(self):
        prob = scalar_problem(1.0, -1.0, 0.0, r1=1.0, b=1.0)
        ref = 0.2 / math.sqrt((1 - math.exp(-2)) / 2)
        assert gain_bound_l2(prob, 1.0, 0.2) == pytest.approx(ref, abs=1e-8)


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
        # quadrature runs: a bad delta used to give an Inconclusive report
        def no_kernel(*args):
            raise AssertionError("kernel built")

        monkeypatch.setattr(certificates, "Kernels", no_kernel)
        prob = scalar_problem(0.8, a0, 0.2, r1=1.0)
        match = rf"delta must be finite and positive, got {bad}"
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

    def test_window_starts_share_one_quadrature(self, monkeypatch):
        # the kernel integrals depend on delta only, not on the window start
        calls = []
        quad = kernels.weighted_singular_integral

        def counted(*args, **kwargs):
            calls.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(kernels, "weighted_singular_integral", counted)
        prob = scalar_problem(0.8, -1.0, 0.5, r1=1.0)
        certify(prob, delta_grid=[1.0], t_grid=[1.0])
        one_start = len(calls)
        calls.clear()
        certify(prob, delta_grid=[1.0], t_grid=[1.0, 2.0, 3.0])
        assert 0 < len(calls) <= one_start

    @pytest.mark.parametrize("fixture, t", [
        ("scalar_nonexpansive.json", 1e10),
        ("scalar_inconclusive.json", 1e15),
        ("delay_steps.json", 1e15),
    ])
    def test_large_window_start_keeps_the_default_verdict(self, fixture, t):
        # t + delta rounds to t for small delta: the window widths must
        # still be delta, not the rounded difference (0 for an empty one)
        prob = load_problem(f"{FIXTURES}/{fixture}")
        default = certify(prob)
        far = certify(prob, t_grid=[t])
        assert far.verdict == default.verdict
        assert far.contraction_constant == default.contraction_constant

    @pytest.mark.parametrize("fixture", ["scalar_contractive.json",
                                         "frac_delay_a07.json", None])
    def test_constant_coefficient_windows_do_not_depend_on_start(self,
                                                                 fixture):
        # None: a problem under feedback, so the B K_i windows run too
        prob = (load_problem(f"{FIXTURES}/{fixture}") if fixture else
                scalar_problem(0.8, -2.0, 0.3, r1=0.5, at0=0.2, b=1.5,
                               control=ControlInput.feedback(
                                   [[[-0.2]], [[0.1]]])))
        inputs = _CertInputs(prob, None, DEFAULT_DELTA_GRID, (1, 2))
        near, far = inputs.g_hat(10.0), inputs.g_hat(1e16)
        assert not np.any(np.isnan(near[0])) and near[1].any()
        np.testing.assert_array_equal(far[0], near[0])
        np.testing.assert_array_equal(far[1], near[1])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_window_start_rejected(self, t):
        prob = scalar_problem(0.8, -1.0, 0.5, r1=1.0)
        with pytest.raises(ValueError, match="t_grid"):
            certify(prob, t_grid=[1.0, t])
        # the one-delta windowed-L2 functions check their start too
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
        # E_{1.2,1.2}(-2 s^1.2) changes sign
        ker = kernels.Kernels(1.2, np.array([[-2.0]]))
        table = ker.norm_integrals(np.concatenate(([0.0], DEFAULT_DELTA_GRID)),
                                   (1, 2))
        assert table[0, -1] == pytest.approx(self._exact_l1(100.0),
                                             rel=1e-6)

    def test_one_delta_l1_of_oscillating_kernel_converges(self):
        # one graded mesh over [0, 100] stalls at the kink near s = 1.99;
        # the integrand is accurate to about 1e-14 absolute, so the result
        # meets the quadrature tolerance
        ker = kernels.Kernels(1.2, np.array([[-2.0]]))
        got = kernels.phi_alpha_l1(ker, 100.0)
        assert got == pytest.approx(self._exact_l1(100.0), rel=1e-8)

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
        assert value == pytest.approx(phi_sum + 0.3 * l1, rel=1e-8)
        assert gain_bound_uniform(prob, 100.0, 0.1) == pytest.approx(
            0.1 / (2 * l1), rel=1e-8)

    def test_edge_just_past_a_sign_change_is_integrated(self):
        # the first zero is near 1.99, and the segment [0, 2.3] holds it
        ker = kernels.Kernels(1.2, np.array([[-2.0]]))
        table = ker.norm_integrals([0.0, 2.3, 1000.0], (1,))
        assert table[0, 0] == pytest.approx(self._exact_l1(2.3), rel=1e-6)

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
    @staticmethod
    def better_family(prob, fb, t, delta):
        g = cert_g_f(prob, fb, delta)
        g_hat = cert_g_hat_f(prob, fb, t, delta)
        if g_hat[1] and (not g[1] or g_hat[0] < g[0]):
            return g_hat
        return g

    def test_grid_values_equal_the_one_delta_certificates(self):
        prob, fb, h = bump_feedback_problem()
        deltas = [0.1, 0.5, 1.0, 2.0]
        best = {d: self.better_family(prob, fb, h, d) for d in deltas}
        assert any(best[d] != cert_g_f(prob, fb, d) for d in deltas)
        # a one-delta grid integrates the kernel over the edges the one-delta
        # certificates use: bit for bit
        for d in deltas:
            e = certify(prob, fb, [d]).grid[0]
            assert (e.value, e.feasible) == best[d]
        # a longer grid integrates cumulatively, to the quadrature tolerance
        rep = certify(prob, fb, deltas[::-1] + [0.5])
        assert [e.delta for e in rep.grid] == deltas[::-1] + [0.5]
        for e in rep.grid:
            assert e.feasible == best[e.delta][1]
            assert e.value == pytest.approx(best[e.delta][0], rel=1e-9)

    def test_grid_past_the_table_end_drops_only_its_l2_values(self):
        prob, fb, h = bump_feedback_problem()
        deltas = [0.5, 2.0, 3.0, 5.0]       # windows [h, h + delta], 3 ends
        rep = certify(prob, fb, deltas)
        for d, e in zip(deltas, rep.grid):
            g = cert_g_f(prob, fb, d)
            if h + d <= 3.0:
                expected = self.better_family(prob, fb, h, d)
                assert expected[0] < g[0]
            else:
                with pytest.raises(WindowOutOfRange):
                    cert_g_hat_f(prob, fb, h, d)
                expected = g
                single = certify(prob, fb, [d]).grid[0]
                assert (single.value, single.feasible) == g
            assert e.feasible == expected[1]
            assert e.value == pytest.approx(expected[0], rel=1e-9)


class TestDelayFreeBounds:
    def test_pure_exponential(self):
        prob = scalar_problem(1.0, -0.5, -0.5, zero_delays=True)
        b = delay_free_certify(prob)
        assert b.K0_bar == pytest.approx(1.0, abs=1e-9)
        assert b.K1_bar == pytest.approx(1.0, abs=1e-6)
        assert b.K2_bar == pytest.approx(1.0, abs=1e-6)
        assert b.decay_detected
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
        with pytest.raises(KernelNotIntegrable, match="not a stability"):
            delay_free_certify(scalar_problem(0.8, 0.5))

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
        head = ker.norm_integrals([0.0, T], (1,))[0, 0]
        tail = ker.e_ml(1.0, T)[0, 0, 0] / abs(lam)
        assert head + tail == pytest.approx(1.0 / abs(lam), rel=1e-13)

    def test_order_below_the_ratio_test_returns_bounds(self):
        # below alpha 0.41 the doubling loop's ratio test cannot settle
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
        phis = [const_phi([0.0, 0.0], 1.0), const_phi([0.0, 0.0], 1.0),
                const_phi([1.0, 2.0], 1.0)]
        res = high_order_check(self.make(2.5, phis))
        assert res.zeroing_holds
        assert res.spectral_passes
        assert res.verdict == "BoundedIndependentOfDelays"

    def test_alpha_two_requires_zero_phi0(self):
        phis = [const_phi([1.0, 0.0], 1.0), const_phi([0.0, 0.0], 1.0)]
        res = high_order_check(self.make(2.0, phis))
        assert not res.zeroing_holds
