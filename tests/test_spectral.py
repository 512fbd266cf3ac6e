import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import const_phi
from fracdelay import (BetaWeights, composite_block_norm, condition_number,
                       decompose, frac_power_measure, matrix_measure,
                       matrix_norm, optimize_beta, theorem34_certify,
                       validate_system)
from fracdelay.errors import (AllBlocksZero, DefectiveMatrixNoTransform,
                              EigenvalueAtOrigin, SingularMatrix)
from fracdelay.tables import induced_norm

square = arrays(np.float64, (3, 3), elements=st.floats(-5, 5))


class TestNorms:
    def test_identity(self):
        assert matrix_norm(np.eye(3)) == 1.0

    def test_nilpotent_spectral(self):
        assert matrix_norm([[0, 1], [0, 0]]) == 1.0

    def test_alias_of_tables_induced_norm(self):
        assert matrix_norm is induced_norm


class TestMeasure:
    def test_normal_matrix_equals_max_eig(self):
        assert matrix_measure(np.diag([-1.0, -3.0])) == -1.0

    def test_shear(self):
        assert matrix_measure([[-1.0, 2.0], [0.0, -1.0]]) == pytest.approx(
            0.0, abs=1e-12)

    def test_zero(self):
        assert matrix_measure(np.zeros((2, 2))) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(square)
    def test_sandwich_property(self, M):
        lam_max = float(np.max(np.linalg.eigvals(M).real))
        mu = matrix_measure(M)
        nrm = matrix_norm(M)
        assert mu <= nrm + 1e-9
        assert mu >= max(-nrm, lam_max) - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(square)
    def test_negative_measure_implies_stability(self, M):
        if matrix_measure(M) < 0:
            assert np.all(np.linalg.eigvals(M).real < 0)


class TestCondition:
    def test_identity(self):
        assert condition_number(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(np.diag([1.0, 10.0])) == pytest.approx(10.0)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            condition_number(np.diag([1.0, 0.0]))


class TestDecompose:
    def test_diagonal(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        np.testing.assert_allclose(sorted(dec.eigenvalues.real), [-2.0, -1.0])
        assert np.all(dec.J_off == 0)

    def test_companion(self):
        dec = decompose(np.array([[0.0, 1.0], [-2.0, -3.0]]))
        np.testing.assert_allclose(sorted(dec.eigenvalues.real), [-2.0, -1.0],
                                   atol=1e-12)

    def test_defective_needs_transform(self):
        J = np.array([[-1.0, 1.0], [0.0, -1.0]])
        with pytest.raises(DefectiveMatrixNoTransform):
            decompose(J)
        dec = decompose(J, T=np.eye(2))
        np.testing.assert_allclose(dec.J_off, [[0.0, 1.0], [0.0, 0.0]])

    def test_ill_conditioned_transform_fails_reconstruction(self):
        # T is invertible but nearly singular: inv(T) (J_d + J_off) T
        # misses A0 by far more than the relative tolerance
        with pytest.raises(DefectiveMatrixNoTransform,
                           match=r"reconstruction residual \S+ too large"):
            decompose(np.array([[-1.0, 0.3], [0.2, -2.0]]),
                      T=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]]))

    @settings(max_examples=25, deadline=None)
    @given(square)
    def test_reconstruction_residual(self, M):
        try:
            dec = decompose(M)
        except DefectiveMatrixNoTransform:
            return
        rec = np.linalg.inv(dec.T) @ (dec.J_d + dec.J_off) @ dec.T
        assert np.linalg.norm(M - rec, 2) <= 1e-9 * max(
            np.linalg.norm(M, 2), 1e-6)


class TestFracPower:
    def test_identity_power(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        assert frac_power_measure(dec, 1.0) == pytest.approx(-1.0)

    def test_square_root_of_negative(self):
        dec = decompose(np.diag([-1.0]))
        assert frac_power_measure(dec, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_unwrapped_branch(self):
        dec = decompose(np.diag([-1.0]))
        assert frac_power_measure(dec, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_origin_rejected(self):
        dec = decompose(np.diag([0.0, -1.0]))
        with pytest.raises(EigenvalueAtOrigin):
            frac_power_measure(dec, 1.0)


class TestCompositeNorm:
    def test_all_zero_blocks(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        bw = BetaWeights((1.0, 0.0))
        assert composite_block_norm(dec, [np.zeros((2, 2))], bw) == 0.0

    def test_single_block(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        bw = BetaWeights((0.0, 1.0))
        M = np.array([[0.5, 0.1], [0.0, 0.4]])
        assert composite_block_norm(dec, [M], bw) == pytest.approx(
            np.linalg.norm(M, 2), rel=1e-12)

    def test_zero_weight_on_live_block_rejected(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        with pytest.raises(ValueError):
            composite_block_norm(dec, [np.eye(2)], BetaWeights((1.0, 0.0)))

    def test_weight_normalization_enforced(self):
        with pytest.raises(ValueError):
            BetaWeights((0.5, 0.5))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BetaWeights((-0.6, 0.8))

    def test_weight_count_must_match_blocks(self):
        # J_off and one A_i make two blocks
        dec = decompose(np.diag([-1.0, -2.0]))
        with pytest.raises(ValueError, match="3 weights for 2 blocks"):
            composite_block_norm(dec, [np.eye(2)],
                                 BetaWeights((0.6, 0.0, 0.8)))

    def test_scaling_beta_down_increases(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        M = 0.5 * np.eye(2)
        b_hi = composite_block_norm(dec, [M], BetaWeights((0.0, 1.0)))
        b_lo = composite_block_norm(dec, [M],
                                    BetaWeights((math.sqrt(1 - 0.49),
                                                 math.sqrt(0.49))))
        assert b_lo >= b_hi


class TestOptimizeBeta:
    def test_single_live_block(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        bw, value = optimize_beta(dec, [0.5 * np.eye(2)])
        assert bw.beta == (0.0, 1.0)
        assert value == pytest.approx(0.5, rel=1e-10)

    def test_two_equal_blocks(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        bw, value = optimize_beta(dec, [np.eye(2), np.eye(2)])
        assert bw.beta[1] == pytest.approx(bw.beta[2], rel=1e-6)
        assert value == pytest.approx(2.0, rel=1e-9)

    def test_zero_block_dropped(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        bw, value = optimize_beta(dec, [np.zeros((2, 2)), np.eye(2)])
        assert bw.beta == (0.0, 0.0, 1.0)
        assert value == pytest.approx(1.0, rel=1e-10)

    def test_all_blocks_zero(self):
        dec = decompose(np.diag([-1.0, -2.0]))
        with pytest.raises(AllBlocksZero):
            optimize_beta(dec, [np.zeros((2, 2))])

    def test_local_optimality_against_random_weights(self, rng):
        dec = decompose(np.diag([-1.0, -2.0, -4.0]))
        blocks = [rng.normal(scale=0.4, size=(3, 3)) for _ in range(3)]
        bw, value = optimize_beta(dec, blocks)
        n_live = sum(1 for b in bw.beta if b > 0)
        for _ in range(100):
            raw = rng.uniform(0.05, 1.0, n_live)
            raw /= np.linalg.norm(raw)
            trial = composite_block_norm(dec, blocks,
                                         BetaWeights(tuple(_pad(raw, bw.beta))))
            assert value <= trial + 1e-8


def _pad(raw, template):
    out = []
    idx = 0
    for b in template:
        if b > 0:
            out.append(float(raw[idx]))
            idx += 1
        else:
            out.append(0.0)
    return out


class TestTheorem34:
    def make_sys(self, alpha, A0, A1):
        n = A0.shape[0]
        return validate_system(alpha, [0.0, 1.0], [A0, A1],
                               phi=[const_phi([0.0] * n, 1.0)]
                               * max(1, int(np.ceil(alpha)))).system

    def test_worked_example(self):
        sys = self.make_sys(1.0, np.diag([-2.0, -3.0]), 0.5 * np.eye(2))
        res = theorem34_certify(sys)
        assert res.verdict == "GloballyAsymptoticallyStable"
        assert res.threshold == pytest.approx(2.0, abs=1e-10)
        assert res.composite_norm == pytest.approx(0.5, abs=1e-10)

    def test_half_order_inconclusive(self):
        sys = self.make_sys(0.5, np.diag([-1.0]), np.array([[0.2]]))
        res = theorem34_certify(sys)
        assert res.verdict == "Inconclusive"
        assert res.frac_power_measure == pytest.approx(1.0, abs=1e-10)

    def test_unstable_matrix_inconclusive(self):
        sys = self.make_sys(1.0, np.diag([1.0, -3.0]), 0.1 * np.eye(2))
        res = theorem34_certify(sys)
        assert res.verdict == "Inconclusive"
        assert res.frac_power_measure > 0

    def test_composite_above_threshold_inconclusive(self):
        # max Re lambda^(1/a) < 0, but ||A_1|| = 1.5 exceeds |mu_2|^(1/a) = 1
        sys = self.make_sys(0.8, np.diag([-1.0]), np.array([[1.5]]))
        res = theorem34_certify(sys)
        assert res.frac_power_measure < 0
        assert res.composite_norm == pytest.approx(1.5, abs=1e-12)
        assert res.threshold == pytest.approx(1.0, abs=1e-12)
        assert not res.strict_norm_test
        assert res.verdict == "Inconclusive"

    def test_boundary_equality_verdict(self):
        sys = self.make_sys(1.0, np.diag([-2.0, -3.0]), 2.0 * np.eye(2))
        res = theorem34_certify(sys)
        assert res.verdict == "GloballyStableIndependentOfDelays"
        assert res.composite_norm == pytest.approx(res.threshold, abs=1e-10)

    def test_arg_condition_reported_separately(self):
        # real negative eigenvalues at alpha = 1: |arg| = pi >= pi/2, yet the
        # direct fractional-power measure is negative
        sys = self.make_sys(1.0, np.diag([-2.0, -3.0]), 0.5 * np.eye(2))
        res = theorem34_certify(sys)
        assert not res.arg_condition_met
        assert res.frac_power_measure < 0

    def test_delay_free_encodings_agree(self):
        # A = [A0 - S, S] at lags 0, 0 is the system of [A0]: the test reads
        # the kernel matrix (S is exact in binary, so the sum is too), and
        # no lag-0 matrix enters the composite norm
        A0 = np.array([[-1.0, 0.5], [0.0, -2.0]])
        S = np.array([[0.25, -0.125], [0.5, 0.25]])
        phi = [const_phi([1.0, -1.0], 0.0)]
        split = theorem34_certify(validate_system(
            0.8, [0.0, 0.0], [A0 - S, S], phi=phi).system)
        one = theorem34_certify(validate_system(0.8, [0.0], [A0],
                                                phi=phi).system)
        assert one.verdict == "GloballyAsymptoticallyStable"
        assert split.as_dict() == one.as_dict()
        assert (one.threshold, one.composite_norm) == (1.0, 0.0)
