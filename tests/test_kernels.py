import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad
from scipy.linalg import expm as scipy_expm
from scipy.optimize import brentq

from conftest import random_stable_matrix, scalar_problem
from test_mlf import ml_reference
from fracdelay import (certify, fit_decay_envelope, phi_alpha, phi_alpha_j,
                       phi_alpha_l1, phi_alpha_l2sq, verify_lemma22)
from fracdelay import kernels, mlf
from fracdelay.certificates import DEFAULT_DELTA_GRID
from fracdelay.errors import (NotAStabilityMatrix, QuadratureNotConverged,
                              SingularAtZero)
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

    def test_refinement_convergence(self, monkeypatch):
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
        monkeypatch.setattr(kernels, "_QUAD_TOL", tol)
        coarse = weighted_singular_integral(-0.3, w, 2.0, 1 / 0.7)[0, 0]
        monkeypatch.setattr(kernels, "_N0", 64)
        fine = weighted_singular_integral(-0.3, w, 2.0, 1 / 0.7)[0, 0]
        assert abs(coarse - fine) < tol * max(1.0, abs(fine)) * 5


def per_segment_quadrature(gamma_exp, w_func, delta, grading):
    """The segmented quadrature refined one segment at a time in Python:
    a per-segment mesh, product integration and Richardson tableau, with
    the accuracy constants of ``kernels`` read at call time."""
    tol, n0 = kernels._QUAD_TOL, kernels._N0
    max_doublings, noise_floor = kernels._MAX_DOUBLINGS, kernels._NOISE_FLOOR

    def segment_mesh(lo, hi, n_cells):
        i = np.arange(n_cells + 1, dtype=float)
        if lo == 0:
            return hi * (i / n_cells) ** grading
        return lo + (hi - lo) * (i / n_cells)

    def product_integrate(gammas, w, mesh):
        a, b = mesh[:-1], mesh[1:]
        g1, g2 = gammas + 1.0, gammas + 2.0
        m0 = (b ** g1 - a ** g1) / g1
        m1 = (b ** g2 - a ** g2) / g2
        wa, wb = w[:, :-1], w[:, 1:]
        width = b - a
        slope = np.where(width > 0,
                         (wb - wa) / np.where(width > 0, width, 1.0), 0.0)
        return np.sum(wa * m0 + slope * (m1 - a * m0), axis=1)

    gammas = np.atleast_1d(np.asarray(gamma_exp, dtype=float))[:, None]
    edges = kernels._edges(delta)
    K = edges.size - 1
    n_cells = [n0] * K
    meshes = [segment_mesh(lo, hi, n0) for lo, hi in zip(edges[:-1], edges[1:])]
    first = np.atleast_2d(w_func(np.concatenate(
        [meshes[0]] + [mesh[1:] for mesh in meshes[1:]])))
    vals = [first[:, k * n0:(k + 1) * n0 + 1] for k in range(K)]
    rows = [[product_integrate(gammas, v, mesh)]
            for v, mesh in zip(vals, meshes)]
    est = np.array([row[0] for row in rows])
    done = np.zeros(est.shape, dtype=bool)
    best_change = np.full(est.shape, math.inf)
    change = np.zeros(est.shape)
    for _ in range(max_doublings):
        active = [k for k in range(K) if not done[k].all()]
        if not active:
            break
        for k in active:
            n_cells[k] *= 2
            meshes[k] = segment_mesh(edges[k], edges[k + 1], n_cells[k])
        new = np.atleast_2d(w_func(np.concatenate(
            [meshes[k][1::2] for k in active])))
        splits = np.cumsum([n_cells[k] // 2 for k in active])[:-1]
        for k, odd in zip(active, np.split(new, splits, axis=1)):
            v = np.empty((gammas.shape[0], n_cells[k] + 1))
            v[:, ::2] = vals[k]
            v[:, 1::2] = odd
            vals[k] = v
            prev = rows[k]
            row = [product_integrate(gammas, v, meshes[k])]
            for j in range(1, min(len(prev) + 1, 5)):
                fac = 4.0 ** j
                row.append(row[j - 1] + (row[j - 1] - prev[j - 1]) / (fac - 1.0))
            rows[k] = row
            change[k] = np.abs(row[-1] - prev[-1])
            est[k] = np.where(done[k], est[k], row[-1])
        scale = np.maximum(1.0, np.abs(np.cumsum(est, axis=0))) / K
        for k in active:
            done[k] |= ((change[k] <= tol * scale[k])
                        | ((change[k] >= 0.25 * best_change[k])
                           & (change[k] <= 50.0 * noise_floor * scale[k])))
            best_change[k] = np.minimum(best_change[k], change[k])
    if not done.all():
        k = int(np.argmin(done.all(axis=1)))
        raise QuadratureNotConverged(
            f"power-weight quadrature stalled at {n_cells[k]} cells on "
            f"[{edges[k]:.6g}, {edges[k + 1]:.6g}] (last tableau change "
            f"{float(np.max(change[k])):.3e})")
    return np.cumsum(est, axis=0).T


A3 = np.array([[-1.0, 0.5, 0.0], [0.0, -1.5, 0.3], [0.2, 0.0, -2.0]])
GRID26 = [0.0, *DEFAULT_DELTA_GRID]


class TestSegmentedQuadrature:
    """All segments refined as one array give exactly the values of the
    per-segment refinement.  GRID26 holds 26 edges, 25 segments."""

    @staticmethod
    def both(monkeypatch, fn):
        """fn() with the batched quadrature, then with the per-segment one."""
        got = fn()
        with monkeypatch.context() as m:
            m.setattr(kernels, "weighted_singular_integral",
                      per_segment_quadrature)
            ref = fn()
        return got, ref

    @pytest.mark.parametrize("alpha, A0, edges, powers", [
        # scalar: the exact primitive takes p = 1 for alpha <= 1
        (0.7, A1, GRID26, (2,)),
        (0.7, A1, [0.5, 3.0], (1, 2)),
        (0.7, A1, 3.0, (2,)),
        # scalar alpha = 1.5: E_{a,a}(-2 s^a) changes sign, so |phi| has
        # kinks and the segments converge at different levels
        (1.5, [[-2.0]], GRID26, (1,)),
        (1.5, [[-2.0]], [0.3, 1.0, 1.7, 2.2, 2.9, 4.0, 6.5], (1, 2)),
        (1.5, [[-2.0]], [1.0, 2.5], (1,)),
        (0.8, A3, GRID26, (1, 2)),
        (0.8, A3, GRID26, (1,)),
        # alpha = 1: the moment exponents are 1 and 2 exactly
        (1.0, A3, GRID26, (1, 2)),
        (1.0, A1, [0.5, 2.0, 9.0], (2,)),
        (1.2, A3, GRID26[3:], (2,)),
        (0.8, A3, [0.0, 2.0], (1, 2)),
        (1.2, A3, [2.0, 6.0], (1,)),
    ])
    def test_against_per_segment_reference(self, monkeypatch, alpha, A0,
                                           edges, powers):
        ker = Kernels(alpha, np.array(A0))
        got, ref = self.both(monkeypatch,
                             lambda: ker.norm_integrals(edges, powers))
        assert got.tolist() == ref.tolist()

    def test_segments_converge_at_different_levels(self, monkeypatch):
        # per level, the segments still refined evaluate n/2 new nodes each
        sizes = []
        ker = Kernels(1.5, np.array([[-2.0]]))
        w = ker._e_norms

        def counted(beta, s):
            sizes.append(s.size)
            return w(beta, s)

        monkeypatch.setattr(ker, "_e_norms", counted)
        ker.norm_integrals(GRID26, (1,))
        active = [size // (32 * 2 ** (level - 1))
                  for level, size in enumerate(sizes) if level]
        assert active[0] == 25 and len(set(active)) > 2

    def test_stall_names_the_first_unconverged_segment(self, monkeypatch):
        # smooth on [0, 2], unresolved oscillation on [2, 3] and [3, 4]
        def w(s):
            return np.array([np.where(s > 2.0, np.sin(400.0 * s), 1.0),
                             np.exp(-s)])

        def run():
            with pytest.raises(QuadratureNotConverged) as exc:
                kernels.weighted_singular_integral(
                    [-0.5, 0.0], w, [0.0, 1.0, 2.0, 3.0, 4.0], 1.0)
            return str(exc.value)

        monkeypatch.setattr(kernels, "_MAX_DOUBLINGS", 3)
        got, ref = self.both(monkeypatch, run)
        assert got == ref
        assert "stalled at 256 cells on [2, 3]" in got


class TestNoSignProbe:
    """For alpha <= 1 a scalar kernel keeps one sign: L1 from the exact
    primitive at every edge, the quadrature only for L2."""

    @staticmethod
    def quadrature_rows(monkeypatch):
        # the number of powers each quadrature call integrates
        rows = []
        quad = kernels.weighted_singular_integral

        def counted(gamma_exp, *args):
            rows.append(len(gamma_exp))
            return quad(gamma_exp, *args)

        monkeypatch.setattr(kernels, "weighted_singular_integral", counted)
        return rows

    @pytest.mark.parametrize("alpha, a0, edges, powers", [
        (0.4, -1.0, GRID26, (1,)),
        (0.7, -1.0, GRID26, (1, 2)),
        (0.7, 0.5, [0.2, 1.0, 3.0], (1, 2)),
        (1.0, -1.0, GRID26, (1, 2)),
        # e^(-2 s) falls below 1e-7 near s = 8, far inside the grid
        (1.0, -2.0, GRID26, (1,)),
    ])
    def test_l1_is_the_exact_primitive(self, monkeypatch, alpha, a0, edges,
                                       powers):
        rows = self.quadrature_rows(monkeypatch)
        ker = Kernels(alpha, np.array([[a0]]))
        table = ker.norm_integrals(edges, powers)
        assert rows == [1] * (2 in powers)
        # from e_0 > 0 the increments of E_{a,1}(a0 t^a) / a0
        prim = (ker.e_ml(1.0, edges) / a0 if edges[0] > 0
                else ker.int_phi(edges))[:, 0, 0]
        assert table[0].tolist() == np.abs(prim[1:] - prim[0]).tolist()

    def test_late_increments_do_not_cancel(self):
        # integral_40^80 e^-s ds = 4.25e-18, far below the primitives'
        # round-off at 1 - e^-T
        table = Kernels(1.0, A1).norm_integrals([40.0, 80.0, 120.0], (1,))
        exact = [math.exp(-40.0) - math.exp(-80.0),
                 math.exp(-40.0) - math.exp(-120.0)]
        np.testing.assert_allclose(table[0], exact, rtol=1e-14, atol=0)

    def test_late_increments_against_mpmath(self):
        # integral_e0^ek phi = (E_{a,1}(lam ek^a) - E_{a,1}(lam e0^a)) / lam
        # with E_{a,1} from the mpmath series; the evaluator's relative
        # floor bounds the error (the difference of two primitives
        # T^a E_{a,a+1}(lam T^a) misses by 3e-13 to 7e-13 here)
        alpha, lam, edges = 0.97, -1.0, [40.0, 80.0, 200.0]
        e = [ml_reference(alpha, 1.0, lam * t ** alpha).real for t in edges]
        exact = [(ek - e[0]) / lam for ek in e[1:]]
        table = Kernels(alpha, np.array([[lam]])).norm_integrals(edges, (1,))
        np.testing.assert_allclose(table[0], exact, rtol=3.3e-14, atol=0)

    def test_exponential_kernel_past_the_old_guard(self):
        # alpha = 1: integral_0^T e^(-2 s) ds = (1 - e^(-2 T)) / 2
        table = Kernels(1.0, np.array([[-2.0]])).norm_integrals(GRID26, (1,))
        exact = -np.expm1(-2.0 * np.array(DEFAULT_DELTA_GRID)) / 2.0
        np.testing.assert_allclose(table[0], exact, rtol=1e-14, atol=0)
        assert table[0, -1] == 0.5

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 1.0])
    def test_forcing_factor_is_positive(self, alpha):
        x = np.geomspace(1e-3, 1e3)
        vals = kernels.ml_scalar_array(alpha, alpha, -x).real
        # E_{1,1}(-x) = e^(-x) underflows to 0 past x = 745
        assert np.all((vals > 0) | ((alpha == 1.0) & (x > 745.0)))
        assert np.all(vals >= 0)


@functools.lru_cache
def exact_l1(alpha, lam, deltas):
    """integral_0^delta |phi| for a scalar A0 = lam at every delta of the
    increasing tuple ``deltas``: the sum of |P(z_(i+1)) - P(z_i)| between
    the zeros z_i of E_{a,a}(lam s^a), P(T) = T^a E_{a,a+1}(lam T^a) from
    the mpmath series.  The zeros are bracketed on a 0.005-spaced grid and
    refined by brentq on ``ml_scalar_array``; an error dz in a zero moves
    the sum by only O(dz^2), since phi vanishes there."""
    deltas = np.asarray(deltas)

    def e_aa(x):
        return mlf.ml_scalar_array(alpha, alpha,
                                   lam * np.asarray(x) ** alpha).real

    s = np.linspace(1e-3, deltas[-1], int(deltas[-1] / 0.005) + 1)
    sign = np.sign(e_aa(s))
    zeros = [brentq(lambda x: float(e_aa(x)), s[i], s[i + 1], xtol=1e-14)
             for i in np.flatnonzero(sign[:-1] != sign[1:])]
    ends = np.sort(np.concatenate((zeros, deltas)))
    prim = [0.0] + [t ** alpha * ml_reference(alpha, alpha + 1.0,
                                              lam * t ** alpha).real
                    for t in ends]
    l1 = np.cumsum(np.abs(np.diff(prim)))
    return l1[np.searchsorted(ends, deltas)], np.array(zeros)


class TestScalarL1AboveOrderOne:
    """For 1 < alpha < 2 the scalar smooth factor E_{a,a}(lam s^a) changes
    sign, and L1 comes from the quadrature at every edge."""

    @pytest.mark.parametrize("lam", [-0.3, -1.0, -2.0])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_default_grid_against_the_zero_sum(self, alpha, lam):
        ref, zeros = exact_l1(alpha, lam, tuple(DEFAULT_DELTA_GRID))
        assert zeros.size
        table = Kernels(alpha, np.array([[lam]])).norm_integrals(GRID26, (1,))
        # before the first zero the smooth integrand converges to _QUAD_TOL;
        # a segment holding a kink of |phi| is accepted at its noise floor,
        # 2e-8 to 5e-8 relative past the first zero on this grid
        before = np.array(DEFAULT_DELTA_GRID) < zeros[0]
        np.testing.assert_allclose(table[0, before], ref[before], rtol=1e-8)
        np.testing.assert_allclose(table[0], ref, rtol=1e-7)

    @pytest.mark.parametrize("lam", [-0.3, -2.0])
    @pytest.mark.parametrize("alpha", [1.2, 1.8])
    def test_one_delta_before_the_first_zero(self, alpha, lam):
        # |phi| is smooth before the first zero: no kink to stall on
        _, zeros = exact_l1(alpha, lam, (100.0,))
        delta = 0.6 * zeros[0]
        ref, _ = exact_l1(alpha, lam, (delta,))
        ker = Kernels(alpha, np.array([[lam]]))
        assert phi_alpha_l1(ker, delta) == pytest.approx(ref[0], rel=1e-8)


class TestNonFiniteEdges:
    """A non-finite edge fails before any kernel evaluation."""

    @staticmethod
    def no_evaluation(monkeypatch):
        def fail(*args):
            raise AssertionError("kernel evaluated")

        monkeypatch.setattr(kernels, "ml_scalar_array", fail)
        monkeypatch.setattr(mlf, "ml_scalar_array", fail)

    @pytest.mark.parametrize("A0", [[[-1.0]], [[-1.0, 0.5], [0.0, -2.0]]])
    @pytest.mark.parametrize("edges", [[0.0, 1.0, math.inf], math.inf,
                                       [0.0, math.nan, 2.0]])
    def test_norm_integrals(self, monkeypatch, A0, edges):
        self.no_evaluation(monkeypatch)
        with pytest.raises(ValueError, match="integration edges must be "
                                             "finite"):
            Kernels(0.4, np.array(A0)).norm_integrals(edges, (1,))

    def test_certify(self, monkeypatch):
        # certify checks its delta grid itself (tests/test_certificates.py)
        self.no_evaluation(monkeypatch)
        prob = scalar_problem(0.8, -1.0, 0.3, r1=1.0)
        with pytest.raises(ValueError, match="delta must be finite and "
                                             "positive, got inf"):
            certify(prob, delta_grid=[1.0, math.inf])


class TestExpm:
    def test_one_by_one_stack_is_np_exp(self):
        a = np.array([-800.0, -3.5, -1e-300, 0.0, 0.7, 700.0])[:, None, None]
        got = kernels.expm(a)
        assert got.shape == a.shape
        assert np.array_equal(got, np.exp(a))

    def test_rotation(self):
        ts = np.linspace(0.0, 800.0, 2001)
        got = kernels.expm(np.array([[0.0, -1.0], [1.0, 0.0]])
                           * ts[:, None, None])
        c, s = np.cos(ts), np.sin(ts)
        exact = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        assert np.max(np.abs(got - exact)) < 1e-12

    def test_jordan_block(self):
        ts = np.linspace(0.0, 100.0, 1001)
        got = kernels.expm(np.array([[-1.0, 1.0], [0.0, -1.0]])
                           * ts[:, None, None])
        one, zero = np.ones_like(ts), np.zeros_like(ts)
        exact = np.exp(-ts)[:, None, None] * np.stack(
            [np.stack([one, ts], -1), np.stack([zero, one], -1)], -2)
        scale = np.max(np.abs(exact), axis=(-2, -1))
        assert np.max(np.abs(got - exact).max(axis=(-2, -1)) / scale) < 1e-12

    @pytest.mark.parametrize("c", [0.1, 1.0, 5.0, 100.0, 1e6])
    def test_nilpotent_and_zero_are_exact(self, c):
        # |c| > theta_13 scales and squares: (I + N/2^s)^(2^s) = I + N
        N = np.array([[0.0, c], [0.0, 0.0]])
        assert np.array_equal(kernels.expm(N), np.eye(2) + N)
        N3 = np.zeros((3, 3))
        N3[0, 2] = c
        assert np.array_equal(kernels.expm(N3), np.eye(3) + N3)
        for n in (2, 6):
            assert np.array_equal(kernels.expm(np.zeros((4, n, n))),
                                  np.broadcast_to(np.eye(n), (4, n, n)))

    def test_mixed_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(3)
        mats = []
        for scale in (1e-300, 1e-9, 0.0, 1.0, 1e3, 3e4):
            M = rng.normal(size=(4, 4))
            mats.append(scale * (M - M.T))      # e^M orthogonal: no overflow
        mats.append(rng.normal(size=(4, 4)) - 50.0 * np.eye(4))
        mats.append(1e2 * np.triu(rng.normal(size=(4, 4)), 1))
        stack = np.stack(mats)
        got = kernels.expm(stack)
        for i, M in enumerate(mats):
            assert np.array_equal(got[i], kernels.expm(M))
        # leading axes are kept
        assert np.array_equal(kernels.expm(stack.reshape(2, 4, 4, 4)),
                              got.reshape(2, 4, 4, 4))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: arrays(
        float, (n, n), elements=st.floats(-1.5, 1.5))))
    def test_against_scipy(self, A):
        ref = scipy_expm(A)
        err = np.linalg.norm(kernels.expm(A) - ref) / np.linalg.norm(ref)
        assert err < 1e-12


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
        for t in np.linspace(0.0, 20.0, 200):
            assert np.linalg.norm(scipy_expm(A * t), 2) <= env.K * math.exp(
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
