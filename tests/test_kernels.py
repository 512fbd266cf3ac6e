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

from conftest import const_phi, random_stable_matrix, scalar_problem
from test_mlf import ml_reference
from fracdelay import (certify, fit_decay_envelope, phi_alpha, phi_alpha_j,
                       phi_alpha_l1, phi_alpha_l2sq, validate_system,
                       verify_lemma22)
from fracdelay import certificates, kernels, mlf
from fracdelay.certificates import DEFAULT_DELTA_GRID
from fracdelay.errors import (NotAStabilityMatrix,
                              OverflowBeyondRepresentableRange,
                              QuadratureNotConverged, SingularAtZero)
from fracdelay.kernels import (Kernels, norm_series_exp, norm_series_ml,
                               weighted_singular_integral)
from fracdelay.tables import induced_norms

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

    @pytest.mark.parametrize("alpha, A0", [
        (0.7, [[-1.2]]), (1.3, [[-1.0, 0.4], [0.2, -2.0]])])
    def test_kernels_are_powers_times_e_ml(self, alpha, A0):
        # the four kernels and t^p E_{a,beta}(A0 t^a), bit for bit; zero
        # before t = 0
        ker = Kernels(alpha, np.array(A0))
        t = np.concatenate(([-1.0, 0.0], np.geomspace(0.05, 30.0, 40)))
        pos = t >= 0

        def ref(power, beta, s):
            return (s ** power)[:, None, None] * ker.e_ml(beta, s)

        def check(got, want):
            assert not got[~pos].any()
            assert got[pos].tolist() == want.tolist()

        for j in range(math.ceil(alpha)):
            check(ker.phi_j(j, t), ref(j, j + 1, t[pos]))
        # phi(0) diverges for alpha < 1
        assert (ker.phi(t[2:]).tolist()
                == ref(alpha - 1.0, alpha, t[2:]).tolist())
        int_phi = ref(alpha, alpha + 1, t[pos])
        check(ker.int_phi(t), int_phi)
        check(ker.int_s_phi(t), t[pos][:, None, None] * int_phi
              - ref(alpha + 1.0, alpha + 2, t[pos]))


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
                      limit=200, epsabs=1e-13, epsrel=1e-13)
        assert got == pytest.approx(ref, rel=1e-11)

    def test_matrix_l1_at_order_one_half(self):
        # ||E_{a,a}(A0 s^a)|| is E_{a,a}(-s^a) here, whose L1 the scalar
        # kernel reads off its primitive
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
        # L1 and L2sq at several deltas, each read from one integration
        M = np.array([[-1.0, 0.5], [0.0, -2.0]])
        ker = Kernels(alpha, M)
        deltas = [0.05, 0.4, 1.0, 2.0, 3.0]

        def f(s, p):
            return float(np.linalg.norm(ker.e_ml(alpha, np.array([s]))[0],
                                        2)) ** p

        # L1 has no weight in u = s^a; L2 keeps u^(1 - 1/a)
        for p, rel in ((1, 1e-11), (2, 1e-7)):
            table = integrals(ker, deltas, p)
            gamma = p * (alpha - 1.0)
            ref, _ = quad(f, 0, deltas[0], args=(p,), weight="alg",
                          wvar=(gamma, 0), epsabs=1e-13, epsrel=1e-13)
            for j, delta in enumerate(deltas):
                if j > 0:
                    ref += quad(lambda s: s ** gamma * f(s, p), deltas[j - 1],
                                delta, epsabs=1e-13, epsrel=1e-13)[0]
                assert table[j] == pytest.approx(ref, rel=rel), (p, delta)

    def test_edges_that_share_their_power(self):
        # s and the next double share s^alpha: a segment of zero width in u
        for alpha, p, s in ((0.3, 1, 1.0), (0.7, 2, 3.5)):
            ker = Kernels(alpha, np.array([[-1.0, 0.5], [0.0, -2.0]]))
            after = np.nextafter(s, 2.0 * s)
            assert s ** alpha == after ** alpha
            ref = ker._norm_quadrature(p, np.array([0.0, s, 2.0 * s]))
            got = ker._norm_quadrature(p, np.array([0.0, s, after, 2.0 * s]))
            assert got.tolist() == [ref[0], *ref]
            if p == 1:
                assert ker.norm_integrals([s, after, 2.0 * s]).tolist() == (
                    got.tolist())
        # every u underflows to 0: no segment of nonzero width, nothing is
        # integrated
        ker = Kernels(2.5, np.array([[-1.0, 0.5], [0.0, -2.0]]))
        assert ker.norm_integrals([1e-170, 2e-170]).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("A0", [[[-1.0, 0.5], [0.0, -2.0]],
                                    [[-1.0, 0.5, 0.0], [0.0, -1.5, 0.3],
                                     [0.2, 0.0, -2.0]]])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.95])
    def test_matrix_l1_grid_at_tight_constants(self, monkeypatch, A0,
                                               alpha):
        # ||E_{a,a}(A0 u)|| is smooth in u = s^a: the default accuracy
        # constants already give the L1 grid of much tighter ones
        ker = Kernels(alpha, np.array(A0))
        got = ker.norm_integrals(DELTAS)
        monkeypatch.setattr(kernels, "_QUAD_TOL", 1e-13)
        monkeypatch.setattr(kernels, "_NOISE_FLOOR", 1e-15)
        monkeypatch.setattr(kernels, "_MAX_DOUBLINGS", 15)
        np.testing.assert_allclose(got, ker.norm_integrals(DELTAS),
                                   rtol=1e-12, atol=0)

    def test_refinement_convergence(self, monkeypatch):
        # halving the mesh changes the raw rule by less than the tolerance;
        # in u = s^a, L1 over [0, 2] is integral_0^(2^a) ||E(A0 u)|| du / a
        ker = Kernels(0.7, np.array([[-1.0, 0.3], [0.1, -1.5]]))

        def w(u):
            return np.linalg.svd(ker._e_at(0.7, u),
                                 compute_uv=False)[:, 0] / 0.7

        tol = 1e-8
        monkeypatch.setattr(kernels, "_QUAD_TOL", tol)
        coarse = weighted_singular_integral(0.0, w, [0.0, 2.0 ** 0.7])[0]
        monkeypatch.setattr(kernels, "_N0", 64)
        fine = weighted_singular_integral(0.0, w, [0.0, 2.0 ** 0.7])[0]
        assert abs(coarse - fine) < tol * max(1.0, abs(fine)) * 5


def per_segment_quadrature(gamma_exp, w_func, edges):
    """The segmented quadrature refined one segment at a time in Python:
    a per-segment mesh, product integration and Richardson tableau, with
    the accuracy constants of ``kernels`` read at call time."""
    tol, n0 = kernels._QUAD_TOL, kernels._N0
    max_doublings, noise_floor = kernels._MAX_DOUBLINGS, kernels._NOISE_FLOOR

    def segment_mesh(lo, hi, n_cells):
        i = np.arange(n_cells + 1, dtype=float)
        return lo + (hi - lo) * (i / n_cells)

    def product_integrate(gamma, w, mesh):
        a, b = mesh[:-1], mesh[1:]
        g1, g2 = gamma + 1.0, gamma + 2.0
        m0 = (b ** g1 - a ** g1) / g1
        m1 = (b ** g2 - a ** g2) / g2
        wa, wb = w[:-1], w[1:]
        width = b - a
        slope = np.where(width > 0,
                         (wb - wa) / np.where(width > 0, width, 1.0), 0.0)
        return np.sum(wa * m0 + slope * (m1 - a * m0))

    gamma = float(gamma_exp)
    edges = np.asarray(edges, dtype=float)
    K = edges.size - 1
    n_cells = [n0] * K
    meshes = [segment_mesh(lo, hi, n0) for lo, hi in zip(edges[:-1], edges[1:])]
    first = w_func(np.concatenate(
        [meshes[0]] + [mesh[1:] for mesh in meshes[1:]]))
    vals = [first[k * n0:(k + 1) * n0 + 1] for k in range(K)]
    rows = [[product_integrate(gamma, v, mesh)]
            for v, mesh in zip(vals, meshes)]
    est = np.array([row[0] for row in rows])
    done = [False] * K
    best_change = [math.inf] * K
    change = [0.0] * K
    for _ in range(max_doublings):
        active = [k for k in range(K) if not done[k]]
        if not active:
            break
        for k in active:
            n_cells[k] *= 2
            meshes[k] = segment_mesh(edges[k], edges[k + 1], n_cells[k])
        new = w_func(np.concatenate([meshes[k][1::2] for k in active]))
        splits = np.cumsum([n_cells[k] // 2 for k in active])[:-1]
        for k, odd in zip(active, np.split(new, splits)):
            v = np.empty(n_cells[k] + 1)
            v[::2] = vals[k]
            v[1::2] = odd
            vals[k] = v
            prev = rows[k]
            row = [product_integrate(gamma, v, meshes[k])]
            for j in range(1, min(len(prev) + 1, 5)):
                fac = 4.0 ** j
                row.append(row[j - 1] + (row[j - 1] - prev[j - 1]) / (fac - 1.0))
            rows[k] = row
            change[k] = abs(row[-1] - prev[-1])
            est[k] = row[-1]
        scale = np.maximum(1.0, np.abs(np.cumsum(est))) / K
        for k in active:
            done[k] = bool((change[k] <= tol * scale[k])
                           or ((change[k] >= 0.25 * best_change[k])
                               and (change[k] <= 50.0 * noise_floor
                                    * scale[k])))
            best_change[k] = min(best_change[k], change[k])
    if not all(done):
        k = done.index(False)
        raise QuadratureNotConverged(
            f"power-weight quadrature stalled at {n_cells[k]} cells on "
            f"[{edges[k]:.6g}, {edges[k + 1]:.6g}] (last tableau change "
            f"{change[k]:.3e})")
    return np.cumsum(est)


A3 = np.array([[-1.0, 0.5, 0.0], [0.0, -1.5, 0.3], [0.2, 0.0, -2.0]])
DELTAS = list(DEFAULT_DELTA_GRID)
GRID26 = [0.0, *DELTAS]


def integrals(ker, deltas, p):
    """L1 (p = 1) or squared L2 (p = 2) of phi at every delta: the L1 grid
    of ``norm_integrals``, or ``phi_alpha_l2sq`` per delta."""
    if p == 1:
        return ker.norm_integrals(deltas)
    return np.array([phi_alpha_l2sq(ker, d) for d in np.atleast_1d(deltas)])


class TestSegmentedQuadrature:
    """All segments refined as one array give exactly the values of the
    per-segment refinement.  DELTAS holds 25 deltas, 25 segments."""

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
        # scalar: the exact primitive takes p = 1 for alpha <= 1; L2 comes
        # one delta at a time, each over its halving edges
        (0.7, A1, [1.0, 100.0], (2,)),
        (0.7, A1, [0.5, 3.0], (1, 2)),
        (0.7, A1, 3.0, (2,)),
        # scalar alpha = 1.5: E_{a,a}(-2 s^a) changes sign; L1 is the exact
        # primitive, so only L2 takes the quadrature
        (1.5, [[-2.0]], [0.3, 100.0], (2,)),
        (1.5, [[-2.0]], [0.3, 1.0, 1.7, 2.2, 2.9, 4.0, 6.5], (2,)),
        (1.5, [[-2.0]], [1.0, 2.5], (2,)),
        (0.8, A3, [0.01, 100.0], (2,)),
        (0.8, A3, DELTAS, (1,)),
        # alpha = 1: the moment exponents are 1 and 2 exactly
        (1.0, A3, DELTAS, (1, 2)),
        (1.0, A1, [0.5, 2.0, 9.0], (2,)),
        (1.2, A3, [0.02, 100.0], (2,)),
        (0.8, A3, [2.0], (1, 2)),
        (1.2, A3, [2.0, 6.0], (1,)),
    ])
    def test_against_per_segment_reference(self, monkeypatch, alpha, A0,
                                           edges, powers):
        # one integration per power and L1 grid, one per L2 delta
        ker = Kernels(alpha, np.array(A0))
        for p in powers:
            got, ref = self.both(monkeypatch,
                                 lambda: integrals(ker, edges, p))
            assert got.tolist() == ref.tolist(), p

    def test_segments_converge_at_different_levels(self, monkeypatch):
        # per level, the segments still refined evaluate n/2 new nodes each
        sizes = []
        ker = Kernels(1.5, np.array([[-2.0]]))
        w = ker._e_norms

        def counted(beta, s):
            sizes.append(s.size)
            return w(beta, s)

        monkeypatch.setattr(ker, "_e_norms", counted)
        ker._norm_quadrature(2, np.array(GRID26))
        active = [size // (32 * 2 ** (level - 1))
                  for level, size in enumerate(sizes) if level]
        assert active[0] == 25 and len(set(active)) > 2

    def test_stall_names_the_first_unconverged_segment(self, monkeypatch):
        # smooth on [0, 2], unresolved oscillation on [2, 3] and [3, 4]
        edges = [0.0, 1.0, 2.0, 3.0, 4.0]

        def w(s):
            return np.where(s > 2.0, np.sin(400.0 * s), 1.0)

        def run():
            with pytest.raises(QuadratureNotConverged) as exc:
                kernels.weighted_singular_integral(-0.5, w, edges)
            return str(exc.value)

        monkeypatch.setattr(kernels, "_MAX_DOUBLINGS", 3)
        got, ref = self.both(monkeypatch, run)
        assert got == ref
        assert "stalled at 256 cells on [2, 3]" in got
        # a smooth weight converges on the same edges and levels
        got, ref = self.both(monkeypatch, lambda: (
            kernels.weighted_singular_integral(0.0, lambda s: np.exp(-s),
                                               edges)))
        assert got.tolist() == ref.tolist()
        np.testing.assert_allclose(got, 1.0 - np.exp(-np.array(edges[1:])),
                                   rtol=1e-9)


def householder(v) -> np.ndarray:
    """The orthogonal, symmetric reflection I - 2 v v^T / (v^T v)."""
    v = np.asarray(v, dtype=float)
    return np.eye(v.size) - 2.0 * np.outer(v, v) / (v @ v)


H3, H6 = householder([1.0, 2.0, 3.0]), householder([1.0, -1.0, 2.0, 0.5,
                                                    -3.0, 1.0])
SHEAR6 = np.eye(6) + 0.4 * np.triu(np.ones((6, 6)), 1)
SPECTRUM6 = np.diag([-0.3, -0.7, -1.1, -1.9, -2.5, -4.0])
# A0 with an orthonormal eigenvector basis: symmetric, a complex spectrum,
# a repeated eigenvalue
NORMAL = {
    "symmetric3": H3 @ np.diag([-0.5, -1.2, -3.0]) @ H3,
    "symmetric6": H6 @ SPECTRUM6 @ H6,
    "rotation": np.array([[-1.0, 2.0], [-2.0, -1.0]]),
    "minus-identity": -np.eye(3),
}
NON_NORMAL = {
    "triangular2": np.array([[-1.0, 0.5], [0.0, -2.0]]),
    "sheared6": SHEAR6 @ SPECTRUM6 @ np.linalg.inv(SHEAR6),
}
EPS = np.finfo(float).eps


class TestEigenbasisNorms:
    """A monotone kernel (alpha <= 1, a real spectrum, an orthonormal
    eigenvector basis) takes its L1 and K1 exactly, cond(V) times those of
    the scalar kernel of its largest eigenvalue: within 1e-13 relative of
    the Gram quadrature, and not below it by more than 8 eps.  Every other
    kernel, and every L2, takes the Gram quadrature."""

    @staticmethod
    def u_grid(alpha):
        # the u = s^a of the default delta grid, and 0
        return np.concatenate(([0.0], np.geomspace(1e-3, 100.0, 200)
                               ** alpha))

    @staticmethod
    def gram(monkeypatch, fn, *args):
        """fn(*args) with every kernel on the Gram route."""
        with monkeypatch.context() as m:
            m.setattr(kernels, "_ORTHONORMAL_TOL", -1.0)
            return fn(*args)

    @staticmethod
    def quadrature_calls(monkeypatch):
        calls = []
        quad = kernels.weighted_singular_integral

        def counted(*args):
            calls.append(args[0])
            return quad(*args)

        monkeypatch.setattr(kernels, "weighted_singular_integral", counted)
        return calls

    @pytest.mark.parametrize("name", NORMAL)
    @pytest.mark.parametrize("alpha", [0.5, 0.95, 1.5])
    def test_normal_kernels_bound_the_gram_norm(self, name, alpha):
        # cond(V) E_{a,b}(lam_max u) against the Gram 2-norm, b = a and 1;
        # the complex spectrum and alpha > 1 are not monotone
        ker = Kernels(alpha, NORMAL[name])
        assert ker.monotone == (alpha <= 1 and name != "rotation")
        u = self.u_grid(alpha)
        for beta in (alpha, 1.0):
            ref = induced_norms(ker._e_at(beta, u))
            assert np.array_equal(ker._e_norms(beta, u), ref)
            if ker.monotone:
                got = ker._cond * mlf.ml_scalar_array(
                    alpha, beta, ker.lam_max * u).real
                assert np.all(got >= ref * (1.0 - 8.0 * EPS))
                assert np.all(got <= ref * (1.0 + 1e-12 + 8.0 * EPS))

    @pytest.mark.parametrize("name", NORMAL)
    @pytest.mark.parametrize("alpha, p", [(0.5, 1), (0.95, 1), (0.95, 2),
                                          (1.5, 1), (1.5, 2)])
    def test_normal_kernel_integrals_match_the_gram_route(self, monkeypatch,
                                                          name, alpha, p):
        ker = Kernels(alpha, NORMAL[name])
        calls = self.quadrature_calls(monkeypatch)
        deltas = DELTAS if p == 1 else [0.1, 3.0, 100.0]
        got = integrals(ker, deltas, p)
        exact = p == 1 and ker.monotone
        assert len(calls) == (0 if exact else 1 if p == 1 else 3)
        ref = self.gram(monkeypatch, integrals, ker, deltas, p)
        if exact:
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
            assert np.all(got >= ref * (1.0 - 8.0 * EPS))
        else:
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("name, lam_max", [("symmetric3", -0.5),
                                               ("symmetric6", -0.3),
                                               ("minus-identity", -1.0)])
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.95])
    def test_monotone_l1_and_k1_are_exact(self, monkeypatch, name, lam_max,
                                          alpha):
        ker = Kernels(alpha, NORMAL[name])
        assert ker.monotone and ker.lam_max == pytest.approx(lam_max,
                                                             rel=1e-14)
        calls = self.quadrature_calls(monkeypatch)
        got = ker.norm_integrals(DELTAS)
        k1 = certificates._l1_to_infinity(ker)
        assert calls == [] and k1 == ker._cond / abs(ker.lam_max)
        ref = self.gram(monkeypatch, ker.norm_integrals, DELTAS)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        assert np.all(got >= ref * (1.0 - 8.0 * EPS))
        # K1 is the Gram quadrature up to T plus the scalar tail past it,
        # integral_T^inf phi = E_{a,1}(lam_max T^a) / |lam_max|
        for T in (10.0, 100.0):
            head = self.gram(monkeypatch, ker.norm_integrals, T)[0]
            tail = mlf.ml_scalar_array(alpha, 1.0, [ker.lam_max * T ** alpha])
            assert head + tail[0].real / abs(ker.lam_max) == pytest.approx(
                k1, rel=1e-13)

    def test_exponential_matrix_kernel(self):
        # alpha = 1, A0 = diag(-2, -3): ||phi(s)|| = e^(-2 s), so L1 up to
        # T is (1 - e^(-2 T)) / 2, with the bits of the scalar kernel -2,
        # within the evaluator's floor (2.7e-15 here)
        ker = Kernels(1.0, np.diag([-2.0, -3.0]))
        assert ker.monotone and ker._cond == 1.0 and ker.lam_max == -2.0
        table = ker.norm_integrals(DELTAS)
        assert np.array_equal(
            table, Kernels(1.0, np.array([[-2.0]])).norm_integrals(DELTAS))
        exact = -np.expm1(-2.0 * np.array(DEFAULT_DELTA_GRID)) / 2.0
        np.testing.assert_allclose(table, exact, rtol=5e-15, atol=0)

    @pytest.mark.parametrize("name", NON_NORMAL)
    @pytest.mark.parametrize("alpha", [0.5, 0.95])
    def test_basis_condition_keeps_the_values_bounds(self, monkeypatch,
                                                     name, alpha):
        # a non-normal kernel counted monotone: cond(V) E_{a,b}(lam_max u)
        # bounds ||E_{a,b}(A0 u)||, so L1, K1 and K0 stay upper bounds
        A0 = NON_NORMAL[name]
        ref = Kernels(alpha, A0).norm_integrals(DELTAS)
        prob = validate_system(alpha, [0.0], [A0],
                               phi=[const_phi(np.ones(len(A0)), 0.0)])
        sampled = certificates.delay_free_certify(prob)
        monkeypatch.setattr(kernels, "_ORTHONORMAL_TOL", 10.0)
        ker = Kernels(alpha, A0)
        assert ker.monotone
        got = ker.norm_integrals(DELTAS)
        assert np.all(got >= ref) and np.all(got <= ker._cond * ref)
        bounds = certificates.delay_free_certify(prob)
        assert bounds.K1_bar == ker._cond / abs(ker.lam_max) > sampled.K1_bar
        assert bounds.K0_bar == ker._cond >= sampled.K0_bar

    @pytest.mark.parametrize("name", NON_NORMAL)
    @pytest.mark.parametrize("alpha", [0.5, 0.95, 1.5])
    def test_non_normal_kernels_keep_the_gram_bits(self, name, alpha):
        ker = Kernels(alpha, NON_NORMAL[name])
        assert not ker.monotone and ker._cond > 1.5
        u = self.u_grid(alpha)
        assert np.array_equal(ker._e_norms(alpha, u),
                              induced_norms(ker._e_at(alpha, u)))
        # L1 is the one quadrature of ||E_{a,a}(A0 u)|| / a in u = s^a
        ref = weighted_singular_integral(
            0.0, lambda x: induced_norms(ker._e_at(alpha, x)) / alpha,
            np.array(GRID26) ** alpha)
        assert np.array_equal(ker.norm_integrals(DELTAS), ref)

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.3, 2.0, 2.3])
    @pytest.mark.parametrize("lam", [-4.0, -1.0, 0.0, 0.5])
    def test_scalar_kernels_keep_the_gram_bits(self, monkeypatch, alpha,
                                               lam):
        ker = Kernels(alpha, np.array([[lam]]))
        assert ker._cond == 1.0 and ker.lam_max == lam
        assert ker.monotone == (alpha <= 1)
        u = self.u_grid(alpha)[:150]
        for beta in (alpha, 1.0):
            assert np.array_equal(ker._e_norms(beta, u),
                                  induced_norms(ker._e_at(beta, u)))
        deltas = [0.1, 0.5, 1.0, 2.0]
        if alpha < 2 and not (alpha > 1 and lam < 0):
            # no zeros: the primitive from 0, read off the 1x1 matrices
            prim = ker.int_phi([0.0, *deltas])[:, 0, 0]
            assert (ker.norm_integrals(deltas).tolist()
                    == np.abs(prim[1:] - prim[0]).tolist())
        if lam < 0:
            assert np.array_equal(
                integrals(ker, deltas, 2),
                self.gram(monkeypatch, integrals, ker, deltas, 2))

    @pytest.mark.parametrize("alpha, u", [(1.0, 800.0), (0.8, 1e3)])
    def test_overflow_still_raises(self, alpha, u):
        # e^800, and E_{0.8,0.8}(1e3) past double range: inf, not a norm;
        # the exact L1 of the monotone kernel raises as well
        ker = Kernels(alpha, np.diag([1.0, -1.0]))
        assert ker.monotone
        for call in (lambda: ker._e_norms(alpha, np.array([1.0, u])),
                     lambda: ker.norm_integrals(u ** (1 / alpha))):
            with (pytest.raises(OverflowBeyondRepresentableRange,
                                match="exceeds double range"),
                  np.errstate(over="ignore", invalid="ignore")):
                call()

    @pytest.mark.parametrize("A0", [NORMAL["symmetric6"],
                                    NON_NORMAL["sheared6"], A1])
    def test_one_eig_and_one_cond_per_build(self, monkeypatch, A0):
        calls = []

        def counted(name, fn):
            def inner(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return inner

        for name in ("eig", "cond"):
            monkeypatch.setattr(np.linalg, name,
                                counted(name, getattr(np.linalg, name)))
        Kernels(0.8, A0).norm_integrals(DELTAS)
        assert sorted(calls) == ["cond", "eig"]


class TestNoSignProbe:
    """A scalar kernel with alpha < 2 takes L1 from the exact primitive at
    every edge, summed between the zeros of phi where it has any, and the
    quadrature only for L2."""

    @staticmethod
    def quadrature_calls(monkeypatch):
        # the exponent of each quadrature call
        calls = []
        quad = kernels.weighted_singular_integral

        def counted(gamma_exp, *args):
            calls.append(gamma_exp)
            return quad(gamma_exp, *args)

        monkeypatch.setattr(kernels, "weighted_singular_integral", counted)
        return calls

    @pytest.mark.parametrize("alpha, a0, edges, powers", [
        (0.4, -1.0, DELTAS, (1,)),
        (0.7, -1.0, DELTAS, (1, 2)),
        (0.7, 0.5, [0.2, 1.0, 3.0], (1, 2)),
        (1.0, -1.0, DELTAS, (1, 2)),
        # e^(-2 s) falls below 1e-7 near s = 8, far inside the grid
        (1.0, -2.0, DELTAS, (1,)),
        # 1 < alpha < 2: phi changes sign only for a0 < 0
        (1.5, -1.0, DELTAS, (1, 2)),
        (1.5, 0.0, DELTAS, (1,)),
        (1.5, 0.0, [0.2, 1.0, 3.0], (1,)),
        (1.5, 0.5, [0.2, 1.0, 3.0], (1, 2)),
    ])
    def test_l1_is_the_exact_primitive(self, monkeypatch, alpha, a0, edges,
                                       powers):
        calls = self.quadrature_calls(monkeypatch)
        ker = Kernels(alpha, np.array([[a0]]))
        table = ker.norm_integrals(edges)
        assert calls == []
        if alpha > 1 and a0 < 0:
            # the primitive summed lobe by lobe between the zeros of phi
            ref, zeros = exact_l1(alpha, a0, tuple(edges))
            assert zeros.size
            np.testing.assert_allclose(table, ref, rtol=1e-13)
        else:
            prim = ker.int_phi([0.0, *edges])[:, 0, 0]
            assert table.tolist() == np.abs(prim[1:] - prim[0]).tolist()
        # L2 takes one quadrature of u^(1 - 1/a) ||E_{a,a}(A0 u)||^2 / a in
        # u = s^a
        if 2 in powers:
            l2 = phi_alpha_l2sq(ker, edges[-1])
            assert calls == [1.0 - 1.0 / alpha]
            assert l2 > 0

    def test_exponential_kernel_past_the_old_guard(self):
        # alpha = 1: integral_0^T e^(-2 s) ds = (1 - e^(-2 T)) / 2
        table = Kernels(1.0, np.array([[-2.0]])).norm_integrals(DELTAS)
        exact = -np.expm1(-2.0 * np.array(DEFAULT_DELTA_GRID)) / 2.0
        np.testing.assert_allclose(table, exact, rtol=1e-14, atol=0)
        assert table[-1] == 0.5

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
    """For 1 < alpha < 2 and lam < 0 the scalar smooth factor
    E_{a,a}(lam s^a) changes sign, and L1 sums the exact primitive between
    the zeros of phi."""

    @pytest.mark.parametrize("lam", [-0.3, -1.0, -2.0])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 1.95])
    def test_default_grid_against_the_zero_sum(self, alpha, lam):
        ref, zeros = exact_l1(alpha, lam, tuple(DEFAULT_DELTA_GRID))
        assert zeros.size
        table = Kernels(alpha, np.array([[lam]])).norm_integrals(DELTAS)
        np.testing.assert_allclose(table, ref, rtol=1e-13)

    @pytest.mark.parametrize("lam", [-0.3, -2.0])
    @pytest.mark.parametrize("alpha", [1.2, 1.8])
    def test_one_delta_before_the_first_zero(self, alpha, lam):
        # one lobe: the primitive at delta alone
        _, zeros = exact_l1(alpha, lam, (100.0,))
        delta = 0.6 * zeros[0]
        ref, _ = exact_l1(alpha, lam, (delta,))
        ker = Kernels(alpha, np.array([[lam]]))
        assert phi_alpha_l1(ker, delta) == pytest.approx(ref[0], rel=1e-13)

    @pytest.mark.parametrize("alpha", [1.5, 1.8])
    def test_one_delta_past_the_zeros(self, alpha):
        # the halving edges up to 100 cross 5 (alpha 1.5) and 23 (1.8)
        # zeros of phi at lam = -1
        ref, zeros = exact_l1(alpha, -1.0, (100.0,))
        assert zeros.size >= 5
        ker = Kernels(alpha, np.array([[-1.0]]))
        assert phi_alpha_l1(ker, 100.0) == pytest.approx(ref[0], rel=1e-13)

    @pytest.mark.parametrize("lam", [-0.3, -1.0, -2.0, -5.0])
    @pytest.mark.parametrize("alpha", [1.1, 1.2, 1.5, 1.8, 1.95])
    def test_no_noise_floor_acceptance(self, monkeypatch, alpha, lam):
        # no quadrature, so no stagnation rule: the grid and the halving
        # edges of one delta find the same lobes
        monkeypatch.setattr(kernels, "_NOISE_FLOOR", 0.0)
        ker = Kernels(alpha, np.array([[lam]]))
        table = ker.norm_integrals(DELTAS)
        assert np.all(np.diff(table) > 0)
        assert phi_alpha_l1(ker, 100.0) == pytest.approx(table[-1], rel=1e-13)

    def test_six_regula_falsi_steps_suffice(self, monkeypatch):
        # six steps leave these zeros up to 1.3e-7 relative off; L1 moves
        # by about the square of that, as the slope of its primitive, phi,
        # vanishes at a zero
        ker = Kernels(1.82, np.array([[-2.477]]))
        edges = kernels._edges(DEFAULT_DELTA_GRID)
        zeros, l1 = ker._zeros(edges), ker.norm_integrals(DEFAULT_DELTA_GRID)
        monkeypatch.setattr(kernels, "_ZERO_STEPS", 30)
        ker = Kernels(1.82, np.array([[-2.477]]))
        exact, ref = ker._zeros(edges), ker.norm_integrals(DEFAULT_DELTA_GRID)
        assert np.max(np.abs(zeros - exact) / exact) > 1e-8
        np.testing.assert_allclose(l1, ref, rtol=1e-14, atol=0)

    def test_scan_coarser_than_the_zeros_raises(self, monkeypatch):
        # at lam = -5, alpha = 1.95 the quarter half-period is 0.344, and
        # the first-level cells of the default grid past s = 31.6 are wider:
        # a pair of zeros could share a cell and drop two lobes from L1
        monkeypatch.setattr(kernels, "_MAX_DOUBLINGS", 0)
        ker = Kernels(1.95, np.array([[-5.0]]))
        with pytest.raises(QuadratureNotConverged,
                           match=r"32 cells on \[31.6228, 46.4159\]"):
            ker.norm_integrals(DELTAS)


class TestLastZero:
    """Past ``kernels._last_zero(alpha)`` E_{a,a}(-x) < 0 for 1 < a < 2, so
    the zero scan leaves out the segments that start beyond the last zero,
    and every zero, edge and integral keeps its bits."""

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("x", [1.0, 30.0, 300.0])
    def test_representation(self, alpha, x):
        # the residues of the two poles plus the negative cut integral
        s = x ** (1 / alpha) * np.exp(1j * np.pi / alpha)
        res = 2 / alpha * (s ** (1 - alpha) * np.exp(s)).real
        cut = quad(lambda r: math.exp(-r) * r ** alpha
                   / (r ** (2 * alpha) + 2 * r ** alpha * x
                      * math.cos(alpha * math.pi) + x * x),
                   0, np.inf, limit=200)[0]
        got = mlf.ml_scalar_array(alpha, alpha, [-x])[0].real
        ref = res + math.sin(alpha * math.pi) / math.pi * cut
        assert got == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.8, 1.95])
    def test_negative_past_the_bound(self, alpha):
        X = kernels._last_zero(alpha)
        x = np.geomspace(1e-3, 1e3 * X, 20000)
        e = mlf.ml_scalar_array(alpha, alpha, -x).real
        assert np.all(e[x > X] < 0)
        # a sign change shortly before X: the bound is not far off
        last = x[np.flatnonzero(np.diff(np.sign(e)))[-1]]
        assert last < X < 1e3 * last

    @pytest.mark.parametrize("lam", [-0.3, -5.0])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.95])
    def test_bits_of_the_full_scan(self, monkeypatch, alpha, lam):
        points = []
        e_ml = Kernels.e_ml

        def counted(self, beta, t):
            points.append(np.size(t))
            return e_ml(self, beta, t)

        monkeypatch.setattr(Kernels, "e_ml", counted)

        def both():
            ker = Kernels(alpha, np.array([[lam]]))
            T = 20.0 * max(1.0, 1.0 / abs(lam))
            edges = np.concatenate(([0.0], T * 2.0 ** np.arange(-10, 11.0)))
            points.clear()
            zeros = ker._zeros(edges)
            return (zeros, sum(points), ker.norm_integrals(DELTAS),
                    certificates._l1_to_infinity(ker))

        zeros, nodes, table, k1 = both()
        # no bound on the last zero inside the scan alone: K1 still reads
        # the bound for its own edges
        scan = Kernels._zeros

        def full_scan(self, edges):
            with monkeypatch.context() as m:
                m.setattr(kernels, "_last_zero", lambda alpha: math.inf)
                return scan(self, edges)

        monkeypatch.setattr(Kernels, "_zeros", full_scan)
        all_zeros, all_nodes, all_table, all_k1 = both()
        assert zeros.tolist() == all_zeros.tolist()
        assert table.tolist() == all_table.tolist()
        assert k1 == all_k1
        assert nodes < all_nodes / 5


# kernels of the shared pass: scalar ones of every band, a normal one, a
# non-normal one and one with a conjugate pair of eigenvalues
SHARED_KERNELS = [
    (0.3, [[-0.7]]), (0.6, [[-math.sqrt(0.3)]]), (0.95, [[-2.0, 0.5],
                                                         [0.0, -0.6]]),
    (1.0, [[-1.0]]), (1.2, [[-math.sqrt(0.3)]]),
    (1.5, [[-1.0, 2.0], [-2.0, -1.0]]), (1.9, [[-0.8]]),
    (2.0, [[-1.0, 0.3], [0.0, -2.0]]),
]


class TestSharedKernelPass:
    """Every kernel of one point set comes from one Mittag-Leffler pass,
    with the bits of its one-beta evaluation on a kernel of its own."""

    @staticmethod
    def fresh(alpha, A0):
        return Kernels(alpha, np.array(A0, dtype=float))

    @pytest.mark.parametrize("alpha, A0", SHARED_KERNELS)
    def test_scaled_kernels_keep_their_bits(self, alpha, A0):
        # phi_j, int_phi and the second primitive of the march, at times
        # below 0, at 0 and past it, from one pass
        t = np.concatenate(([-0.5, 0.0], np.geomspace(1e-3, 60.0, 40)))
        k = math.ceil(alpha - 1e-12)
        terms = ([(j, j + 1) for j in range(k)]
                 + [(alpha, alpha + 1), (alpha + 1.0, alpha + 2)])
        shared = list(self.fresh(alpha, A0).scaled_each(terms, t))
        for j in range(k):
            one = self.fresh(alpha, A0).phi_j(j, t)
            assert shared[j].tolist() == one.tolist(), j
        one = self.fresh(alpha, A0).int_phi(t)
        assert shared[k].tolist() == one.tolist()
        T = t[t >= 0]
        second = self.fresh(alpha, A0).e_ml(alpha + 2, T)
        second *= (T ** (alpha + 1.0))[:, None, None]
        assert shared[k + 1][t >= 0].tolist() == second.tolist()
        assert not shared[k + 1][t < 0].any()
        # int_s_phi takes both primitives from one pass
        ref = T[:, None, None] * self.fresh(alpha, A0).int_phi(T) - second
        assert self.fresh(alpha, A0).int_s_phi(T).tolist() == ref.tolist()

    @pytest.mark.parametrize("alpha, A0", SHARED_KERNELS)
    def test_e_ml_each_keeps_their_bits(self, alpha, A0):
        t = np.geomspace(1e-3, 60.0, 30)
        betas = [1.0, 2.0, alpha, alpha + 1.0, alpha + 2.0]
        got = list(self.fresh(alpha, A0).e_ml_each(betas, t))
        for beta, mats in zip(betas, got):
            one = self.fresh(alpha, A0).e_ml(beta, t)
            assert mats.tolist() == one.tolist(), beta

    @pytest.mark.parametrize("alpha, A0", [
        (0.6, [[-math.sqrt(0.3)]]), (0.95, [[-0.8, 0.0], [0.0, -2.0]]),
        (1.2, [[-math.sqrt(0.3)]]), (1.5, [[-1.0]]),
        (0.7, [[-1.0, 0.5], [0.0, -2.0]])])
    def test_l1_and_kernels_keep_their_bits(self, alpha, A0):
        # the exact L1 (monotone or scalar kernels) reads the primitive from
        # the pass of the phi_j; the quadrature (the non-normal kernel) does
        # not, and its phi_j take a pass of their own
        for deltas in (list(DEFAULT_DELTA_GRID), [2.5]):
            k = math.ceil(alpha - 1e-12)
            l1, phis = self.fresh(alpha, A0).l1_and_kernels(
                deltas, [(j, j + 1) for j in range(k)])
            ref = self.fresh(alpha, A0).norm_integrals(deltas)
            assert l1.tolist() == ref.tolist()
            for j in range(k):
                one = self.fresh(alpha, A0).phi_j(j, deltas)
                assert phis[j].tolist() == one.tolist(), j

    def test_certify_builds_each_contour_once(self, monkeypatch):
        # certify-grid's op 3: alpha 1.2, A0 = -sqrt(0.3).  The zero scan,
        # its refinement, the primitive, phi_0, phi_1 and K1 share one
        # table: no row of pole bins goes through _contours twice
        rows = []
        contours = mlf._contours

        def counted(p0, bins):
            rows.extend((p0, tuple(row)) for row in bins.tolist())
            return contours(p0, bins)

        monkeypatch.setattr(mlf, "_contours", counted)
        phi = [const_phi([1.0], 0.7)] * 2
        report = certify(validate_system(
            1.2, [0.0, 0.7], [np.array([[-math.sqrt(0.3)]]),
                              np.array([[0.05]])], phi=phi))
        assert report.verdict == "ContractiveGAS"
        assert len(rows) > 24
        assert len(set(rows)) == len(rows)

    @pytest.mark.parametrize("alpha", [0.6, 0.9])
    def test_certify_builds_the_pole_free_contour_once(self, monkeypatch,
                                                       alpha):
        # at alpha <= 1 the primitive and phi_0 of a scalar kernel share
        # the one contour of their points, which have no pole
        built = []
        contours = mlf._contours

        def counted(p0, bins):
            built.append((p0, bins.shape))
            return contours(p0, bins)

        monkeypatch.setattr(mlf, "_contours", counted)
        certify(scalar_problem(alpha, -math.sqrt(0.3), 0.05, r1=0.7))
        assert built == [(0.0, (1, 0))]


def forbid_evaluation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("kernel evaluated")

    # every scalar evaluation, one beta or several, is an ml_betas pass
    monkeypatch.setattr(mlf, "ml_betas", fail)


class TestRefusedInputs:
    """The quadrature layer refuses what it cannot integrate before any
    kernel evaluation."""

    @pytest.mark.parametrize("call, match", [
        pytest.param(lambda: Kernels(0.0, A1), "alpha must be positive",
                     id="alpha-zero"),
        pytest.param(lambda: Kernels(-0.5, A1), "alpha must be positive",
                     id="alpha-negative"),
        pytest.param(lambda: phi_alpha_l1((0.8, A1), 0.0),
                     "deltas must be positive", id="delta-zero"),
        pytest.param(lambda: phi_alpha_l2sq((0.8, A1), -1.0),
                     "deltas must be positive", id="delta-negative"),
        pytest.param(lambda: Kernels(0.8, A3).norm_integrals([2.0, 1.0]),
                     "deltas must be positive and increase",
                     id="edges-decrease"),
        pytest.param(lambda: Kernels(1.5, A1).norm_integrals([1.0, 1.0]),
                     "deltas must be positive and increase",
                     id="edges-repeat"),
        pytest.param(lambda: Kernels(0.8, A1).norm_integrals([-1.0, 1.0]),
                     "deltas must be positive", id="edges-negative-start"),
        pytest.param(lambda: weighted_singular_integral(-1.0, np.exp, 1.0),
                     "exponent must exceed -1", id="exponent-minus-one"),
        pytest.param(lambda: weighted_singular_integral(-1.5, np.exp,
                                                        [0.0, 1.0]),
                     "exponent must exceed -1", id="exponent-below"),
        pytest.param(lambda: Kernels(0.8, A1).e_ml_each((1.0, 0.8),
                                                        [1.0, math.nan]),
                     "t must be nonnegative and finite", id="e-ml-nan"),
        pytest.param(lambda: Kernels(0.8, A3).e_ml(1.0, math.inf),
                     "t must be nonnegative and finite", id="e-ml-inf"),
        pytest.param(lambda: Kernels(1.0, A1).e_ml(1.0, -0.5),
                     "t must be nonnegative and finite",
                     id="e-ml-negative-integer-order"),
        pytest.param(lambda: Kernels(1.5, A1).phi_j(0, [-1.0, math.nan]),
                     "t must be finite", id="phi-j-nan"),
        pytest.param(lambda: list(Kernels(0.8, A1).scaled_each(
            [(0, 1), (0.8, 1.8)], -math.inf)), "t must be finite",
                     id="scaled-minus-inf"),
    ])
    def test_refused(self, monkeypatch, call, match):
        forbid_evaluation(monkeypatch)
        with pytest.raises(ValueError, match=match):
            call()

    # the exact primitive, the zero scan, a monotone kernel, the quadrature
    @pytest.mark.parametrize("alpha, A0", [(0.8, A1), (1.5, A1),
                                           (0.8, np.diag([-1.0, -2.0])),
                                           (0.8, A3)])
    @pytest.mark.parametrize("deltas, match", [
        (0.0, "positive"), (-1.0, "positive"), ([0.0, 1.0], "positive"),
        ([], "positive"), ([1.0, -2.0], "increase"), ([2.0, 1.0], "increase"),
        ([1.0, 1.0], "increase"), (math.nan, "finite"),
        ([1.0, math.inf], "finite"), ([-math.inf, 1.0], "finite")])
    def test_norm_integrals_refuses_deltas(self, monkeypatch, alpha, A0,
                                           deltas, match):
        forbid_evaluation(monkeypatch)
        ker = Kernels(alpha, A0)
        with pytest.raises(ValueError, match=f"deltas must be .*{match}"):
            ker.norm_integrals(deltas)


class TestNonFiniteEdges:
    """A non-finite edge fails before any kernel evaluation."""

    @pytest.mark.parametrize("A0", [[[-1.0]], [[-1.0, 0.5], [0.0, -2.0]]])
    @pytest.mark.parametrize("edges", [[0.5, 1.0, math.inf], math.inf,
                                       [0.5, math.nan, 2.0]])
    def test_norm_integrals(self, monkeypatch, A0, edges):
        forbid_evaluation(monkeypatch)
        with pytest.raises(ValueError, match="deltas must be finite"):
            Kernels(0.4, np.array(A0)).norm_integrals(edges)

    def test_certify(self, monkeypatch):
        # certify checks its delta grid through _edges before any kernel
        # is built (tests/test_certificates.py)
        forbid_evaluation(monkeypatch)
        prob = scalar_problem(0.8, -1.0, 0.3, r1=1.0)
        with pytest.raises(ValueError, match="deltas must be finite"):
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

    def test_non_stability_matrix_gets_no_envelope(self):
        rep = verify_lemma22((0.8, np.array([[0.5]])), [1.0, 2.0, 4.0])
        names = [c.name for c in rep.checks]
        assert names == ["sub_unit_order_E_beta1", "sub_unit_order_phi",
                         "order_phi_km1_vs_phi"]
        assert rep.all_passed

    @pytest.mark.parametrize("A0, t, s", [
        ([[1.0, 0.3], [0.0, 2.0]], [1.0, 100.0, 400.0], 400),
        ([[1.0]], [1.0, 100.0, 800.0], 800)])
    def test_kernel_overflow_names_its_cause(self, A0, t, s):
        # e^(lam s) beyond double range: the 2x2 kernel used to turn NaN
        # and stall the norm series, the scalar one to fail with NaN margins
        with np.errstate(over="ignore"), pytest.raises(
                OverflowBeyondRepresentableRange,
                match=rf"E_\{{1.0,1\}}\(A s\) exceeds double range at "
                      rf"s = {s}$"):
            verify_lemma22((1.0, np.array(A0)), t)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_each_table_evaluated_once(self, monkeypatch, alpha):
        # one Mittag-Leffler pass for every E_{a,j+1} (shared by ||E|| and
        # ||phi_j||) and phi's E_{a,a}; one stacked expm per grid of times
        calls = {"passes": [], "expm": 0}
        passes, expm = kernels._ml_matrices, kernels.expm

        def count_passes(alpha, betas, *args):
            calls["passes"].append(list(betas))
            return passes(alpha, betas, *args)

        def count_expm(*args, **kwargs):
            calls["expm"] += 1
            return expm(*args, **kwargs)

        monkeypatch.setattr(kernels, "_ml_matrices", count_passes)
        monkeypatch.setattr(kernels, "expm", count_expm)
        A0 = np.array([[-1.0, 0.5, 0.0], [0.0, -1.5, 0.3], [0.2, 0.0, -2.0]])
        grid = np.linspace(1.0, 10.0, 20)
        envelope = fit_decay_envelope(A0)
        calls["expm"] = 0
        rep = verify_lemma22((alpha, A0), grid, envelope=envelope)
        assert rep.all_passed
        k = math.ceil(alpha)
        # ||e^{A0 t}|| on the grid and on its powers t^alpha
        assert calls == {"passes": [[j + 1 for j in range(k)] + [alpha]],
                         "expm": 2}


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


@pytest.mark.parametrize("t", [-1.0, [0.0, 1.0, -0.5]])
def test_norm_series_ml_refuses_negative_time(t):
    with pytest.raises(ValueError, match="t must be nonnegative"):
        norm_series_ml(0.8, 1.0, A1, t)


def test_norm_series_ml_raises_when_not_converging():
    # |A| t^a = 1e5: the terms still grow after the 4,000-term cap
    with pytest.raises(QuadratureNotConverged,
                       match="norm-series majorant did not converge"):
        norm_series_ml(1.0, 1.0, np.array([[-1e3]]), 100.0)
