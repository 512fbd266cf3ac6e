import math

import numpy as np
import pytest

from scipy.special import rgamma

from conftest import FIXTURES, const_phi, random_stable_matrix, scalar_problem
from fracdelay import (ControlInput, Kernels, SimulationGrid,
                       TimeFunctionTable, Trajectory, align_grid, ml_scalar,
                       picard_map, solve_delay_free, solve_oracle,
                       solve_trajectory, validate_system)
from fracdelay import solver
from fracdelay.errors import (DelaysNotZero, DimensionMismatch, GridTooLarge,
                              NodeCorrectionDiverged)
from fracdelay.system import lag_tables, load_problem


class TestGrid:
    def test_alignment_adjusts_step(self):
        grid = align_grid(0.3, 2.0, [0.0, 1.0])
        assert grid.step <= 0.3
        assert abs(round(1.0 / grid.step) * grid.step - 1.0) < 1e-12

    def test_incommensurate_delays(self):
        grid = align_grid(0.01, 2.0, [0.0, 0.3, 1.0])
        for d in (0.3, 1.0):
            assert abs(round(d / grid.step) * grid.step - d) < 1e-9

    def test_node_count(self):
        grid = align_grid(0.1, 1.0, [0.0])
        assert grid.node_count == 11

    @pytest.mark.parametrize("step, horizon", [(0.0, 1.0), (0.1, -1.0)])
    def test_nonpositive_step_or_horizon_rejected(self, step, horizon):
        with pytest.raises(ValueError, match="must be positive"):
            align_grid(step, horizon, [0.0])

    def test_node_budget(self):
        # nearly incommensurate delays: the aligned step is about 2.45e-9
        with pytest.raises(GridTooLarge, match=r"1\.414.*nodes"):
            align_grid(0.01, 10.0, [0.0, 1.0, math.sqrt(2.0)])
        with pytest.raises(GridTooLarge):
            align_grid(1e-7, 1.0, [0.0])
        assert align_grid(1e-5, 1.0, [0.0, 0.5]).node_count == 100_001

    def test_unaligned_delay_rejected_by_every_solver(self):
        # step 0.03 would round the delay 1.0 to 33 steps = 0.99
        prob = scalar_problem(1.0, -1.0, 0.5, r1=1.0)
        grid = SimulationGrid(step=0.03, horizon=3.0)
        start = Trajectory(grid=grid, states=np.zeros((grid.node_count, 1)),
                           prehistory=prob.ics)
        for solve in (solve_trajectory, solve_oracle,
                      lambda p, g: picard_map(p, start, g)):
            with pytest.raises(DimensionMismatch):
                solve(prob, grid)


class TestAnalyticCases:
    def test_scalar_exponential(self):
        prob = scalar_problem(1.0, -1.0)
        grid = align_grid(1e-3, 1.0, prob.system.delays)
        traj = solve_trajectory(prob, grid)
        assert abs(traj.states[-1, 0] - math.exp(-1)) < 1e-7

    def test_split_invariance(self):
        # moving part of the constant into the time-varying slot cannot
        # change the solution; this exercises the Volterra quadrature
        prob = scalar_problem(1.0, -0.3, at0=-0.7)
        grid = align_grid(1e-3, 1.0, prob.system.delays)
        traj = solve_trajectory(prob, grid)
        assert abs(traj.states[-1, 0] - math.exp(-1)) < 1e-6

    def test_method_of_steps(self):
        # x'(t) = -x(t-1), phi = 1: x(t) = 1 - t on [0, 1]
        prob = scalar_problem(1.0, 0.0, -1.0, r1=1.0)
        grid = align_grid(1e-3, 1.0, prob.system.delays)
        traj = solve_trajectory(prob, grid)
        assert abs(traj.states[-1, 0]) < 1e-9
        mid = traj.states[grid.node_count // 2, 0]
        assert mid == pytest.approx(1.0 - traj.times[grid.node_count // 2],
                                    abs=1e-9)

    def test_fractional_no_delay_matches_ml(self):
        prob = scalar_problem(0.5, -1.0)
        grid = align_grid(1e-3, 1.0, prob.system.delays)
        traj = solve_trajectory(prob, grid)
        ref = ml_scalar(0.5, 1.0, -1.0).real
        assert abs(traj.states[-1, 0] - ref) < 1e-10

    def test_initial_node_equals_endpoint(self):
        prob = scalar_problem(0.7, -1.0, 0.3, r1=0.5, phi0=2.5)
        grid = align_grid(0.01, 1.0, prob.system.delays)
        traj = solve_trajectory(prob, grid)
        assert traj.states[0, 0] == 2.5


    def test_stiff_instantaneous_coupling_solved_directly(self):
        # x' = -300 x, all of it in the time-varying slot: K(0) C = -1.5 per
        # node, beyond any fixed-point sweep; the node solve gives the
        # trapezoid recurrence x_m = -0.2 x_(m-1)
        prob = scalar_problem(1.0, 0.0, at0=-300.0)
        grid = align_grid(0.01, 1.0, prob.system.delays)
        traj = solve_trajectory(prob, grid)
        m = np.arange(grid.node_count)
        np.testing.assert_allclose(traj.states[:, 0], (-0.2) ** m, rtol=0,
                                   atol=1e-11)

    def test_singular_node_equation(self):
        # K(0) C = 0.005 * 200 = 1: I - K(0) C is singular at every node
        prob = scalar_problem(1.0, 0.0, at0=200.0)
        grid = align_grid(0.01, 1.0, prob.system.delays)
        with pytest.raises(NodeCorrectionDiverged):
            solve_trajectory(prob, grid)

    def test_overflowing_node_solve(self):
        # K(0) C = 0.9995: each node multiplies x by 1.9995 / 0.0005 = 3999,
        # past the largest double within 100 nodes
        prob = scalar_problem(1.0, 0.0, at0=199.9)
        grid = align_grid(0.01, 1.0, prob.system.delays)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NodeCorrectionDiverged, match="not finite"):
            solve_trajectory(prob, grid)


# ---------------------------------------------------------------------------
# O(L^2) per-node references: every history sum taken term by term at its
# node, as the march and the oracle did before the blocked FFT history (each
# node equation solved directly)
# ---------------------------------------------------------------------------

def _sampled_terms(prob, grid):
    """Per lag, the samples of A_i + Atilde_i(t) + B(t) K_i; and the
    samples of B(t) u(t) (None without open-loop input)."""
    sys, ctl, times = prob.system, prob.control, grid.times
    B = sys.B(times) if sys.B is not None else None
    coeffs = []
    for i in range(len(sys.delays)):
        coeff = sys.A[i] + sys.A_tilde[i](times)
        if ctl.kind == "feedback":
            coeff = coeff + np.einsum("qik,kj->qij", B, ctl.gains[i])
        coeffs.append(coeff)
    Bu = (np.einsum("qij,qj->qi", B, ctl.u(times))
          if ctl.kind == "open_loop" else None)
    return coeffs, Bu


def _reference_march(prob, grid):
    disc = solver._Discretization(prob, grid)
    coeffs, Bu = _sampled_terms(prob, grid)
    delayed = [(lag, c) for lag, c in zip(disc.lags, coeffs) if lag > 0]
    n, L, dt = disc.n, disc.L, disc.dt
    ker = Kernels(prob.system.alpha, disc.A0_eff)
    T = dt * np.arange(L + 1, dtype=float)
    P0 = ker.int_phi(T)
    P1 = ker.int_s_phi(T)
    m0 = P0[1:] - P0[:-1]
    mu1 = (P1[1:] - P1[:-1]) - T[:-1][:, None, None] * m0
    zero = np.zeros((1, n, n))
    Wl = np.concatenate([zero, mu1 / dt])
    Wr = np.concatenate([zero, m0 - mu1 / dt])

    def g_known(states, q):
        out = np.zeros(n)
        for lag, coeff in delayed:
            x = (states[q - lag] if q >= lag
                 else prob.ics.history(-(lag - q) * dt))
            out += coeff[q] @ x
        if Bu is not None:
            out += Bu[q]
        return out

    states = np.zeros((L + 1, n))
    G = np.zeros((L + 1, n))
    states[0] = prob.ics.x0[0]
    G[0] = disc.C[0] @ states[0] + g_known(states, 0)
    for m in range(1, L + 1):
        hist = np.einsum("gij,gj->i", Wl[1:m + 1], G[m - 1::-1])
        if m >= 2:
            hist += np.einsum("gij,gj->i", Wr[2:m + 1], G[m - 1:0:-1])
        d_m = g_known(states, m)
        rhs = disc.f[m] + hist + Wr[1] @ d_m
        states[m] = np.linalg.solve(np.eye(n) - Wr[1] @ disc.C[m], rhs)
        G[m] = disc.C[m] @ states[m] + d_m
    return states


def test_sampling_sums_the_lag_tables():
    # linear Atilde_i, a linear B and feedback at both lags: C and the
    # delayed coefficient are the lag tables of the certificates at the nodes
    prob = load_problem(f"{FIXTURES}/tv_feedback.json")
    grid = align_grid(0.01, 10.0, prob.system.delays)
    smp = solver._Sampling(prob, grid)
    sums = [sum(table(grid.times) for table in tables)
            for _, tables in lag_tables(prob)]
    assert smp.C.tolist() == sums[0].tolist()
    assert [lag for lag, _ in smp.delayed] == [70]
    assert smp.delayed[0][1].tolist() == sums[1].tolist()


def _reference_oracle(prob, grid):
    smp = solver._Sampling(prob, grid)
    alpha, k = prob.system.alpha, prob.system.k
    dt, L, n, times = smp.dt, smp.L, smp.n, smp.times
    coeffs, Bu = _sampled_terms(prob, grid)
    coeffs = list(zip(smp.lags, coeffs))

    def rhs(states, q, xq):
        out = np.zeros(n)
        for lag, coeff in coeffs:
            if lag == 0:
                x = xq
            elif q >= lag:
                x = states[q - lag]
            else:
                x = prob.ics.history(-(lag - q) * dt)
            out += coeff[q] @ x
        if Bu is not None:
            out += Bu[q]
        return out

    x0 = prob.ics.x0
    Tm = np.zeros((L + 1, n))
    for j in range(k):
        Tm += (times ** j / math.gamma(j + 1))[:, None] * x0[j]
    j = np.arange(L + 1, dtype=float)
    I0 = np.diff((j * dt) ** alpha) / alpha
    I1 = np.diff((j * dt) ** (alpha + 1.0)) / (alpha + 1.0)
    s1 = (j * dt)[:-1]
    rg = rgamma(alpha)
    zero = np.zeros(1)
    w_left = np.concatenate([zero, (I1 - s1 * I0) / dt * rg])
    w_right = np.concatenate([zero, ((s1 + dt) * I0 - I1) / dt * rg])

    states = np.zeros((L + 1, n))
    F = np.zeros((L + 1, n))
    states[0] = x0[0]
    F[0] = rhs(states, 0, states[0])
    for m in range(1, L + 1):
        hist = np.einsum("g,gj->j", w_left[1:m + 1], F[m - 1::-1])
        if m >= 2:
            hist += np.einsum("g,gj->j", w_right[2:m + 1], F[m - 1:0:-1])
        # the node equation x = Tm + hist + w_right(1) F(x), solved
        # directly: F is affine in x, with the lag-0 coefficients as slope
        d_m = rhs(states, m, np.zeros(n))
        A_now = sum(coeff[m] for lag, coeff in coeffs if lag == 0)
        states[m] = np.linalg.solve(np.eye(n) - w_right[1] * A_now,
                                    Tm[m] + hist + w_right[1] * d_m)
        F[m] = rhs(states, m, states[m])
    return states


def _blocked_case(n, alpha, lags, control, tv, seed):
    """Problem on step 0.01 with the given lags (in steps), a prehistory
    that varies over [-h, 0], and open-loop input or feedback."""
    rng = np.random.default_rng(seed)
    dt = 0.01
    delays = [0.0] + [lag * dt for lag in lags]
    A = [random_stable_matrix(rng, n)] + [
        0.2 * rng.normal(size=(n, n)) / len(lags) for _ in lags]
    t_end = 8.0
    A_tilde = [None] * len(delays)
    if tv:
        times = np.linspace(0.0, t_end, 33)
        A_tilde[0] = TimeFunctionTable(
            times, 0.2 * np.sin(times)[:, None, None] * rng.normal(size=(n, n)),
            "linear")
    B = rng.normal(size=(n, 1))
    if control == "open_loop":
        times = np.linspace(0.0, t_end, 81)
        ctl = ControlInput.open_loop(
            TimeFunctionTable(times, np.cos(1.3 * times)[:, None], "linear"))
    else:
        ctl = ControlInput.feedback(
            [0.1 * rng.normal(size=(1, n)) for _ in delays])
    h = delays[-1]
    phi = [TimeFunctionTable(np.array([-h, 0.0]), rng.normal(size=(2, n)),
                             "linear") for _ in range(math.ceil(alpha))]
    prob = validate_system(alpha, delays, A, A_tilde, B, phi, control=ctl)
    # L = 703 nodes: eleven leaves of 64, the last one partial
    return prob, SimulationGrid(step=dt, horizon=7.03)


class TestBlockedHistory:
    # lags below the leaf length (1 included), equal to it and above it
    CASES = [
        (1, 0.7, (1,), "open_loop", True),
        (1, 1.4, (solver._LEAF,), "feedback", False),
        (1, 0.5, (solver._LEAF + 37,), "feedback", True),
        (3, 0.8, (1, solver._LEAF), "feedback", True),
        (3, 1.3, (5, solver._LEAF + 37), "open_loop", False),
    ]

    @pytest.mark.parametrize("n, alpha, lags, control, tv", CASES)
    def test_against_per_node_reference(self, n, alpha, lags, control, tv):
        prob, grid = _blocked_case(n, alpha, lags, control, tv, seed=n + 7)
        assert grid.node_count == 704
        march = solve_trajectory(prob, grid).states
        ref = _reference_march(prob, grid)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(march - ref)) <= 1e-12 * scale
        oracle = solve_oracle(prob, grid).states
        ref = _reference_oracle(prob, grid)
        assert np.max(np.abs(oracle - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha", [0.7, 1.4])
    def test_discretization_evaluates_each_table_once(self, monkeypatch,
                                                      alpha):
        # phi_j needs E_{a,j+1}, int_phi E_{a,a+1}, int_s_phi E_{a,a+1}
        # and E_{a,a+2}: one pass over the nodes evaluates every beta, the
        # shared E_{a,a+1} once
        prob, grid = _blocked_case(1, alpha, (1,), "open_loop", False, seed=3)
        passes = []
        e_ml_each = Kernels.e_ml_each

        def counted(self, betas, t):
            passes.append((list(betas), np.array(t).tolist()))
            return e_ml_each(self, betas, t)

        monkeypatch.setattr(Kernels, "e_ml_each", counted)
        solver._Discretization(prob, grid)
        k = prob.system.k
        assert passes == [([j + 1 for j in range(k)] + [alpha + 1.0,
                                                        alpha + 2.0],
                           grid.times.tolist())]


class TestLinearity:
    def test_zero_data_zero_trajectory(self):
        prob = scalar_problem(0.7, -1.0, 0.3, r1=0.5, phi0=0.0)
        grid = align_grid(0.01, 3.0, prob.system.delays)
        traj = solve_trajectory(prob, grid)
        assert np.max(np.abs(traj.states)) == 0.0

    def test_superposition(self):
        grid = None
        outs = []
        for phi0 in (1.0, 2.0, 3.0):
            prob = scalar_problem(0.7, -1.0, 0.3, r1=0.5, phi0=phi0)
            grid = grid or align_grid(0.01, 3.0, prob.system.delays)
            outs.append(solve_trajectory(prob, grid).states)
        np.testing.assert_allclose(outs[0] + outs[1], outs[2],
                                   rtol=1e-10, atol=1e-12)


class TestOracleAgreement:
    def test_exponential(self):
        prob = scalar_problem(1.0, -1.0)
        grid = align_grid(1e-3, 1.0, prob.system.delays)
        a = solve_trajectory(prob, grid)
        b = solve_oracle(prob, grid)
        assert np.max(np.abs(a.states - b.states)) < 1e-4

    def test_method_of_steps(self):
        prob = scalar_problem(1.0, 0.0, -1.0, r1=1.0)
        grid = align_grid(1e-3, 1.0, prob.system.delays)
        b = solve_oracle(prob, grid)
        assert abs(b.states[-1, 0]) < 1e-3

    def test_fractional_delay_system(self):
        prob = scalar_problem(0.7, -1.0, 0.3, r1=0.5)
        grid = align_grid(2e-3, 5.0, prob.system.delays)
        a = solve_trajectory(prob, grid)
        b = solve_oracle(prob, grid)
        rel = np.max(np.abs(a.states - b.states)) / np.max(np.abs(a.states))
        assert rel < 1e-3

    def test_time_varying_and_control(self, rng):
        from fracdelay import TimeFunctionTable
        times = np.linspace(0.0, 4.0, 41)
        At = TimeFunctionTable(times, 0.2 * np.sin(times)[:, None, None]
                               * np.ones((1, 1, 1)), "linear")
        u = TimeFunctionTable(times, 0.5 * np.cos(times)[:, None], "linear")
        prob = validate_system(
            0.9, [0.0, 0.5], [np.array([[-1.0]]), np.array([[0.2]])],
            [At, np.array([[0.0]])], np.array([[1.0]]),
            [const_phi([1.0], 0.5)], control=ControlInput.open_loop(u))
        grid = align_grid(2e-3, 4.0, prob.system.delays)
        a = solve_trajectory(prob, grid)
        b = solve_oracle(prob, grid)
        rel = np.max(np.abs(a.states - b.states)) / np.max(np.abs(a.states))
        assert rel < 1e-3


class TestPicard:
    def test_solution_is_fixed_point(self):
        prob = scalar_problem(0.7, -1.0, 0.3, r1=0.5)
        grid = align_grid(5e-3, 3.0, prob.system.delays)
        traj = solve_trajectory(prob, grid)
        image = picard_map(prob, traj, grid)
        assert np.max(np.abs(image.states - traj.states)) < 1e-9

    def test_zero_system_maps_everything_to_x0(self):
        prob = scalar_problem(0.5, 0.0, phi0=2.0)
        grid = align_grid(0.01, 1.0, prob.system.delays)
        start = Trajectory(grid=grid,
                           states=np.full((grid.node_count, 1), 7.0),
                           prehistory=prob.ics)
        image = picard_map(prob, start, grid)
        np.testing.assert_allclose(image.states, 2.0, rtol=1e-12)

    def test_trajectory_of_another_grid_rejected(self):
        prob = scalar_problem(0.7, -1.0)
        grid = align_grid(0.01, 1.0, prob.system.delays)
        start = Trajectory(grid=grid, states=np.zeros((grid.node_count - 1, 1)),
                           prehistory=prob.ics)
        with pytest.raises(DimensionMismatch, match="does not match grid"):
            picard_map(prob, start, grid)

    def test_iteration_converges_on_contractive_system(self):
        prob = scalar_problem(1.0, -1.0, 0.5, r1=1.0)
        grid = align_grid(5e-3, 10.0, prob.system.delays)
        ref = solve_trajectory(prob, grid)
        cur = Trajectory(grid=grid, states=np.zeros_like(ref.states),
                         prehistory=prob.ics)
        for iteration in range(50):
            cur = picard_map(prob, cur, grid)
            if np.max(np.abs(cur.states - ref.states)) < 1e-6:
                break
        assert iteration + 1 <= 50
        assert np.max(np.abs(cur.states - ref.states)) < 1e-6


class TestDelayFree:
    def test_requires_zero_delays(self):
        prob = scalar_problem(1.0, -1.0, 0.5, r1=1.0)
        grid = align_grid(0.01, 1.0, prob.system.delays)
        with pytest.raises(DelaysNotZero):
            solve_delay_free(prob, grid)

    def test_sum_of_matrices(self):
        prob = scalar_problem(1.0, -0.5, -0.5, zero_delays=True)
        grid = align_grid(1e-3, 1.0, prob.system.delays)
        traj = solve_delay_free(prob, grid)
        assert abs(traj.states[-1, 0] - math.exp(-1)) < 1e-10

    def test_matches_collapsed_encoding(self):
        probA = scalar_problem(1.0, -0.5, -0.5, zero_delays=True)
        probB = scalar_problem(1.0, -1.0)
        grid = align_grid(1e-3, 1.0, [0.0])
        a = solve_delay_free(probA, grid)
        b = solve_trajectory(probB, grid)
        assert np.max(np.abs(a.states - b.states)) < 1e-8

    def test_fractional_effective_matrix(self):
        prob = scalar_problem(0.7, -0.4, -0.6, zero_delays=True)
        grid = align_grid(1e-3, 1.0, prob.system.delays)
        traj = solve_delay_free(prob, grid)
        ref = ml_scalar(0.7, 1.0, -1.0).real
        assert abs(traj.states[-1, 0] - ref) < 1e-10


class TestConvergence:
    def test_grid_refinement_improves(self):
        prob = scalar_problem(0.7, -1.0, 0.3, r1=0.5, at0=-0.2)
        fine = align_grid(6.25e-4, 2.0, prob.system.delays)
        ref = solve_trajectory(prob, fine)
        errs = []
        for step in (5e-3, 2.5e-3):
            grid = align_grid(step, 2.0, prob.system.delays)
            traj = solve_trajectory(prob, grid)
            stride = round(grid.step / fine.step)
            errs.append(np.max(np.abs(traj.states
                                      - ref.states[::stride][:len(traj.states)])))
        assert errs[0] / errs[1] >= 1.5


class TestCsv:
    def test_csv_format(self, tmp_path):
        prob = scalar_problem(1.0, -1.0)
        grid = align_grid(0.25, 1.0, prob.system.delays)
        traj = solve_trajectory(prob, grid)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,x1"
        assert len(lines) == grid.node_count + 1
        t, x = lines[-1].split(",")
        assert float(t) == pytest.approx(1.0)
        assert float(x) == pytest.approx(math.exp(-1), rel=1e-12)
