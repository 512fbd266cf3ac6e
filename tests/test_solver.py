import math

import numpy as np
import pytest

from conftest import const_phi, scalar_problem
from fracdelay import (ControlInput, SimulationGrid, Trajectory, align_grid,
                       ml_scalar, picard_map, solve_delay_free, solve_oracle,
                       solve_trajectory, validate_system)
from fracdelay.errors import DelaysNotZero, DimensionMismatch


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
