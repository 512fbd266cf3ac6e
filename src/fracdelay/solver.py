"""Trajectory computation for the delayed fractional state equation.

Marching scheme: the solution representation

    x(t) = sum_j phi_j(t) x_j0
         + integral_0^t phi(t - tau) [ sum_{lag>0} Ahat_i(tau) x(tau - r_i)
                                       + C(tau) x(tau) + B(tau) u(tau) ] dtau

is discretized on a delay-aligned uniform grid.  The bracket G(tau) is
interpolated piecewise-linearly between nodes and the matrix kernel
phi(s) = s^(a-1) E_{a,a}(A0 s^a) is integrated exactly against it per cell,
using the primitives  integral phi = T^a E_{a,a+1}(A0 T^a)  and
integral s phi = T^(a+1)[E_{a,a+1} - E_{a,a+2}](A0 T^a).  On a uniform grid
the resulting matrix weights depend only on the node distance, so they are
precomputed once.  The instantaneous coupling through the time-varying part
C(t) (and the lag-0 feedback gain) is resolved by fixed-point sweeps at each
node.

Matrices tied to lag 0 are folded into the kernel matrix A0; for the all-lags-
zero encoding this reproduces the delay-free representation with
A0 -> sum_i A_i automatically.

``solve_oracle`` is a deliberately different discretization for
cross-validation: a fractional Adams predictor-corrector applied to the state
equation directly (power kernel (t-tau)^(a-1)/Gamma(a) against the full right
side, including the A0 term, with rectangle predictor and trapezoid
corrector).  It shares with the marching scheme only the sampling of the
problem data at the nodes (``_Sampling``: aligned lags, coefficient samples,
input and prehistory); its kernel, weights and corrector are its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rgamma

from .errors import DelaysNotZero, DimensionMismatch, NodeCorrectionDiverged
from .kernels import Kernels
from .mlf import DEFAULT_CONFIG, MlEvalConfig
from .system import ValidatedProblem

_SOLVER_EVAL_TOL = 1e-11


def _float_gcd(a: float, b: float, tol: float = 1e-9) -> float:
    while b > tol * max(a, 1.0):
        a, b = b, math.fmod(a, b)
        if a < b:
            a, b = b, a
    return a


@dataclass(frozen=True)
class SimulationGrid:
    """Uniform time grid with every delay an integer multiple of the step."""
    step: float
    horizon: float

    @property
    def node_count(self) -> int:
        return int(math.floor(self.horizon / self.step + 1e-9)) + 1

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.node_count)


def align_grid(step: float, horizon: float, delays) -> SimulationGrid:
    """Largest step <= requested with all delays at integer multiples."""
    if step <= 0 or horizon <= 0:
        raise ValueError("step and horizon must be positive")
    positive = [d for d in delays if d > 0]
    if positive:
        g = positive[0]
        for d in positive[1:]:
            g = _float_gcd(g, d)
        m = max(1, int(math.ceil(g / step - 1e-9)))
        step = g / m
    nodes = int(math.ceil(horizon / step - 1e-9))
    return SimulationGrid(step=step, horizon=nodes * step)


@dataclass
class Trajectory:
    grid: SimulationGrid
    states: np.ndarray            # (node_count, n)
    prehistory: object            # InitialConditionSet used for t < 0

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def sup_norm(self, vector_order=np.inf) -> float:
        return float(np.max(np.linalg.norm(self.states, vector_order, axis=1)))

    def to_csv(self, path) -> None:
        n = self.states.shape[1]
        header = "t," + ",".join(f"x{i + 1}" for i in range(n))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for t, row in zip(self.times, self.states):
                cells = [format(t, ".15g")] + [format(v, ".15g") for v in row]
                fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# problem sampling shared by the march and the oracle
# ---------------------------------------------------------------------------

class _Sampling:
    """The problem's data at the grid nodes; delays must land on nodes."""

    def __init__(self, prob: ValidatedProblem, grid: SimulationGrid):
        sys = prob.system
        self.prob = prob
        self.n = sys.n
        self.dt = grid.step
        self.L = grid.node_count - 1
        self.times = grid.times

        self.lags = [int(round(d / self.dt)) if d > 0 else 0 for d in sys.delays]
        for d, lag in zip(sys.delays, self.lags):
            if abs(lag * self.dt - d) > 1e-9 * max(1.0, d):
                raise DimensionMismatch(
                    f"delay {d} is not aligned with step {self.dt}")

        self.A_tilde_s = [tbl(self.times) for tbl in sys.A_tilde]
        self.B_s = sys.B(self.times) if sys.B is not None else None
        ctl = prob.control
        self.u_s = ctl.u(self.times) if ctl.kind == "open_loop" else None
        self.gains = ctl.gains if ctl.kind == "feedback" else None

        # prehistory samples at negative grid times, sum over the k functions
        max_lag = max(self.lags) if self.lags else 0
        self.pre = np.zeros((max_lag + 1, self.n))
        for q in range(1, max_lag + 1):
            self.pre[q] = prob.ics.history(-q * self.dt)

    def coefficient(self, i: int) -> np.ndarray:
        """Samples of A_i + Atilde_i(t), plus B(t) K_i under feedback."""
        coeff = self.prob.system.A[i] + self.A_tilde_s[i]
        if self.gains is not None:
            coeff = coeff + np.einsum("qik,kj->qij", self.B_s, self.gains[i])
        return coeff

    def delayed_state(self, states: np.ndarray, q: int, lag: int) -> np.ndarray:
        idx = q - lag
        if idx >= 0:
            return states[idx]
        return self.pre[-idx]


class _Discretization(_Sampling):
    def __init__(self, prob: ValidatedProblem, grid: SimulationGrid,
                 cfg: MlEvalConfig):
        super().__init__(prob, grid)
        sys = prob.system

        # kernel matrix: constants at lag zero fold into A0
        self.A0_eff = sum(sys.A[i] for i, lag in enumerate(self.lags)
                          if lag == 0)
        # instantaneous coupling C(t): lag-zero time-varying parts and gains
        self.C = np.zeros((self.L + 1, self.n, self.n))
        for i, lag in enumerate(self.lags):
            if lag == 0:
                self.C += self.A_tilde_s[i]
                if self.gains is not None:
                    self.C += np.einsum("qik,kj->qij", self.B_s, self.gains[i])
        # delayed coefficients (lag > 0)
        self.delayed = [(lag, self.coefficient(i))
                        for i, lag in enumerate(self.lags) if lag > 0]

        # initial-data term f_m = sum_j phi_j(t_m) x_j0
        ker = Kernels(sys.alpha, self.A0_eff, cfg)
        x0 = prob.ics.x0
        self.f = np.zeros((self.L + 1, self.n))
        for j in range(sys.k):
            mats = ker.phi_j(j, self.times, _SOLVER_EVAL_TOL, allow_mp=False)
            self.f += np.einsum("qij,j->qi", mats, x0[j])

        # per-gap quadrature weights of the matrix kernel
        T = self.dt * np.arange(self.L + 1, dtype=float)
        P0 = ker.int_phi(T, _SOLVER_EVAL_TOL, allow_mp=False)
        P1 = ker.int_s_phi(T, _SOLVER_EVAL_TOL, allow_mp=False)
        m0 = P0[1:] - P0[:-1]
        mu1 = (P1[1:] - P1[:-1]) - T[:-1][:, None, None] * m0
        self.Wl = np.concatenate([np.zeros((1, self.n, self.n)), mu1 / self.dt])
        self.Wr = np.concatenate([np.zeros((1, self.n, self.n)),
                                  m0 - mu1 / self.dt])

    def g_known(self, states: np.ndarray, q: int) -> np.ndarray:
        """The part of G(t_q) not depending on x(t_q)."""
        out = np.zeros(self.n)
        for lag, coeff in self.delayed:
            out += coeff[q] @ self.delayed_state(states, q, lag)
        if self.u_s is not None:
            out += self.B_s[q] @ self.u_s[q]
        return out

    def history_sum(self, G: np.ndarray, m: int) -> np.ndarray:
        """sum over cells of Wl(g) G_{m-g} + Wr(g) G_{m-g+1}, g = 2..m plus
        the left weight of the newest cell (its right endpoint is implicit)."""
        acc = np.einsum("gij,gj->i", self.Wl[1:m + 1], G[m - 1::-1])
        if m >= 2:
            acc += np.einsum("gij,gj->i", self.Wr[2:m + 1], G[m - 1:0:-1])
        return acc


def _march(disc: _Discretization, max_sweeps: int = 20,
           sweep_tol: float = 1e-12) -> np.ndarray:
    n, L = disc.n, disc.L
    states = np.zeros((L + 1, n))
    G = np.zeros((L + 1, n))
    states[0] = disc.prob.ics.x0[0]
    G[0] = disc.C[0] @ states[0] + disc.g_known(states, 0)
    Wr1 = disc.Wr[1]
    for m in range(1, L + 1):
        base = disc.f[m] + disc.history_sum(G, m)
        d_m = disc.g_known(states, m)
        rhs = base + Wr1 @ d_m
        Wc = Wr1 @ disc.C[m]
        x = states[m - 1]
        for sweep in range(max_sweeps):
            x_new = rhs + Wc @ x
            if np.max(np.abs(x_new - x)) <= sweep_tol * (1.0 + np.max(np.abs(x_new))):
                x = x_new
                break
            x = x_new
        else:
            raise NodeCorrectionDiverged(
                f"node {m}: correction not settled after {max_sweeps} sweeps")
        states[m] = x
        G[m] = disc.C[m] @ x + d_m
    return states


def solve_trajectory(prob: ValidatedProblem, grid: SimulationGrid,
                     cfg: MlEvalConfig = DEFAULT_CONFIG) -> Trajectory:
    """March the solution representation over the grid."""
    disc = _Discretization(prob, grid, cfg)
    states = _march(disc)
    return Trajectory(grid=grid, states=states, prehistory=prob.ics)


def solve_delay_free(prob: ValidatedProblem, grid: SimulationGrid,
                     cfg: MlEvalConfig = DEFAULT_CONFIG) -> Trajectory:
    """Delay-free variant: kernels built with A0 -> sum of all A_i."""
    if not prob.system.is_delay_free:
        raise DelaysNotZero(
            f"system has nonzero delays {prob.system.delays}")
    return solve_trajectory(prob, grid, cfg)


def picard_map(prob: ValidatedProblem, phi_traj: Trajectory,
               grid: SimulationGrid,
               cfg: MlEvalConfig = DEFAULT_CONFIG) -> Trajectory:
    """One application of the solution-representation map to a trajectory.

    The supplied trajectory stands in for the unknown on t >= 0 (prehistory
    always comes from the problem's initial data); the image is the right
    side evaluated with it.  The true solution is its fixed point.
    """
    disc = _Discretization(prob, grid, cfg)
    src = phi_traj.states
    if src.shape != (disc.L + 1, disc.n):
        raise DimensionMismatch(
            f"trajectory shape {src.shape} does not match grid "
            f"({disc.L + 1}, {disc.n})")
    G = np.empty((disc.L + 1, disc.n))
    for q in range(disc.L + 1):
        G[q] = disc.C[q] @ src[q] + disc.g_known(src, q)
    out = np.empty_like(src)
    out[0] = prob.ics.x0[0]
    for m in range(1, disc.L + 1):
        out[m] = (disc.f[m] + disc.history_sum(G, m)
                  + disc.Wr[1] @ G[m])
    return Trajectory(grid=grid, states=out, prehistory=prob.ics)


# ---------------------------------------------------------------------------
# independent cross-validation solver
# ---------------------------------------------------------------------------

def solve_oracle(prob: ValidatedProblem, grid: SimulationGrid,
                 corrector_passes: int = 2) -> Trajectory:
    """Fractional Adams predictor-corrector on the state equation itself.

    Discretizes  x(t) = T(t) + (1/Gamma(a)) integral (t-tau)^(a-1) F(tau) dtau
    with F the full right side (including the instantaneous constant part),
    rectangle predictor and piecewise-linear corrector weights.
    """
    sys = prob.system
    alpha = sys.alpha
    smp = _Sampling(prob, grid)
    dt, L, n, times = smp.dt, smp.L, smp.n, smp.times
    coeffs = [(lag, smp.coefficient(i)) for i, lag in enumerate(smp.lags)]
    B_s, u_s, read = smp.B_s, smp.u_s, smp.delayed_state

    def rhs(states, q, xq):
        out = np.zeros(n)
        for lag, coeff in coeffs:
            out += coeff[q] @ (xq if lag == 0 else read(states, q, lag))
        if u_s is not None:
            out += B_s[q] @ u_s[q]
        return out

    # Taylor polynomial of the initial data
    x0 = prob.ics.x0
    Tm = np.zeros((L + 1, n))
    for j in range(sys.k):
        Tm += (times ** j / math.gamma(j + 1))[:, None] * x0[j]

    # weights over node distance j = m - q
    j = np.arange(L + 1, dtype=float)
    s_pow_a = (j * dt) ** alpha
    s_pow_a1 = (j * dt) ** (alpha + 1.0)
    I0 = (s_pow_a[1:] - s_pow_a[:-1]) / alpha
    I1 = (s_pow_a1[1:] - s_pow_a1[:-1]) / (alpha + 1.0)
    s1 = (j * dt)[:-1]
    rg = rgamma(alpha)
    zero = np.zeros(1)
    # index g = node distance of the cell's older edge; entry 0 unused
    w_rect = np.concatenate([zero, I0 * rg])             # predictor, F_q
    w_left = np.concatenate([zero, (I1 - s1 * I0) / dt * rg])
    w_right = np.concatenate([zero, ((s1 + dt) * I0 - I1) / dt * rg])

    states = np.zeros((L + 1, n))
    F = np.zeros((L + 1, n))
    states[0] = x0[0]
    F[0] = rhs(states, 0, states[0])
    for m in range(1, L + 1):
        # rectangle predictor: F constant per cell at its older node
        hist_rect = np.einsum("g,gj->j", w_rect[1:m + 1], F[m - 1::-1])
        x_pred = Tm[m] + hist_rect
        # trapezoid corrector
        hist = np.einsum("g,gj->j", w_left[1:m + 1], F[m - 1::-1])
        if m >= 2:
            hist += np.einsum("g,gj->j", w_right[2:m + 1], F[m - 1:0:-1])
        x = x_pred
        for _ in range(corrector_passes):
            Fm = rhs(states, m, x)
            x = Tm[m] + hist + w_right[1] * Fm
        states[m] = x
        F[m] = rhs(states, m, x)
    return Trajectory(grid=grid, states=states, prehistory=prob.ics)
