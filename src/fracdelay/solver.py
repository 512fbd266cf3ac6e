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
precomputed once, as the left weight Wl of the oldest node and one combined
kernel K(h) for every later node:

    x_m = f_m + Wl(m) G_0 + sum_{q=1}^{m} K(m - q) G_q.

The instantaneous coupling through the time-varying part C(t) (and the lag-0
feedback gain) is resolved by one direct solve of (I - K(0) C(t_m)) x_m = rhs
per node.

The history sums are convolutions, evaluated blockwise (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6(3), 1985): nodes are solved one by
one in leaves of ``_LEAF`` nodes, and every finished block adds its share of
the history to the equally long block after it with one FFT convolution, so
a march costs O(L log^2 L n^2) instead of O(L^2 n^2).  The delayed and input
terms of a leaf are evaluated for the whole leaf at once when every delayed
node precedes it (the method of steps), node by node otherwise.

Matrices tied to lag 0 are folded into the kernel matrix A0; for the all-lags-
zero encoding this reproduces the delay-free representation with
A0 -> sum_i A_i automatically.

``solve_oracle`` is a deliberately different discretization for
cross-validation: the implicit product-trapezoid rule (R. Garrappa, Math.
Comput. Simul. 110, 2015) for the Volterra form of the state equation,
with the power kernel (t-tau)^(a-1)/Gamma(a) against the full right side
(the A0 term included) and the Taylor polynomial of the initial data.  Its
kernel, weights, formulation and initial term are its own (``_Volterra``);
the node loop is the march's, so each of its nodes is solved directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DelaysNotZero, DimensionMismatch, GridTooLarge,
                     NodeCorrectionDiverged)
from .kernels import _kernels
from .mlf import rgamma
from .system import ValidatedProblem, lag_tables

# nodes solved one by one between two FFT far-history updates
_LEAF = 64
# largest grid accepted: the solvers hold (nodes, n, n) weight and
# coefficient tables in memory
_MAX_NODES = 1_000_000
# relative remainder at which the delays' common divisor is taken
_GCD_TOL = 1e-9


def _float_gcd(a: float, b: float) -> float:
    while b > _GCD_TOL * max(a, 1.0):
        a, b = b, math.fmod(a, b)
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
    """Largest step <= requested with all delays at integer multiples.

    Raises ``GridTooLarge`` when the aligned grid needs more than
    ``_MAX_NODES`` nodes (nearly incommensurate delays force a tiny step).
    """
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
    if nodes + 1 > _MAX_NODES:
        raise GridTooLarge(
            f"delays {[float(d) for d in delays]} align to step {step:.3g}: "
            f"{nodes + 1} nodes over horizon {horizon:g}, more than the "
            f"budget of {_MAX_NODES}")
    return SimulationGrid(step=step, horizon=nodes * step)


@dataclass
class Trajectory:
    grid: SimulationGrid
    states: np.ndarray            # (node_count, n)
    prehistory: object            # InitialConditionSet used for t < 0

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def sup_norm(self) -> float:
        """max over nodes of the max-norm of the state."""
        return float(np.max(np.abs(self.states)))

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
    """The problem's data at the grid nodes; delays must land on nodes.

    Lag 0 gives the kernel matrix ``A0_eff`` (the system's
    ``kernel_matrix``) and the time-varying coupling ``C(t)``, every
    positive lag its coefficient in ``delayed``, each the sum of the lag's
    ``system.lag_tables`` at the nodes; ``Bu`` is the input term
    B(t) u(t).  A subclass adds what ``_march`` reads: the initial term
    ``f``, the weight ``Wl`` of node 0 and the kernel ``K``.
    """

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

        ctl = prob.control
        self.A0_eff = sys.kernel_matrix
        self.C = np.zeros((self.L + 1, self.n, self.n))
        self.delayed = []
        for (_, tables), lag in zip(lag_tables(prob), self.lags):
            coeff = self.C if lag == 0 else np.zeros(self.C.shape)
            for table in tables:    # in place: no array per table is kept
                coeff += table(self.times)
            if lag:
                self.delayed.append((lag, coeff))
        self.Bu = (np.einsum("qij,qj->qi", sys.B(self.times),
                             ctl.u(self.times))
                   if ctl.kind == "open_loop"
                   else np.zeros((self.L + 1, self.n)))
        self.offset = max(self.lags)

    def state_buffer(self) -> tuple[np.ndarray, np.ndarray]:
        """Prehistory samples at -offset*dt .. -dt, then zeros for the nodes
        0..L; returns the buffer and its view on the nodes."""
        buf = np.zeros((self.offset + self.L + 1, self.n))
        if self.offset:
            buf[:self.offset] = self.prob.ics.history(
                -self.dt * np.arange(self.offset, 0, -1))
        return buf, buf[self.offset:]

    def forcing(self, buf: np.ndarray, lo: int, hi: int, known: int):
        """Input and delayed-state terms at the nodes lo..hi-1.

        The lags whose delayed nodes all lie below node ``known`` (where
        ``buf`` is final) are summed for the whole block at once; the nearer
        lags are returned, as (lag, coefficient) pairs, for the caller to
        add node by node.
        """
        out = self.Bu[lo:hi].copy()
        near = []
        for lag, coeff in self.delayed:
            if hi - lag <= known:
                rows = buf[self.offset + lo - lag:self.offset + hi - lag]
                out += np.einsum("qij,qj->qi", coeff[lo:hi], rows)
            else:
                near.append((lag, coeff))
        return out, near


# ---------------------------------------------------------------------------
# blocked history convolution shared by the march and the oracle
# ---------------------------------------------------------------------------

def _convolve(K_hat: np.ndarray, G: np.ndarray, n_fft: int) -> np.ndarray:
    """Linear convolution along axis 0 of a kernel spectrum with G."""
    return np.fft.irfft(K_hat @ np.fft.rfft(G, n=n_fft, axis=0), n=n_fft,
                        axis=0)


def _leaves(K: np.ndarray, G: np.ndarray, acc: np.ndarray):
    """Blocked history  acc[m] += sum_{q=1}^{m-1} K[m - q] @ G[q],  m = 1..L.

    Yields the leaves [lo, hi) of the nodes 1..L (L = len(G) - 1) in order.
    Before resuming the generator, the caller solves the leaf's nodes one by
    one, adding the history from inside the leaf itself, and stores their
    G.  On resumption, the block of ``size`` nodes ending with that leaf is
    convolved by FFT into the next ``size`` nodes, where ``size`` is _LEAF
    times the largest power of two dividing the number of finished leaves
    (its sibling in a binary tree over the leaves).  So every pair of
    leaves is convolved once, and when a leaf starts ``acc`` holds the
    history from all earlier leaves.  Blocks of one size share one kernel
    spectrum while one is still to come.  K has shape (>= L, a, b), G
    (L + 1, b, c) and acc (L + 1, a, c).
    """
    L = G.shape[0] - 1
    spectra = {}
    for lo in range(1, L + 1, _LEAF):
        hi = min(lo + _LEAF, L + 1)
        yield lo, hi
        if hi > L:
            return
        done = (hi - 1) // _LEAF
        size = (done & -done) * _LEAF
        n_fft = 2 * size
        K_hat = spectra.get(size)
        if K_hat is None:
            K_hat = np.fft.rfft(K[1:n_fft], n=n_fft, axis=0)
            if hi + 2 * size <= L:      # kept only if its size comes again
                spectra[size] = K_hat
        end = min(hi + size, L + 1)
        far = _convolve(K_hat, G[hi - size:hi], n_fft)
        acc[hi:end] += far[size - 1:size - 1 + end - hi]


# ---------------------------------------------------------------------------
# the march (its node loop also solves the oracle's discretization)
# ---------------------------------------------------------------------------

class _Discretization(_Sampling):
    def __init__(self, prob: ValidatedProblem, grid: SimulationGrid):
        super().__init__(prob, grid)
        sys = prob.system

        # initial-data term f_m = sum_j phi_j(t_m) x_j0
        ker = _kernels(sys)
        x0 = prob.ics.x0
        self.f = np.zeros((self.L + 1, self.n))
        for j in range(sys.k):
            mats = ker.phi_j(j, self.times)
            self.f += np.einsum("qij,j->qi", mats, x0[j])

        # per-gap quadrature weights of the matrix kernel: the cell g steps
        # back weighs its older node with Wl(g), its newer with Wr(g), so
        # node q >= 1 gets K(m - q) = Wl(m - q) + Wr(m - q + 1), K(0) = Wr(1)
        # (built in place: these tables set the solver's peak memory)
        T = self.dt * np.arange(self.L + 1, dtype=float)
        P0 = ker.int_phi(T)
        P1 = ker.int_s_phi(T, int_phi=P0)
        m0 = P0[1:] - P0[:-1]
        del P0
        self.Wl = np.zeros((self.L + 1, self.n, self.n))
        mu1 = np.subtract(P1[1:], P1[:-1], out=self.Wl[1:])
        del P1
        mu1 -= T[:-1][:, None, None] * m0
        mu1 /= self.dt
        self.K = self.Wl.copy()
        self.K[:-1] += np.subtract(m0, mu1, out=m0)


def _march(disc: _Sampling) -> np.ndarray:
    """Solve x_m = f_m + Wl(m) G_0 + sum_{q=1}^{m} K(m - q) G_q node by node,
    with G = C x + the delayed and input terms."""
    n, K, C = disc.n, disc.K, disc.C
    buf, states = disc.state_buffer()
    states[0] = disc.prob.ics.x0[0]
    G = np.zeros((disc.L + 1, n))
    G[0] = C[0] @ states[0] + disc.forcing(buf, 0, 1, 0)[0][0]
    # acc[m] collects every term of x_m but K(0) C(t_m) x_m; the G_0
    # column enters once, the blocked history covers q >= 1
    acc = disc.f + disc.Wl @ G[0]
    eye = np.eye(n)
    for lo, hi in _leaves(K, G[:, :, None], acc[:, :, None]):
        d, near = disc.forcing(buf, lo, hi, lo)
        G[lo:hi] = d
        acc[lo:hi] += d @ K[0].T
        try:
            inv = np.linalg.inv(eye - K[0] @ C[lo:hi])
        except np.linalg.LinAlgError:
            raise NodeCorrectionDiverged(
                f"nodes {lo}..{hi - 1}: I - K(0) C(t) is singular") from None
        for m in range(lo, hi):
            for lag, coeff in near:
                dn = coeff[m] @ buf[disc.offset + m - lag]
                G[m] += dn
                acc[m] += K[0] @ dn
            np.matmul(inv[m - lo], acc[m], out=states[m])
            G[m] += C[m] @ states[m]
            acc[m + 1:hi] += K[1:hi - m] @ G[m]
        if not np.all(np.isfinite(states[lo:hi])):
            raise NodeCorrectionDiverged(
                f"nodes {lo}..{hi - 1}: the node solve is not finite")
    # a copy: the trajectory need not keep the prehistory rows alive
    return states.copy()


def solve_trajectory(prob: ValidatedProblem,
                     grid: SimulationGrid) -> Trajectory:
    """March the solution representation over the grid."""
    disc = _Discretization(prob, grid)
    states = _march(disc)
    return Trajectory(grid=grid, states=states, prehistory=prob.ics)


def solve_delay_free(prob: ValidatedProblem,
                     grid: SimulationGrid) -> Trajectory:
    """Delay-free variant: kernels built with A0 -> sum of all A_i."""
    if not prob.system.is_delay_free:
        raise DelaysNotZero(
            f"system has nonzero delays {prob.system.delays}")
    return solve_trajectory(prob, grid)


def picard_map(prob: ValidatedProblem, phi_traj: Trajectory,
               grid: SimulationGrid) -> Trajectory:
    """One application of the solution-representation map to a trajectory.

    The supplied trajectory stands in for the unknown on t >= 0 (prehistory
    always comes from the problem's initial data); the image is the right
    side evaluated with it.  The true solution is its fixed point.
    """
    disc = _Discretization(prob, grid)
    L = disc.L
    src = phi_traj.states
    if src.shape != (L + 1, disc.n):
        raise DimensionMismatch(
            f"trajectory shape {src.shape} does not match grid "
            f"({L + 1}, {disc.n})")
    buf, states = disc.state_buffer()
    states[:] = src
    d = disc.forcing(buf, 0, L + 1, L + 1)[0]
    G = np.einsum("qij,qj->qi", disc.C, src) + d
    # every node's history at once: one full convolution with K
    n_fft = 2 * L
    hist = _convolve(np.fft.rfft(disc.K[:L], n=n_fft, axis=0),
                     G[1:, :, None], n_fft)
    out = disc.f + disc.Wl @ G[0]
    out[1:] += hist[:L, :, 0]
    out[0] = prob.ics.x0[0]
    return Trajectory(grid=grid, states=out, prehistory=prob.ics)


# ---------------------------------------------------------------------------
# independent cross-validation solver
# ---------------------------------------------------------------------------

class _Volterra(_Sampling):
    """The oracle's discretization of the Volterra form

        x(t) = sum_j t^j/j! x_j0
               + (1/Gamma(a)) integral_0^t (t-tau)^(a-1) F(tau) dtau

    with F the full right side, by the product-trapezoid rule: F is
    interpolated piecewise-linearly between nodes and the power kernel is
    integrated exactly against it per cell.  The weights are scalars, laid
    out as the march's ``Wl`` and ``K`` times the identity, and ``C`` holds
    every lag-0 coefficient, A0 included.
    """

    def __init__(self, prob: ValidatedProblem, grid: SimulationGrid):
        super().__init__(prob, grid)
        alpha = prob.system.alpha
        x0 = prob.ics.x0
        self.f = np.zeros((self.L + 1, self.n))
        for j in range(prob.system.k):
            self.f += (self.times ** j / math.gamma(j + 1))[:, None] * x0[j]

        # the cell g steps back weighs its older node with w_left(g), its
        # newer with w_right(g); entry 0 unused
        s = self.dt * np.arange(self.L + 1, dtype=float)
        I0 = np.diff(s ** alpha) / alpha
        I1 = np.diff(s ** (alpha + 1.0)) / (alpha + 1.0)
        rg = rgamma(alpha) / self.dt
        w_left = np.zeros(self.L + 1)
        w_left[1:] = (I1 - s[:-1] * I0) * rg
        w_right = np.zeros(self.L + 1)
        w_right[1:] = (s[1:] * I0 - I1) * rg
        eye = np.eye(self.n)
        self.Wl = w_left[:, None, None] * eye
        self.K = self.Wl.copy()
        self.K[:-1] += w_right[1:, None, None] * eye
        # every lag-0 coefficient acts on x(t) itself
        self.C += self.A0_eff


def solve_oracle(prob: ValidatedProblem, grid: SimulationGrid) -> Trajectory:
    """Product-trapezoid rule on the Volterra form of the state equation.

    Discretizes  x(t) = T(t) + (1/Gamma(a)) integral (t-tau)^(a-1) F(tau) dtau
    with T the Taylor polynomial of the initial data and F the full right
    side (including the constant lag-0 part).  The march's node loop solves
    each node's implicit equation (I - w_right(1) A_now(t_m)) x_m = rhs
    directly, A_now being the sum of the lag-0 coefficients.
    """
    states = _march(_Volterra(prob, grid))
    return Trajectory(grid=grid, states=states, prehistory=prob.ics)
