"""Matrix norms, logarithmic norms, eigenstructure, and the
delay-independent stability test built on them.

The test transforms the kernel matrix (the sum of the A_i with r_i = 0)
to (block-)diagonal form A0 = T^-1 (J_d + J_off) T, takes the fractional
eigenvalue powers lambda^(1/a) on the principal branch *without*
re-wrapping the divided argument, and compares the jointly scaled block
norm over the A_i with r_i > 0

    || [ T^-1 J_off T / b_0 | T^-1 A_1 T / b_1 | ... | T^-1 A_r T / b_r ] ||_2

minimized over weights sum b_i^2 = 1 against the threshold |mu_2(J_d)|^(1/a).
Blocks that vanish are dropped (the weight limit b -> 0 concentrates the
budget on the live blocks).

Two diagnostics are reported side by side: the direct sign of
max Re lambda^(1/a) under the stated branch convention, which gates the
verdict, and the eigenvalue argument flag |arg lambda| < a*pi/2.  That
sector is the unstable one (E_{a,b}(lambda t^a) grows for lambda inside
it), so the flag reads false on every stable kernel, and
``certificates.high_order_check``, which requires it, reads no stability
condition from it (ROADMAP.md item 15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AllBlocksZero, DefectiveMatrixNoTransform,
                     EigenvalueAtOrigin, SingularMatrix)
from .mlf import SPECTRAL_THRESHOLD, eig_basis
from .system import FractionalDelaySystem
from .tables import induced_norm, induced_norms

_RECONSTRUCT_RTOL = 1e-9

# the induced 2-norm, under its spectral-test name
matrix_norm = induced_norm


def matrix_measure(M: np.ndarray) -> float:
    """Logarithmic 2-norm mu_2; satisfies max(-||M||, max Re lambda) <= mu_2
    <= ||M||."""
    M = np.atleast_2d(np.asarray(M))
    # eigvalsh can undershoot max Re lambda by roundoff (M = -c 11^T)
    mu = np.linalg.eigvalsh((M + M.conj().T) / 2.0).max()
    return float(max(mu, np.linalg.eigvals(M).real.max()))


def condition_number(M: np.ndarray) -> float:
    """||M||_2 ||M^-1||_2; singular input raises."""
    M = np.atleast_2d(np.asarray(M))
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= 1e-14 * max(sv[0], 1.0):
        raise SingularMatrix("matrix is singular to working precision")
    return matrix_norm(M) * matrix_norm(np.linalg.inv(M))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    T: np.ndarray          # transform with A0 = T^-1 (J_d + J_off) T
    J_d: np.ndarray        # diagonal part
    J_off: np.ndarray      # strictly off-diagonal part

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diag(self.J_d)


def decompose(A0: np.ndarray,
              T: np.ndarray | None = None) -> SpectralDecomposition:
    """Eigendecomposition in transform form, or a split along a supplied T.

    Without ``T`` the matrix must pass ``mlf.eig_basis`` (eigenvector
    condition number below ``SPECTRAL_THRESHOLD``); a user transform covers
    defective matrices, with J = T A0 T^-1 split into diagonal and
    off-diagonal parts.
    """
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    if T is not None:
        T = np.atleast_2d(np.asarray(T))
        J = T @ A0 @ np.linalg.inv(T)
        J_d = np.diag(np.diag(J))
        J_off = J - J_d
    else:
        lam, V, cond_v = eig_basis(A0)
        if V is None:
            raise DefectiveMatrixNoTransform(
                f"eigenvector condition number {cond_v:.3g} exceeds "
                f"{SPECTRAL_THRESHOLD:.3g}; supply a transform explicitly")
        T = np.linalg.inv(V)
        J_d = np.diag(lam)
        J_off = np.zeros_like(J_d)
    dec = SpectralDecomposition(T=T, J_d=J_d, J_off=J_off)
    residual = matrix_norm(A0 - np.linalg.inv(T) @ (J_d + J_off) @ T)
    if residual > _RECONSTRUCT_RTOL * max(matrix_norm(A0), 1e-300):
        raise DefectiveMatrixNoTransform(
            f"reconstruction residual {residual:.3g} too large")
    return dec


def frac_power_measure(dec: SpectralDecomposition, alpha: float) -> float:
    """max over eigenvalues of Re lambda^(1/alpha).

    Principal argument theta in (-pi, pi]; the divided argument theta/alpha
    is used as is, without re-wrapping.
    """
    lam = dec.eigenvalues
    if np.any(np.abs(lam) < 1e-300):
        raise EigenvalueAtOrigin("fractional power undefined at 0")
    mag = np.abs(lam) ** (1.0 / alpha)
    ang = np.angle(lam) / alpha
    return float(np.max(mag * np.cos(ang)))


# ---------------------------------------------------------------------------
# weighted block norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaWeights:
    """Weights with sum of squares one; zero entries only on dropped zero blocks."""
    beta: tuple

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=float)
        if np.any(b < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(np.sum(b * b)) - 1.0) > 1e-12:
            raise ValueError("weights must satisfy sum beta_i^2 = 1")
        object.__setattr__(self, "beta", tuple(float(x) for x in b))


def _blocks(dec: SpectralDecomposition, A_list) -> list:
    Tinv = np.linalg.inv(dec.T)
    return [Tinv @ np.atleast_2d(np.asarray(M)) @ dec.T
            for M in (dec.J_off, *A_list)]


def composite_block_norm(dec: SpectralDecomposition, A_list,
                         beta: BetaWeights) -> float:
    """Largest singular value of the horizontally stacked scaled blocks.

    A zero weight is admissible only on a zero block, which is then dropped
    (the limiting value as its weight vanishes).
    """
    blocks = _blocks(dec, A_list)
    if len(beta.beta) != len(blocks):
        raise ValueError(f"{len(beta.beta)} weights for {len(blocks)} blocks")
    norms = induced_norms(blocks)
    zero = np.asarray(beta.beta) == 0.0
    if np.any(zero & (norms > 1e-13 * np.maximum(1.0, norms))):
        raise ValueError("zero weight on a nonzero block")
    scaled = [blk / b for blk, b in zip(blocks, beta.beta) if b != 0.0]
    return matrix_norm(np.hstack(scaled)) if scaled else 0.0


def optimize_beta(dec: SpectralDecomposition, A_list):
    """Weights minimizing the stacked norm over the unit weight sphere.

    The Frobenius-style upper bound sqrt(sum ||B_i||^2 / b_i^2) is minimized
    in closed form (b_i^2 proportional to ||B_i||, bound value sum ||B_i||),
    then refined by a deterministic multiplicative coordinate search on the
    exact stacked-norm objective.  Zero blocks are dropped and carry zero
    weight in the returned tuple.
    """
    blocks = _blocks(dec, A_list)
    norms = induced_norms(blocks)
    live = np.flatnonzero(norms > 0.0)
    if not live.size:
        raise AllBlocksZero("all blocks vanish; nothing to weight")
    # summed left to right: np.sum regroups eight or more terms
    u = np.sqrt(norms[live] / sum(norms[live].tolist()))

    live_blocks = [blocks[i] for i in live]

    def objective(uvec):
        b = uvec / induced_norm(uvec)
        return matrix_norm(
            np.hstack([blk / bi for blk, bi in zip(live_blocks, b)]))

    best = objective(u)
    step = 0.3
    for _ in range(50):
        improved = False
        for idx in range(u.size):
            for factor in (1.0 + step, 1.0 / (1.0 + step)):
                trial = u.copy()
                trial[idx] *= factor
                val = objective(trial)
                if val < best - 1e-10 * max(1.0, best):
                    best, u = val, trial
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break
    beta_full = np.zeros(len(blocks))
    beta_full[live] = u / induced_norm(u)
    return BetaWeights(tuple(beta_full)), best


# ---------------------------------------------------------------------------
# delay-independent stability test
# ---------------------------------------------------------------------------

@dataclass
class Theorem34Result:
    verdict: str                   # GloballyAsymptoticallyStable |
    #                                GloballyStableIndependentOfDelays | Inconclusive
    frac_power_measure: float
    threshold: float               # |mu_2(J_d)|^(1/alpha)
    composite_norm: float
    beta: tuple | None
    # |arg lambda| < alpha*pi/2 for every eigenvalue: the unstable sector,
    # so false on every stable kernel
    arg_condition_met: bool
    strict_norm_test: bool

    def as_dict(self) -> dict:
        return {"verdict": self.verdict,
                "frac_power_measure": self.frac_power_measure,
                "threshold": self.threshold,
                "composite_norm": self.composite_norm,
                "beta": None if self.beta is None else list(self.beta),
                "arg_condition_met": self.arg_condition_met,
                "strict_norm_test": self.strict_norm_test}


def theorem34_certify(sys: FractionalDelaySystem) -> Theorem34Result:
    """Delay-independent stability test from the eigenstructure of A0.

    A0 is the kernel matrix (the sum of the A_i with r_i = 0) and the
    composite norm runs over the A_i with r_i > 0, the lag rule of the
    certificates, so every encoding of one system gives one answer.  The
    verdict requires max Re lambda^(1/alpha) < 0 and compares the
    optimized composite block norm against |mu_2(J_d)|^(1/alpha): strictly
    below certifies global asymptotic stability independent of the delays,
    equality (to 1e-12) global stability.  The eigenvalue argument flag
    |arg lambda| < alpha pi / 2 is reported alongside and is not the gate:
    that is the unstable sector, so the flag reads false on every stable
    kernel.
    """
    dec = decompose(sys.kernel_matrix)
    m = frac_power_measure(dec, sys.alpha)
    lam = dec.eigenvalues
    arg_ok = bool(np.all(np.abs(np.angle(lam))
                         < sys.alpha * math.pi / 2.0))
    mu2 = matrix_measure(dec.J_d)
    threshold = abs(mu2) ** (1.0 / sys.alpha)
    try:
        beta, composite = optimize_beta(
            dec, [M for M, r in zip(sys.A, sys.delays) if r > 0.0])
        beta_t = beta.beta
    except AllBlocksZero:
        beta_t, composite = None, 0.0
    strict = composite < threshold - 1e-12
    if m >= 0:
        verdict = "Inconclusive"
    elif strict:
        verdict = "GloballyAsymptoticallyStable"
    elif composite <= threshold + 1e-12:
        verdict = "GloballyStableIndependentOfDelays"
    else:
        verdict = "Inconclusive"
    return Theorem34Result(verdict=verdict, frac_power_measure=m,
                           threshold=threshold, composite_norm=composite,
                           beta=beta_t, arg_condition_met=arg_ok,
                           strict_norm_test=strict)
