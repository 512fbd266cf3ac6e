"""Exception types raised across the package.

Infeasibility of a certificate denominator is *not* an error: certificate
operations report it through their ``feasible`` flag instead of raising.
"""


class FracDelayError(Exception):
    """Base class for all package-specific errors."""


# ---- problem definition / validation ----

class DimensionMismatch(FracDelayError):
    """Matrix or vector sizes are inconsistent with the declared (n, m)."""


class DelayOrderViolation(FracDelayError):
    """Delay list is not strictly increasing from exactly zero."""


class EndpointMismatch(FracDelayError):
    """An initial function does not match its declared endpoint value at 0."""


class NonPositiveOrder(FracDelayError):
    """Fractional order must satisfy alpha > 0."""


class EmptyTable(FracDelayError):
    """A time-function table with no samples was supplied."""


class WindowOutOfRange(FracDelayError):
    """A requested time window is not covered by the table's domain."""


# ---- special functions ----

class PoleAtNonpositiveInteger(FracDelayError):
    """Gamma evaluated at 0, -1, -2, ..."""


class OverflowBeyondRepresentableRange(FracDelayError):
    """A Gamma or Mittag-Leffler value beyond double range."""


class SeriesNotConverged(FracDelayError):
    """Power-series evaluation hit the term cap before the tail bound held."""


class SingularAtZero(FracDelayError):
    """The forcing kernel diverges at t = 0 for orders below one."""


class QuadratureNotConverged(FracDelayError):
    """Successive quadrature refinements kept disagreeing beyond tolerance."""


class NotAStabilityMatrix(FracDelayError):
    """A matrix required to have all eigenvalues in the open left half-plane does not."""


# ---- solver ----

class NodeCorrectionDiverged(FracDelayError):
    """A node's implicit equation (I - K(0) C(t)) x = rhs is singular, or its
    solution is not finite."""


class GridTooLarge(FracDelayError):
    """The delay-aligned grid needs more nodes than the solvers' budget."""


class DelaysNotZero(FracDelayError):
    """A delay-free operation was invoked on a system with nonzero delays."""


# ---- certificates ----

class KernelNotIntegrable(FracDelayError):
    """K1 = integral_0^inf ||phi|| is not finite: the kernel matrix has a
    zero eigenvalue or one in |arg lambda| <= alpha pi / 2 (every kernel at
    alpha >= 2), or the L1 increments stopped shrinking.  ``certify`` then
    gives Inconclusive; ``delay_free_certify`` raises it."""


class PremiseViolated(FracDelayError):
    """A gain-bound premise (certificate margin) does not hold."""


class EmptyGrid(FracDelayError):
    """An evaluation grid with no points was supplied."""


class OrderTooLow(FracDelayError):
    """The high-order boundedness check requires alpha >= 2."""


# ---- spectral ----

class SingularMatrix(FracDelayError):
    """Condition number requested for a singular matrix."""


class DefectiveMatrixNoTransform(FracDelayError):
    """Matrix is numerically defective and no transform was supplied."""


class EigenvalueAtOrigin(FracDelayError):
    """Fractional eigenvalue powers are undefined at the origin branch point."""


class AllBlocksZero(FracDelayError):
    """Weight optimization needs at least one nonzero block."""
