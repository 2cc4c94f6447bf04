"""Exception types shared across the toolkit."""


class ModalToolkitError(Exception):
    """Base class for toolkit failures."""


class InfiniteUnstablePart(ModalToolkitError):
    """Tail metadata admits modes with nonnegative real part, so the
    unstable part of the spectrum cannot be finite."""


class ResolventAtEigenvalue(ModalToolkitError):
    """Resolvent requested at (or too close to) a block eigenvalue."""


class DimensionMismatch(ModalToolkitError):
    """Incompatible matrix or system dimensions."""


class UnstableModeDiscarded(ModalToolkitError):
    """A truncation would push a non-stable block into the tail."""


class NotReachable(ModalToolkitError):
    """No truncation order meets the requested tail bound."""


class BetaExceedsDecay(ModalToolkitError):
    """Requested shift beta is not strictly below the decay rate alpha."""


class BetaMismatch(ModalToolkitError):
    """Gain bounds evaluated at different beta cannot be combined."""


class SmoothnessMismatch(ModalToolkitError):
    """Smoothness indices of composed gain bounds do not chain."""


class NotHurwitz(ModalToolkitError):
    """Matrix has spectral abscissa >= 0 where a Hurwitz matrix is required."""


class LyapunovSolveFailed(ModalToolkitError):
    """Lyapunov equation produced no valid positive definite solution."""


class NotStabilizable(ModalToolkitError):
    """Rank test failed: some unstable mode is not reachable from the input."""


class NotDetectable(ModalToolkitError):
    """Rank test failed: some unstable mode is invisible at the output."""


class RiccatiDivergence(ModalToolkitError):
    """Riccati solve produced no stabilizing solution within tolerance."""


class QuadratureNotConverged(ModalToolkitError):
    """Numerical integration error estimate exceeded its tolerance."""


class TailUnstable(ModalToolkitError):
    """Requested resolution leaves non-decaying modes in the analytic tail."""


class KernelResonance(ModalToolkitError):
    """Kernel-resonant mode coupling too close to zero to classify."""


class CertificateNotFound(ModalToolkitError):
    """Synthesis budget exhausted without a Certified small-gain verdict."""


class DegenerateTrajectory(ModalToolkitError):
    """Trajectory is identically zero where a decay fit was requested."""


class EigensolverNoConvergence(ModalToolkitError):
    """Dense eigensolver failed to converge."""
