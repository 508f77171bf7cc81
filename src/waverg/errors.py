"""Exception hierarchy for the design / circuit / simulation pipeline.

Numerical failures carry diagnostics (the offending value and where it
occurred) so callers and the CLI can report them machine-readably.
"""

from __future__ import annotations


class WavergError(Exception):
    """Base class for all package errors."""

    #: machine-readable payload for CLI error JSON
    def payload(self) -> dict:
        d = {"error": type(self).__name__, "message": str(self)}
        if hasattr(self, "layer"):
            d["layer"] = self.layer
        return d


class LatticeTooSmall(WavergError):
    """Periodic lattice too small to hold a filter without self-overlap."""

    def __init__(self, N: int, support: int):
        super().__init__(f"lattice size {N} too small for filter support {support}")
        self.N = N
        self.support = support


class NegativeMass(WavergError):
    """Harmonic mass that is negative or not finite."""


class GaplessUnregulated(WavergError):
    """Plain q-covariance requested for a gapless dispersion."""


class NoSolution(WavergError):
    """Half-band linear system residual could not be brought under tolerance."""

    def __init__(self, residual: float, max_support: int):
        super().__init__(
            f"half-band residual {residual:.3e} above tolerance at max support {max_support}"
        )
        self.residual = residual
        self.max_support = max_support


class NotNonnegative(WavergError):
    """Spectral factorization target dips below zero; reports the violating k."""

    def __init__(self, min_value: float, at_k: float):
        super().__init__(f"r(k) attains {min_value:.3e} < 0 at k = {at_k:.6f}")
        self.min_value = min_value
        self.at_k = at_k

    def payload(self) -> dict:
        d = super().payload()
        d.update({"min_value": self.min_value, "at_k": self.at_k})
        return d


class NormalizationFailure(WavergError):
    """Design step whose filters cannot be normalized: a rational fit with
    no positive denominator, or a nonpositive a(0), b(0) or g(0) h(0)."""


class FlowOutOfRange(WavergError):
    """Renormalization step whose divisor omega(pi)^2 is not a normal float."""

    def __init__(self, level: int, omega_pi: float):
        super().__init__(f"flow level {level} divides by omega(pi)^2 of level "
                         f"{level - 1}, and omega(pi) = {omega_pi:.3e} squares "
                         "out of the float range")
        self.level = level
        self.omega_pi = omega_pi

    def payload(self) -> dict:
        d = super().payload()
        d["level"] = self.level
        return d


class NotAdmissible(WavergError):
    """Filter lacks the vanishing moment needed for the transfer-operator check."""


class DegenerateFactorization(WavergError):
    """Near-zero corner determinant while peeling a circuit layer, or a pair
    whose projection onto exact PR fails (``det`` then holds the residual)."""

    def __init__(self, step: int, det: float, message: str | None = None):
        super().__init__(message or f"degenerate corner determinant {det:.3e} "
                         f"at peeling step {step}")
        self.step = step
        self.det = det


class UnstableFilter(WavergError):
    """Transfer-operator eigenvalue at or above 2: cascade would not converge."""


class NoUnitEigenvalue(WavergError):
    """Integer refinement matrix lacks an eigenvalue 1 within tolerance."""


class NotDivisible(WavergError):
    """Scaling filter is not divisible by the requested moment factor."""


class OutOfHypothesis(WavergError):
    """Error-bound formula evaluated outside its hypotheses."""
