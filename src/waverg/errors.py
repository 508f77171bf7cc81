"""Exception hierarchy for the design / circuit / simulation pipeline.

Numerical failures carry diagnostics (the offending value and where it
occurred) so callers and the CLI can report them machine-readably.
"""

from __future__ import annotations


class WavergError(Exception):
    """Base class for all package errors."""

    #: diagnostics a subclass adds to its payload, after ``layer`` if set
    fields: tuple = ()

    #: machine-readable payload for CLI error JSON
    def payload(self) -> dict:
        d = {"error": type(self).__name__, "message": str(self)}
        if hasattr(self, "layer"):
            d["layer"] = self.layer
        d.update((name, getattr(self, name)) for name in self.fields)
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
    """Half-band solve whose residual is not below tolerance on its window
    [-support, support]; reports the residual and the window."""

    fields = ("residual", "support")

    def __init__(self, residual: float, support: int):
        super().__init__(f"half-band residual {residual:.3e} above tolerance "
                         f"on support [-{support}, {support}]")
        self.residual = residual
        self.support = support


class NotNonnegative(WavergError):
    """Spectral factorization target dips below zero; reports the violating k."""

    fields = ("min_value", "at_k")

    def __init__(self, min_value: float, at_k: float):
        super().__init__(f"r(k) attains {min_value:.3e} < 0 at k = {at_k:.6f}")
        self.min_value = min_value
        self.at_k = at_k


class NormalizationFailure(WavergError):
    """Unnormalizable filters: a rational fit with no positive denominator, a
    nonpositive a(0), b(0) or g(0) h(0), or a cascade's a_s(0) off sqrt(2)."""


class FlowOutOfRange(WavergError):
    """Renormalization step whose divisor omega(pi)^2 is not a normal float."""

    fields = ("level",)

    def __init__(self, level: int, omega_pi: float):
        super().__init__(f"flow level {level} divides by omega(pi)^2 of level "
                         f"{level - 1}, and omega(pi) = {omega_pi:.3e} squares "
                         "out of the float range")
        self.level = level
        self.omega_pi = omega_pi


class NonFiniteFilter(WavergError):
    """Stage whose filters or Gram rows left the double range: in the design,
    the moment factor grows like C(2K, K) and the all-pass taps like
    C(L, L/2)^2; in a report, the Gram walk squares the taps of a stack."""

    fields = ("stage",)

    def __init__(self, stage: str):
        super().__init__(f"{stage} is not finite in double precision")
        self.stage = stage


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
