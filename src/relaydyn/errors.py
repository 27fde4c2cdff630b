"""Exception hierarchy shared across the package.

Numerical failures (an algorithm did not reach its tolerance) and validation
failures (a documented precondition or invariant was violated) are kept in
separate branches so callers, and the command line driver in particular, can
map them to distinct exit codes.
"""

from __future__ import annotations

__all__ = [
    "RelayDynError",
    "NumericalError",
    "ValidationError",
    "NoRootInBracket",
    "DegenerateDerivative",
    "NoConvergence",
    "SingularJacobian",
    "InitialPointFailed",
    "DegenerateCrossing",
    "WindowTooLarge",
    "SingularSurface",
    "NegativeEpsilon",
    "NonTransversalCorner",
    "ParametrizationBreakdown",
    "NotAMaximum",
    "BreakupDetected",
    "LeftNeighborhood",
    "CentroidOnCurve",
    "InsufficientSamples",
]


class RelayDynError(Exception):
    """Base class for all package-specific errors."""


class NumericalError(RelayDynError):
    """An iterative or adaptive method failed to meet its tolerance."""


class ValidationError(RelayDynError):
    """A documented precondition or model invariant was violated."""


# --- numerical failures -------------------------------------------------

class NoRootInBracket(NumericalError):
    """A root solve found no sign change across its admissible bracket."""


class DegenerateDerivative(NumericalError):
    """A signal meets its threshold tangentially: its slope at the crossing is below tolerance."""


class NoConvergence(NumericalError):
    """A Newton or Brent iteration exceeded its budget (or met a NaN value)."""


class SingularJacobian(NumericalError):
    """Jacobian in a Newton or continuation step is numerically singular."""


class InitialPointFailed(NumericalError):
    """Branch continuation could not converge its very first point."""


# --- validation failures ------------------------------------------------

class DegenerateCrossing(ValidationError):
    """Switching signal is tangent (derivative below tolerance) at a crossing."""


class WindowTooLarge(ValidationError):
    """Requested inspection window overlaps a neighbouring crossing."""


class SingularSurface(ValidationError):
    """Half-period map matrix is numerically singular at this delay."""


class NegativeEpsilon(ValidationError):
    """Parameter point maps to a non-positive switching threshold."""


class NonTransversalCorner(ValidationError):
    """The two vector fields do not both cross the threshold at the corner (q <= 0)."""


class ParametrizationBreakdown(ValidationError):
    """Radial curve parametrization failed (zero radius or non-monotone angle)."""


class NotAMaximum(ValidationError):
    """Stationary point of the crossing-time function is not a maximum."""


class BreakupDetected(ValidationError):
    """Invariant-curve error estimate exceeded the break-up threshold."""


class LeftNeighborhood(ValidationError):
    """Iteration left the validity neighbourhood of the return map."""


class CentroidOnCurve(ValidationError):
    """Sample centroid lies on the curve; angles are ill-defined."""


class InsufficientSamples(ValidationError):
    """Too few distinct samples to run the requested analysis."""
