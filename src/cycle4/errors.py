"""Exception types raised across the package.

Every failure mode has its own class so callers (and the CLI exit-code
mapping) can dispatch on type rather than parse messages.
"""


class Cycle4Error(Exception):
    """Base class for all package-specific errors."""


class ParameterOutOfRange(Cycle4Error):
    """A cycle-matrix parameter lies outside [0, 1); ``index`` is None when
    ``value``, the whole argument, does not hold four parameters."""

    def __init__(self, index, value):
        # both arguments go to ``args``, which pickling replays
        super().__init__(index, value)
        self.index = index
        self.value = value

    def __str__(self):
        if self.index is not None:
            return f"parameter {self.index} = {self.value!r} is outside [0, 1)"
        if hasattr(self.value, "__len__"):
            return f"expected 4 parameters, got {len(self.value)}"
        return f"expected a sequence of 4 parameters, got {self.value!r}"


class SpectrumFailure(Cycle4Error):
    """Root finder did not deliver a spectrum meeting the residual contract."""


class LowerHalfPlane(Cycle4Error):
    """Operation requires a point in the open upper half-plane."""


class NonrealRequired(Cycle4Error):
    """Operation requires a nonreal point."""


class FeasibilityViolation(Cycle4Error):
    """The feasible angle set is empty for this point."""


class ArgumentOutOfRange(Cycle4Error):
    """Angle or shift parameter outside its admissible interval."""


class InfeasiblePoint(Cycle4Error):
    """Angle tuple violates the box or sum constraint of the feasible set."""


class NoConvergence(Cycle4Error):
    """Iterative search exhausted its iteration budget."""


class NotOnCurve(Cycle4Error):
    """Point is not on the left boundary curve within tolerance."""


class AlphaOutOfRange(Cycle4Error):
    """Recovered matrix parameter falls outside [0, 1)."""


class OutsideRegion(Cycle4Error):
    """Realization was requested for a point outside the spectral region."""
