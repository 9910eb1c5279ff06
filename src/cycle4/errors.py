"""Exception types raised across the package.

Each class is a failure mode a caller can act on: a bad argument, a point
outside the region, or a construction or spectrum that missed its
certificate.  The CLI exits 3 on ``OutsideRegion`` and 4 on every other
``Cycle4Error``; ``ValueError`` marks a non-finite or malformed input.
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


class ArgumentOutOfRange(Cycle4Error):
    """An argument lies outside the function's domain."""


class NoConvergence(Cycle4Error):
    """A construction's eigen-defect at its target exceeds ``matrix._GUARD``."""


class AlphaOutOfRange(Cycle4Error):
    """A constructed matrix parameter rounds outside [0, 1)."""


class OutsideRegion(Cycle4Error):
    """Realization was requested for a point outside the spectral region."""
