"""Exception types raised across the package.

Each class is a failure mode a caller can act on: a bad argument (a
matrix weight outside [0, 1) among them), a point outside the region, or a
construction or spectrum that missed its certificate.  The CLI exits 3 on
``OutsideRegion`` and 4 on every other ``Cycle4Error``; ``ValueError`` marks
a non-finite or malformed input.
"""


class Cycle4Error(Exception):
    """Base class for all package-specific errors."""


class SpectrumFailure(Cycle4Error):
    """Root finder did not deliver a spectrum meeting the residual contract."""


class ArgumentOutOfRange(Cycle4Error):
    """An argument lies outside the function's domain: a matrix weight
    outside [0, 1), among others."""


class NoConvergence(Cycle4Error):
    """A construction's eigen-defect at its target exceeds ``matrix._GUARD``."""


class AlphaOutOfRange(Cycle4Error):
    """A constructed matrix parameter rounds outside [0, 1)."""


class OutsideRegion(Cycle4Error):
    """Realization was requested for a point outside the spectral region."""
