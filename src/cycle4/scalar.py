"""The tolerance policy shared by solvers and classifiers.

The spectrum kernel lives in ``matrix``; the one interior solve, Newton's
method on a quartic with one sign change, in ``synthesis``.
"""

from __future__ import annotations

import math
from collections import namedtuple


class Tolerance(namedtuple("Tolerance", "eigen_residual boundary_band")):
    """Numerical policy shared by solvers and classifiers.

    eigen_residual: largest accepted defect in the multiplicative
        eigenvalue identity, i.e. how far ``prod(lam - alpha_k)`` may sit
        from ``prod(1 - alpha_k)`` while ``lam`` still counts as an
        eigenvalue.
    boundary_band: half-width of the band within which a constraint value
        counts as "on the boundary" (also the real-axis snapping band).

    Both must be finite positive numbers; bools are rejected.  Every
    construction path checks this: the constructor, ``_make`` and
    ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, eigen_residual=1e-8, boundary_band=1e-9):
        for name, value in (("eigen_residual", eigen_residual), ("boundary_band", boundary_band)):
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and 0 < value < math.inf
            ):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        return super().__new__(cls, eigen_residual, boundary_band)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


DEFAULT_TOLERANCE = Tolerance()
