"""Shared scalar machinery: the tolerance policy and principal arguments.

All complex values are plain Python ``complex``.  The spectrum kernel lives
in ``matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ZeroArgument

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy shared by solvers and classifiers.

    eigen_residual: largest accepted defect in the multiplicative
        eigenvalue identity, i.e. how far ``prod(lam - alpha_k)`` may sit
        from ``prod(1 - alpha_k)`` while ``lam`` still counts as an
        eigenvalue.
    boundary_band: half-width of the band within which a constraint value
        counts as "on the boundary" (also the real-axis snapping band).
    max_iter: iteration cap for the spectrum kernel and the ray bisection.

    Both tolerances must be finite positive numbers and ``max_iter`` a
    positive integer; bools are rejected.
    """

    eigen_residual: float = 1e-8
    boundary_band: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        for name in ("eigen_residual", "boundary_band"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and 0 < value < math.inf
            ):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        if isinstance(self.max_iter, bool) or not (
            isinstance(self.max_iter, int) and self.max_iter >= 1
        ):
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")


DEFAULT_TOLERANCE = Tolerance()


def _require_finite(w: complex) -> complex:
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"non-finite complex value {w!r}")
    return w


def principal_arg(w: complex) -> float:
    """Argument of ``w`` on the principal branch (-pi, pi].

    Upper half-plane points map into (0, pi); negative reals map to +pi,
    including values carrying a negative-zero imaginary part.
    """
    w = _require_finite(complex(w))
    if w == 0:
        raise ZeroArgument("argument of zero is undefined")
    im = 0.0 if w.imag == 0.0 else w.imag  # normalise -0.0 so arg(-1) = +pi
    theta = math.atan2(im, w.real)
    if theta == 0.0 and im > 0.0:
        return math.ulp(0.0)  # im / re underflowed; the angle is still positive
    return theta
