"""The 4-cycle row-stochastic matrix family.

A matrix in the family is a directed 4-cycle with self-loop weights
``alpha_1 .. alpha_4`` in [0, 1):

    [a1  1-a1   0    0 ]
    [ 0   a2  1-a2   0 ]
    [ 0    0   a3  1-a3]
    [1-a4  0    0   a4 ]

Its characteristic polynomial has the multiplicative form

    p(lam) = prod(lam - alpha_k) - prod(1 - alpha_k),

which is what the spectrum routine solves; a dense determinant expansion
exists only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterOutOfRange, SpectrumFailure
from .scalar import DEFAULT_TOLERANCE, Tolerance, quartic_residual_scale, solve_quartic


@dataclass(frozen=True)
class CycleMatrix4:
    """Validated parameter tuple of a 4-cycle stochastic matrix."""

    alpha: tuple[float, float, float, float]

    def __post_init__(self):
        if len(self.alpha) != 4:
            raise ParameterOutOfRange(len(self.alpha), float("nan"))
        for k, value in enumerate(self.alpha, start=1):
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ParameterOutOfRange(k, value)
            if not 0.0 <= value < 1.0:
                raise ParameterOutOfRange(k, value)
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))

    def dense(self) -> list[list[float]]:
        """Dense 4x4 entry layout."""
        a1, a2, a3, a4 = self.alpha
        return [
            [a1, 1.0 - a1, 0.0, 0.0],
            [0.0, a2, 1.0 - a2, 0.0],
            [0.0, 0.0, a3, 1.0 - a3],
            [1.0 - a4, 0.0, 0.0, a4],
        ]

    def to_dict(self) -> dict:
        return {"alpha": list(self.alpha)}


def make_cycle_matrix(a1: float, a2: float, a3: float, a4: float) -> CycleMatrix4:
    """Validated construction; rejects any parameter outside [0, 1)."""
    return CycleMatrix4((a1, a2, a3, a4))


def char_poly(m: CycleMatrix4) -> tuple[float, float, float, float, float]:
    """Monic characteristic polynomial coefficients (c4, c3, c2, c1, c0).

    Row-stochasticity forces p(1) = 0: the constant term is the product of
    the self-loop weights minus the product of the hop weights, and the
    elementary-symmetric expansion cancels at 1.
    """
    a1, a2, a3, a4 = m.alpha
    e1 = a1 + a2 + a3 + a4
    e2 = a1 * a2 + a1 * a3 + a1 * a4 + a2 * a3 + a2 * a4 + a3 * a4
    e3 = a1 * a2 * a3 + a1 * a2 * a4 + a1 * a3 * a4 + a2 * a3 * a4
    e4 = a1 * a2 * a3 * a4
    hop_product = (1.0 - a1) * (1.0 - a2) * (1.0 - a3) * (1.0 - a4)
    return (1.0, -e1, e2, -e3, e4 - hop_product)


def eigen_residual(m: CycleMatrix4, lam: complex) -> float:
    """Absolute defect |prod(lam - alpha_k) - prod(1 - alpha_k)|.

    Zero exactly when ``lam`` is an eigenvalue; used everywhere as the
    membership certificate for claimed eigenvalues.
    """
    lam = complex(lam)
    left = 1.0 + 0.0j
    right = 1.0
    for a in m.alpha:
        left *= lam - a
        right *= 1.0 - a
    return abs(left - right)


def spectrum(
    m: CycleMatrix4, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[complex, complex, complex, complex]:
    """All four eigenvalues, sorted lexicographically by (re, im).

    The set always contains 1, has modulus at most 1, and is closed under
    conjugation.  Raises SpectrumFailure if any root misses the residual
    contract of the quartic solver.
    """
    coeffs = char_poly(m)
    roots = solve_quartic(*coeffs, tol=tol)
    scale = quartic_residual_scale(*coeffs)
    for r in roots:
        if eigen_residual(m, r) > tol.eigen_residual * scale:
            raise SpectrumFailure(
                f"root {r!r} of {m.alpha} violates the residual contract"
            )
    return roots
