"""The 4-cycle row-stochastic matrix family and its spectrum kernel.

A matrix in the family is a directed 4-cycle with self-loop weights
``alpha_1 .. alpha_4`` in [0, 1):

    [a1  1-a1   0    0 ]
    [ 0   a2  1-a2   0 ]
    [ 0    0   a3  1-a3]
    [1-a4  0    0   a4 ]

Its characteristic polynomial has the multiplicative form

    p(lam) = prod(lam - alpha_k) - prod(1 - alpha_k),

so 1 is always a root.  ``spectrum`` pins that root exactly; the other
three are roots of the cubic factor ``p(lam) / (lam - 1)``, seeded from
Cardano's formula and refined by Aberth's simultaneous iteration (Math.
Comp. 27, 1973) with ``p`` and ``p'`` evaluated in the product form above.
``sampling.bulk_spectra`` runs the same algorithm on whole arrays; the seed
constants and the cubic-factor coefficients below are shared with it.  A
dense determinant expansion exists only as a test oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ParameterOutOfRange, SpectrumFailure
from .scalar import _EPS, DEFAULT_TOLERANCE, Tolerance

# Seeds are rotated about their centroid and moved off the real axis by a
# fixed, asymmetric amount.  The polynomial is real, so a conjugation-
# symmetric set of iterates stays symmetric and real iterates stay real: a
# triple cluster x + d*omega^k whose Cardano seeds come out real would
# otherwise collapse onto x.
_SEED_ROTATION = cmath.exp(0.3j)
_SEED_OFFSETS = (1e-3j, 2e-3j, -3e-3j)

_OMEGA = cmath.exp(2j * math.pi / 3)  # primitive cube root of unity


def _cubic_factor(a1, a2, a3, a4):
    """Coefficients (c2, c1, c0) of ``p(lam) / (lam - 1) = lam^3 + c2 lam^2
    + c1 lam + c0``, by synthetic division of the expanded quartic.

    They only seed the iteration, which never evaluates them.  Accepts
    floats or numpy arrays.
    """
    e1 = a1 + a2 + a3 + a4
    e2 = a1 * (a2 + a3 + a4) + a2 * (a3 + a4) + a3 * a4
    e3 = a1 * a2 * (a3 + a4) + (a1 + a2) * a3 * a4
    c2 = 1.0 - e1
    c1 = c2 + e2
    c0 = c1 - e3
    return c2, c1, c0


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

    The set holds the exact root 1 and either three reals or a real root
    and an exact conjugate pair; roots within ``tol.boundary_band`` of the
    real axis are snapped onto it.  At most ``tol.max_iter`` Aberth steps
    are taken.  Raises SpectrumFailure if any root has an eigen-defect above
    ``tol.eigen_residual``.
    """
    a1, a2, a3, a4 = m.alpha
    hop = (1.0 - a1) * (1.0 - a2) * (1.0 - a3) * (1.0 - a4)
    c2, c1, c0 = _cubic_factor(a1, a2, a3, a4)
    offsets = _cardano_offsets(c2, c1, c0)
    z = [-c2 / 3.0 + _SEED_ROTATION * d + e for d, e in zip(offsets, _SEED_OFFSETS)]
    # Aberth's correction for each root of p counts the pinned root 1 among
    # the others.  Iteration stops once every root either moves by at most
    # 4 ulp or has |p| at the rounding-noise floor of the product form; a
    # root whose step is not finite stays where it is.
    for _ in range(tol.max_iter):
        z0, z1, z2 = z
        settled = True
        try:
            i01, i02, i12 = 1.0 / (z0 - z1), 1.0 / (z0 - z2), 1.0 / (z1 - z2)
            pairs = (i01 + i02, i12 - i01, -(i02 + i12))
            for k, (zk, others) in enumerate(zip((z0, z1, z2), pairs)):
                d0, d1, d2, d3 = zk - a1, zk - a2, zk - a3, zk - a4
                left, right = d0 * d1, d2 * d3
                prod = left * right
                value = prod - hop
                slope = (d0 + d1) * right + left * (d2 + d3)
                step = value / (slope - value * (1.0 / (zk - 1.0) + others))
                if cmath.isfinite(step):
                    z[k] = zk - step
                    moved = abs(step) <= 4.0 * _EPS * abs(zk)
                    settled &= moved or abs(value) <= 16.0 * _EPS * (abs(prod) + hop)
        except ZeroDivisionError:  # coincident iterates: keep the current ones
            break
        if settled:
            break

    real, u, v = sorted(z, key=lambda r: abs(r.imag))
    pair_im = 0.5 * (abs(u.imag) + abs(v.imag))
    if pair_im <= tol.boundary_band:
        pair = [complex(u.real, 0.0), complex(v.real, 0.0)]
    else:
        pair_re = 0.5 * (u.real + v.real)
        pair = [complex(pair_re, -pair_im), complex(pair_re, pair_im)]
    roots = [complex(1.0, 0.0), complex(real.real, 0.0), *pair]
    roots.sort(key=lambda r: (r.real, r.imag))
    for r in roots:
        if eigen_residual(m, r) > tol.eigen_residual:
            raise SpectrumFailure(f"root {r!r} of {m.alpha} violates the residual contract")
    return tuple(roots)


def _cardano_offsets(c2: float, c1: float, c0: float) -> tuple[complex, complex, complex]:
    """Closed-form roots of ``lam^3 + c2 lam^2 + c1 lam + c0``, as offsets
    from their centroid ``-c2 / 3``."""
    p = c1 - c2 * c2 / 3.0
    q = c0 + c2 * (2.0 * c2 * c2 - 9.0 * c1) / 27.0
    # the larger of Cardano's two cubes, so that u carries no cancellation
    cube = -0.5 * q - math.copysign(1.0, q) * cmath.sqrt(0.25 * q * q + p * p * p / 27.0)
    u = cube ** (1.0 / 3.0)
    v = -p / 3.0 / u if u != 0.0 else 0j
    return (u + v, _OMEGA * u + _OMEGA.conjugate() * v, _OMEGA.conjugate() * u + _OMEGA * v)
