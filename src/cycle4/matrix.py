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
three are roots of the cubic factor ``p(lam) / (lam - 1)``, seeded at
Cardano's closed-form roots, each moved by a tiny asymmetric spread, and
refined by Aberth's simultaneous iteration (Math. Comp. 27, 1973) with
``p`` and ``p'`` evaluated in the product form above.  Away from clustered
roots the seeds are already accurate, and two steps suffice: one to reach
full accuracy and one to confirm it.
``sampling.bulk_spectra`` runs the same algorithm on whole arrays; the seed
constants and the cubic-factor coefficients below are shared with it.  A
dense determinant expansion exists only as a test oracle.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import ParameterOutOfRange, SpectrumFailure
from .scalar import _EPS, DEFAULT_TOLERANCE, Tolerance

# Cardano's roots are accurate to a few ulp unless the roots cluster, so the
# seeds stay on them: root k starts at ``d_k + _SEED_SPREAD[k] * s`` from the
# centroid, where d_k is Cardano's offset and s = max(max|d_k|, _SEED_FLOOR).
# The polynomial is real, so a conjugation-symmetric set of iterates stays
# symmetric and real iterates stay real: a triple cluster whose Cardano
# roots come out real would collapse onto one point, and a real pair that
# Cardano returns as a complex pair would never split.  Moving each seed
# along 1 + i by a different multiple breaks both symmetries.
# - At 1e-6 * s one step brings a seed to full accuracy and a second
#   confirms it.  At 1e-5 * s the interior-grid matrices need three steps.
# - Near a triple cluster Cardano's roots are off by about eps^(1/3), and the
#   iteration shrinks the seeds' asymmetry as it closes in; once that falls
#   below the rounding of the real parts, a real pair in the cluster never
#   separates and the iterates wander until the cap.  The floor keeps every
#   seed at least 1e-8 off.  On parameters 1 - u^16, u uniform, some rows
#   reach the 200-step cap with a floor of 1e-8; with a floor of 1e-3, or
#   a spread of 1e-7 * s, they take up to 113 steps.
# s is formed from + - * / and sqrt only, so both backends round it alike.
_SEED_SPREAD = (1e-6 + 1e-6j, 2e-6 + 2e-6j, -3e-6 - 3e-6j)
_SEED_FLOOR = 1e-2

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


class CycleMatrix4(namedtuple("CycleMatrix4", "alpha")):
    """Validated parameter tuple of a 4-cycle stochastic matrix: ``alpha``
    holds four floats in [0, 1), checked on every construction path."""

    __slots__ = ()

    def __new__(cls, alpha):
        if len(alpha) != 4:
            raise ParameterOutOfRange(len(alpha), float("nan"))
        for k, value in enumerate(alpha, start=1):
            # the range test also rejects NaN and infinities
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and 0.0 <= value < 1.0
            ):
                raise ParameterOutOfRange(k, value)
        return super().__new__(cls, tuple(float(a) for a in alpha))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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
    """Validated construction; rejects any parameter outside [0, 1), and
    bools."""
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
    size = max(math.sqrt(max(d.real * d.real + d.imag * d.imag for d in offsets)), _SEED_FLOOR)
    z = [-c2 / 3.0 + d + k * size for d, k in zip(offsets, _SEED_SPREAD)]
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
    real = complex(real.real, 0.0)
    pair_im = 0.5 * (abs(u.imag) + abs(v.imag))
    if pair_im <= tol.boundary_band:
        pair = [complex(u.real, 0.0), complex(v.real, 0.0)]
        distinct = (real, *pair)
    else:
        pair_re = 0.5 * (u.real + v.real)
        pair = [complex(pair_re, -pair_im), complex(pair_re, pair_im)]
        distinct = (real, pair[1])
    # Each distinct defect is checked once: at 1 it is exactly 0, since every
    # product keeps a zero imaginary part, and a conjugate's equals its
    # partner's, since complex *, - and abs are exact under conjugation.
    for r in distinct:
        if eigen_residual(m, r) > tol.eigen_residual:
            raise SpectrumFailure(f"root {r!r} of {m.alpha} violates the residual contract")
    return tuple(sorted((complex(1.0, 0.0), real, *pair), key=lambda r: (r.real, r.imag)))


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
