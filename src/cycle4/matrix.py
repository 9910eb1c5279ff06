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
full accuracy and one to confirm it.  Each step is one loop over the three
roots on local names; coincident iterates raise SpectrumFailure, and the
guard evaluates each defect in ``eigen_residual``'s product order, so it
accepts exactly the roots ``eigen_residual`` would.
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
        a1, a2, a3, a4 = alpha
        if (type(a1) is type(a2) is type(a3) is type(a4) is float
                and 0.0 <= a1 < 1.0 and 0.0 <= a2 < 1.0 and 0.0 <= a3 < 1.0 and 0.0 <= a4 < 1.0):
            return tuple.__new__(cls, ((a1, a2, a3, a4),))
        # slow path: convert ints and float subclasses, or name the bad parameter
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
    a1, a2, a3, a4 = m.alpha
    lam = complex(lam)
    hop = (1.0 - a1) * (1.0 - a2) * (1.0 - a3) * (1.0 - a4)
    return abs((lam - a1) * (lam - a2) * (lam - a3) * (lam - a4) - hop)


def spectrum(
    m: CycleMatrix4, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[complex, complex, complex, complex]:
    """All four eigenvalues, sorted lexicographically by (re, im).

    The set holds the exact root 1 and either three reals or a real root
    and an exact conjugate pair; roots within ``tol.boundary_band`` of the
    real axis are snapped onto it.  At most ``tol.max_iter`` Aberth steps
    are taken.  Raises SpectrumFailure if any root has an eigen-defect above
    ``tol.eigen_residual``, or if two iterates coincide.
    """
    a1, a2, a3, a4 = m.alpha
    hop = (1.0 - a1) * (1.0 - a2) * (1.0 - a3) * (1.0 - a4)
    c2, c1, c0 = _cubic_factor(a1, a2, a3, a4)
    d0, d1, d2 = _cardano_offsets(c2, c1, c0)
    size = max(math.sqrt(max(d0.real * d0.real + d0.imag * d0.imag,
                             d1.real * d1.real + d1.imag * d1.imag,
                             d2.real * d2.real + d2.imag * d2.imag)), _SEED_FLOOR)
    centre = -c2 / 3.0
    s0, s1, s2 = _SEED_SPREAD
    z = [centre + d0 + s0 * size, centre + d1 + s1 * size, centre + d2 + s2 * size]
    # Aberth's correction for each root of p counts the pinned root 1 among
    # the others.  Iteration stops once every root either moves by at most
    # 4 ulp or has |p| at the rounding-noise floor of the product form; a
    # root whose step is not finite stays where it is, unsettled.
    near, noise, isfinite = 4.0 * _EPS, 16.0 * _EPS, cmath.isfinite
    try:
        for _ in range(tol.max_iter):
            z0, z1, z2 = z
            i01, i02, i12 = 1.0 / (z0 - z1), 1.0 / (z0 - z2), 1.0 / (z1 - z2)
            settled = True
            z = []
            for zk, others in ((z0, i01 + i02), (z1, i12 - i01), (z2, -(i02 + i12))):
                d0, d1, d2, d3 = zk - a1, zk - a2, zk - a3, zk - a4
                left, right = d0 * d1, d2 * d3
                prod = left * right
                value = prod - hop
                slope = (d0 + d1) * right + left * (d2 + d3)
                step = value / (slope - value * (1.0 / (zk - 1.0) + others))
                finite = isfinite(step)
                z.append(zk - step if finite else zk)
                if not (finite and (abs(step) <= near * abs(zk) or abs(value) <= noise * (abs(prod) + hop))):
                    settled = False
            if settled:
                break
    except ZeroDivisionError:  # coincident iterates, the pinned root 1 among them
        raise SpectrumFailure(f"Aberth iterates of {m.alpha} coincide") from None

    # The root of least |Im| (the first such, as a stable sort takes it) is
    # the real root; the other two form the pair.
    z0, z1, z2 = z
    k0, k1, k2 = abs(z0.imag), abs(z1.imag), abs(z2.imag)
    if k0 <= k1 and k0 <= k2:
        real, u, v, ku, kv = z0.real, z1, z2, k1, k2
    elif k1 <= k2:
        real, u, v, ku, kv = z1.real, z0, z2, k0, k2
    else:
        real, u, v, ku, kv = z2.real, z0, z1, k0, k1
    pair_im = 0.5 * (ku + kv)
    if pair_im <= tol.boundary_band:
        if kv < ku:
            u, v = v, u
        distinct = (real, u.real, v.real)
        roots = [(1.0, 0.0), (real, 0.0), (u.real, 0.0), (v.real, 0.0)]
    else:
        pair_re = 0.5 * (u.real + v.real)
        distinct = (real, complex(pair_re, pair_im))
        roots = [(1.0, 0.0), (real, 0.0), (pair_re, -pair_im), (pair_re, pair_im)]
    # Each distinct defect is checked once, in the product order of
    # ``eigen_residual`` and so bit for bit equal to it (floats give a real
    # root's): at 1 it is exactly 0, and a conjugate's equals its partner's,
    # since complex *, - and abs are exact under conjugation.
    for r in distinct:
        if abs((r - a1) * (r - a2) * (r - a3) * (r - a4) - hop) > tol.eigen_residual:
            raise SpectrumFailure(f"root {complex(r)!r} of {m.alpha} violates the residual contract")
    roots.sort()  # by (re, im), as the pairs compare
    return (complex(*roots[0]), complex(*roots[1]), complex(*roots[2]), complex(*roots[3]))


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
