"""Exact verification of the algebraic identities behind the region math.

Each identity is a residual: a function of (a, b) built with ``+ - *`` and
integer powers from the region's own ``left_boundary_form`` and
``modulus_threshold``, looked up on ``region`` at call time, so the
functions that classify points are the ones proved.  Over Python ints the
residuals evaluate exactly.

Every residual is a polynomial of degree at most 7 in each variable.  A
polynomial of degree at most d in each variable that vanishes on a
(d+1) x (d+1) grid is the zero polynomial (Alon, "Combinatorial
Nullstellensatz", 1999, Lemma 2.1), so vanishing on the 13 x 13 integer
grid ``GRID`` proves an identity; otherwise the first grid point with a
nonzero value is reported.
"""

from __future__ import annotations

from collections import namedtuple

from . import region

GRID = tuple((a, b) for a in range(-6, 7) for b in range(-6, 7))


def _quadratic_in_s(a, b):
    # the left boundary form as a quadratic in s = b^2
    s = b * b
    g = region.left_boundary_form(a, b)
    return g - (s**2 + s * (2 * a**2 + 2 * a - 1) + (a**2 + a) ** 2 + 2 * a**2)


def _discriminant(a, b):
    linear = 2 * a**2 + 2 * a - 1
    constant = (a**2 + a) ** 2 + 2 * a**2
    return linear**2 - 4 * constant + (2 * a + 1) * (6 * a - 1)


def _root_above_3a2(a, b):
    return (1 - 2 * a - 8 * a**2) ** 2 - (2 * a + 1) * (1 - 6 * a) - 32 * a**3 - 64 * a**4


def _root_above_threshold(a, b):
    lhs = (1 - 6 * a + 16 * a**3) ** 2
    return lhs - (1 - 4 * a) ** 2 * (2 * a + 1) * (1 - 6 * a) - 256 * a**6


def _factorization(a, b):
    g = region.left_boundary_form(a, b)
    return (a**2 + b**2) ** 3 - region.modulus_threshold(a, b) - ((a - 1) ** 2 + b**2) * g


def _imaginary_part(a, b):
    # Im((lam^4 - 1)(conj(lam)^3 - 1)) with lam = a + ib, powers by repeated
    # complex multiplication
    re2, im2 = a * a - b * b, 2 * a * b
    re3, im3 = re2 * a - im2 * b, re2 * b + im2 * a
    re4, im4 = re3 * a - im3 * b, re3 * b + im3 * a
    imag = im4 * (re3 - 1) - (re4 - 1) * im3
    return imag - b * ((a**2 + b**2) ** 3 - region.modulus_threshold(a, b))


def _triple_angle_tangent(a, b):
    return (3 * a**2 * b - b**3) * (3 * b**2 - a**2) - b * (b**2 - 3 * a**2) * (a**2 - 3 * b**2)


def _triple_angle_sine(a, b):
    return 3 * b * (a**2 + b**2) - 4 * b**3 - b * (3 * a**2 - b**2)


def _triple_angle_cosine(a, b):
    return 4 * a**3 - 3 * a * (a**2 + b**2) - a * (a**2 - 3 * b**2)


IDENTITIES = (
    ("I1", "left boundary form as a quadratic in s = b^2", (_quadratic_in_s,)),
    ("I2", "discriminant of the quadratic in s", (_discriminant,)),
    ("I3", "smaller quadratic root exceeds 3a^2 (squared comparison)", (_root_above_3a2,)),
    ("I4", "smaller quadratic root exceeds the threshold zero (squared comparison)",
     (_root_above_threshold,)),
    ("I5", "|lam|^6 - threshold factors through the left boundary form", (_factorization,)),
    ("I6", "imaginary part of (lam^4 - 1)(conj(lam)^3 - 1)", (_imaginary_part,)),
    ("I7", "triple-angle tangent, cross-multiplied", (_triple_angle_tangent,)),
    ("I8", "triple-angle sine and cosine expansions", (_triple_angle_sine, _triple_angle_cosine)),
)


def grid_witness(residuals) -> tuple | None:
    """First grid point ``(a, b, value)`` where a residual is nonzero, or
    None when all of them vanish on ``GRID``."""
    for a, b in GRID:
        for residual in residuals:
            value = residual(a, b)
            if value != 0:
                return (a, b, value)
    return None


class IdentityResult(namedtuple("IdentityResult", "ident description witness")):
    """Outcome of one identity check: ``witness`` is None when every
    residual vanishes on the grid, else the first ``(a, b, value)`` where
    one does not."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.witness is None

    @property
    def status(self) -> str:
        if self.ok:
            return "ZeroPolynomial"
        a, b, value = self.witness
        return f"Failed(a={a}, b={b}, value={value})"


def verify_identity_suite() -> list[IdentityResult]:
    """Check all eight identities; failures are reported, never raised."""
    return [IdentityResult(ident, desc, grid_witness(residuals))
            for ident, desc, residuals in IDENTITIES]
