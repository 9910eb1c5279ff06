"""Argument-space criterion for eigenvalue realizability.

For a nonreal target ``lam = a + ib`` (b > 0) write ``z = lam - 1``.  The
multiplicative eigenvalue identity

    (z + t1)(z + t2)(z + t3)(z + t4) = t1 t2 t3 t4,   t_k in (0, 1],

holds for some hop weights t_k exactly when four angles u_k in
[lower_arg, upper_arg) satisfy

    u1 + u2 + u3 + u4 = 2*pi   and   sum_k F(u_k) = 0,

where u_k is the argument of z + t_k and F(u) = log|z + t| - log t is the
log-modulus ratio of its weight.  F is strictly convex in u, which pins
down the supremum of the sum over the feasible set: unbounded when
3*lower + upper <= 2*pi, and otherwise attained at the angle vector
(peak, lower, lower, lower) with peak = 2*pi - 3*lower.  The triple-angle
expansions (identity I8) turn that maximum 3 F(lower) + F(peak) into the
closed form

    log(|lam|^6 / T(a, b)),   T = region.modulus_threshold,

and identity I5, |lam|^6 - T = |lam - 1|^2 left_boundary_form(a, b), puts
its zero on the left curve.  ``cycle4 verify`` proves both on the region's
own forms.

All three tests are exact sign tests on the binary values of a and b.
With b > 0 and a < 1, Arg(lam - 1) lies in (pi/2, pi).  If a < 0, then
4 Arg(lam) > 2*pi and the feasible set is empty.  If 3 b^2 < a^2 (a > 0),
then Arg(lam) < pi/6 and the sum stays below 3*pi/2: unbounded.  Otherwise
Arg(lam) lies in [pi/6, pi/2] and the sum in (pi, 5*pi/2), where its sine
has the sign of Im(lam^3 (lam - 1)) = b T(a, b): tight iff T > 0.

This module evaluates the criterion; it solves nothing.  The realizing
weights come from ``synthesis``: the shrunk left-curve anchor has hop
weights (l, l, l, l tau), whose angles lie on the family
u_123 = (2*pi - u_4)/3 and zero the sum, as ``realize_via_criterion``
returns them.  ``psi`` reports the angle box and the supremum.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .errors import ArgumentOutOfRange
from .region import modulus_threshold

_TWO_PI = 2.0 * math.pi


class Regime(str, Enum):
    UNBOUNDED = "Unbounded"
    TIGHT = "Tight"


class CriterionContext(namedtuple("CriterionContext", "lower_arg upper_arg regime peak_arg max_psi")):
    """Per-target quantities of the angle parametrisation.

    lower_arg is Arg(lam) (the angle realised by shift t = 1), upper_arg
    is Arg(lam - 1) (the open supremum as t -> 0).  peak_arg is
    2*pi - 3*lower_arg, defined only in the tight regime where it bounds
    the feasible box, else None.  max_psi is the supremum of the criterion
    sum over the feasible set: +infinity in the unbounded regime, otherwise
    log(|lam|^6 / T(a, b)), with T and the ratio formed exactly on the
    binary values of a and b, so a normal result is within 4e-16 relative
    of the true value.
    """

    __slots__ = ()


def make_context(lam: complex) -> CriterionContext:
    """Build the criterion context for an upper-half-plane target with
    real part in [0, 1).

    The regime takes the module's exact sign tests: tight iff 3 b^2 >= a^2
    and T(a, b) > 0.  The angles are ``atan2`` floats.  Raises ValueError
    for a non-finite ``lam``, and ArgumentOutOfRange when it is real, lies
    in the lower half-plane or has real part at least 1, or when a < 0:
    then 4 Arg(lam) > 2*pi, and no angle vector is feasible.
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValueError(f"non-finite point {lam!r}")
    if lam.imag == 0.0:
        raise ArgumentOutOfRange(f"{lam!r} is real")
    if lam.imag < 0.0:
        raise ArgumentOutOfRange(f"{lam!r} lies in the lower half-plane; conjugate first")
    if lam.real >= 1.0:
        raise ArgumentOutOfRange(f"real part {lam.real} >= 1")
    a, b = Fraction(lam.real), Fraction(lam.imag)
    if a < 0:
        raise ArgumentOutOfRange(f"feasible angle set of {lam!r} is empty: Re(lam) < 0")
    lower = math.atan2(lam.imag, lam.real)
    upper = math.atan2(lam.imag, lam.real - 1.0)
    if 3 * b * b >= a * a and (threshold := modulus_threshold(a, b)) > 0:
        max_psi = _log((a * a + b * b) ** 3 / threshold)
        return CriterionContext(lower, upper, Regime.TIGHT, _TWO_PI - 3.0 * lower, max_psi)
    return CriterionContext(lower, upper, Regime.UNBOUNDED, None, math.inf)


def _log(ratio: Fraction) -> float:
    """log of a positive rational: log1p of the exactly formed ratio - 1
    near 1, else the log of the correctly rounded ratio, scaled by a power
    of two where that would leave the normal floats."""
    if Fraction(1, 2) <= ratio <= 2:
        return math.log1p(ratio - 1)
    num, den = ratio.numerator, ratio.denominator
    shift = num.bit_length() - den.bit_length()
    if abs(shift) < 1000:
        return math.log(num / den)
    mantissa = num / (den << shift) if shift > 0 else (num << -shift) / den
    return math.log(mantissa) + shift * math.log(2.0)
