"""Argument-space criterion for eigenvalue realizability.

For a nonreal target ``lam = a + ib`` (b > 0) write ``z = lam - 1``.  The
multiplicative eigenvalue identity

    (z + t1)(z + t2)(z + t3)(z + t4) = t1 t2 t3 t4,   t_k in (0, 1],

holds for some hop weights t_k exactly when four angles u_k in
[lower_arg, upper_arg) satisfy

    u1 + u2 + u3 + u4 = 2*pi   and   sum_k log_modulus_ratio(u_k) = 0,

where u_k is the argument of z + t_k.  The map between shifts and angles is
a strictly decreasing bijection, and the log-modulus ratio

    F(u) = log|z + t(u)| - log t(u) = log(y csc u) - log(y cot u - x)

is strictly convex, which pins down the supremum of the sum over the
feasible set: unbounded when 3*lower + upper <= 2*pi, and otherwise
attained at the angle vector (peak, lower, lower, lower) with
peak = 2*pi - 3*lower.

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

from .errors import ArgumentOutOfRange

_TWO_PI = 2.0 * math.pi
_ANGLE_SLACK = 1e-12  # float slack below the lower angle bound


class Regime(str, Enum):
    UNBOUNDED = "Unbounded"
    TIGHT = "Tight"


class CriterionContext(namedtuple("CriterionContext", "lam z lower_arg upper_arg regime peak_arg")):
    """Per-target quantities of the angle parametrisation.

    z is lam - 1.  lower_arg is Arg(lam) (the angle realised by shift
    t = 1), upper_arg is Arg(lam - 1) (the open supremum as t -> 0).
    peak_arg is 2*pi - 3*lower_arg, defined only in the tight regime where
    it bounds the feasible box, else None.
    """

    __slots__ = ()


def make_context(lam: complex) -> CriterionContext:
    """Build the criterion context for an upper-half-plane target left of 1.

    Raises ValueError for a non-finite ``lam``, and ArgumentOutOfRange when
    it is real, lies in the lower half-plane or has real part at least 1.
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
    z = lam - 1.0
    lower = math.atan2(lam.imag, lam.real)
    upper = math.atan2(z.imag, z.real)
    if 3.0 * lower + upper > _TWO_PI:
        regime = Regime.TIGHT
        peak = _TWO_PI - 3.0 * lower
    else:
        regime = Regime.UNBOUNDED
        peak = None
    return CriterionContext(lam, z, lower, upper, regime, peak)


def shift_for_angle(ctx: CriterionContext, u: float) -> float:
    """Hop weight t with Arg(z + t) = u; decreases from t(lower_arg) = 1
    toward 0 as u approaches upper_arg.  Raises ArgumentOutOfRange for u
    outside [lower_arg, upper_arg)."""
    if not ctx.lower_arg - _ANGLE_SLACK <= u < ctx.upper_arg:
        raise ArgumentOutOfRange(f"angle {u!r} outside [{ctx.lower_arg}, {ctx.upper_arg})")
    sin_u = math.sin(u)
    if sin_u <= 0.0:
        # a lower_arg below the slack admits u <= 0, where cot u is infinite
        # or negative and log_modulus_ratio would take the log of a negative
        raise ArgumentOutOfRange(f"angle {u!r} is not positive")
    z = ctx.z
    t = z.imag * math.cos(u) / sin_u - z.real
    if t > 1.0:
        # t(lower_arg) = 1 exactly; anything above is rounding noise
        if t > 1.0 + 1e-9:
            raise ArgumentOutOfRange(f"angle {u!r} maps to shift {t!r} > 1")
        t = 1.0
    return t


def log_modulus_ratio(ctx: CriterionContext, u: float) -> float:
    """log |z + t(u)| - log t(u), evaluated in the cosecant form.

    Tends to +infinity as u approaches upper_arg (t -> 0); the value at
    lower_arg is log|lam| and the value at pi/2 is log(b / (1 - a)).
    Raises ArgumentOutOfRange as ``shift_for_angle`` does.
    """
    t = shift_for_angle(ctx, u)
    if t <= 0.0:
        return math.inf
    return math.log(ctx.z.imag / math.sin(u)) - math.log(t)


def criterion_sum(ctx: CriterionContext, angles) -> float:
    """Sum of log-modulus ratios over a feasible angle 4-tuple.

    Raises ArgumentOutOfRange unless there are four angles, each inside the
    box, summing to 2*pi within 1e-9.
    """
    angles = tuple(float(u) for u in angles)
    if len(angles) != 4:
        raise ArgumentOutOfRange(f"need 4 angles, got {len(angles)}")
    for u in angles:
        if not ctx.lower_arg - _ANGLE_SLACK <= u < ctx.upper_arg:
            raise ArgumentOutOfRange(f"angle {u!r} outside the feasible box")
    if abs(math.fsum(angles) - _TWO_PI) > 1e-9:
        raise ArgumentOutOfRange(f"angles sum to {math.fsum(angles)!r}, not 2*pi")
    # fsum is exactly rounded, which makes the value permutation-invariant
    return math.fsum(log_modulus_ratio(ctx, u) for u in angles)


def criterion_max(ctx: CriterionContext) -> float:
    """Supremum of the criterion sum over the feasible set.

    +infinity in the unbounded regime; otherwise the attained maximum
    3 F(lower_arg) + F(peak_arg), which also equals
    log(|lam|^6 / modulus_threshold(a, b)).  Raises ArgumentOutOfRange when
    peak_arg falls below lower_arg, as it does left of the imaginary axis:
    there 4 lower_arg > 2*pi and no angle vector is feasible.
    """
    if ctx.regime is Regime.UNBOUNDED:
        return math.inf
    if ctx.peak_arg < ctx.lower_arg - _ANGLE_SLACK:
        raise ArgumentOutOfRange(
            f"feasible angle set of {ctx.lam!r} is empty: 4 Arg(lam) = {4.0 * ctx.lower_arg} > 2*pi"
        )
    return 3.0 * log_modulus_ratio(ctx, ctx.lower_arg) + log_modulus_ratio(
        ctx, ctx.peak_arg
    )
