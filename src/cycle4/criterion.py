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

The solver follows the one-parameter family u_123 = (2*pi - u_4)/3 from the
barycenter (pi/2,...,pi/2) toward the supremum.  Convexity of F makes the
sum monotone along this family, so false position in s = log t_4 finds
its zero, which turns the existence proof into a deterministic construction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from . import scalar
from .errors import (
    ArgumentOutOfRange,
    FeasibilityViolation,
    InfeasiblePoint,
    LowerHalfPlane,
    NoConvergence,
    NonrealRequired,
    NotRealizable,
)
from .region import left_boundary_form
from .scalar import DEFAULT_TOLERANCE, Tolerance, bracketed_zero

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
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

    @property
    def x(self) -> float:
        return self.z.real

    @property
    def y(self) -> float:
        return self.z.imag


def make_context(lam: complex) -> CriterionContext:
    """Build the criterion context for an upper-half-plane target left of 1."""
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValueError(f"non-finite point {lam!r}")
    if lam.imag == 0.0:
        raise NonrealRequired(f"{lam!r} is real")
    if lam.imag < 0.0:
        raise LowerHalfPlane(f"{lam!r} lies in the lower half-plane; conjugate first")
    if lam.real >= 1.0:
        raise FeasibilityViolation(f"real part {lam.real} >= 1")
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
    toward 0 as u approaches upper_arg."""
    if not ctx.lower_arg - _ANGLE_SLACK <= u < ctx.upper_arg:
        raise ArgumentOutOfRange(f"angle {u!r} outside [{ctx.lower_arg}, {ctx.upper_arg})")
    z = ctx.z
    t = z.imag * math.cos(u) / math.sin(u) - z.real
    if t > 1.0:
        # t(lower_arg) = 1 exactly; anything above is rounding noise
        if t > 1.0 + 1e-9:
            raise ArgumentOutOfRange(f"angle {u!r} maps to shift {t!r} > 1")
        t = 1.0
    return t


def angle_for_shift(ctx: CriterionContext, t: float) -> float:
    """Inverse of shift_for_angle on (0, 1]."""
    if not 0.0 < t <= 1.0 + 1e-12:
        raise ArgumentOutOfRange(f"shift {t!r} outside (0, 1]")
    z = ctx.z
    return math.atan2(z.imag, z.real + (1.0 if t > 1.0 else t))


def log_modulus_ratio(ctx: CriterionContext, u: float) -> float:
    """log |z + t(u)| - log t(u), evaluated in the cosecant form.

    Tends to +infinity as u approaches upper_arg (t -> 0); the value at
    lower_arg is log|lam| and the value at pi/2 is log(b / (1 - a)).
    """
    t = shift_for_angle(ctx, u)
    if t <= 0.0:
        return math.inf
    return math.log(ctx.y / math.sin(u)) - math.log(t)


def criterion_sum(ctx: CriterionContext, angles) -> float:
    """Sum of log-modulus ratios over a feasible angle 4-tuple.

    Raises InfeasiblePoint unless every angle is inside the box and the
    angles sum to 2*pi within 1e-9.
    """
    angles = tuple(float(u) for u in angles)
    if len(angles) != 4:
        raise InfeasiblePoint(f"need 4 angles, got {len(angles)}")
    for u in angles:
        if not ctx.lower_arg - _ANGLE_SLACK <= u < ctx.upper_arg:
            raise InfeasiblePoint(f"angle {u!r} outside the feasible box")
    if abs(math.fsum(angles) - _TWO_PI) > 1e-9:
        raise InfeasiblePoint(f"angles sum to {math.fsum(angles)!r}, not 2*pi")
    # fsum is exactly rounded, which makes the value permutation-invariant
    return math.fsum(log_modulus_ratio(ctx, u) for u in angles)


def criterion_max(ctx: CriterionContext) -> float:
    """Supremum of the criterion sum over the feasible set.

    +infinity in the unbounded regime; otherwise the attained maximum
    3 F(lower_arg) + F(peak_arg), which also equals
    log(|lam|^6 / modulus_threshold(a, b)).
    """
    if ctx.regime is Regime.UNBOUNDED:
        return math.inf
    return 3.0 * log_modulus_ratio(ctx, ctx.lower_arg) + log_modulus_ratio(
        ctx, ctx.peak_arg
    )


def solve_criterion(
    ctx: CriterionContext, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[float, float, float, float]:
    """Hop weights t_1..t_4 realizing ``ctx.lam`` as an eigenvalue.

    Requires an admissible target: 0 <= a < 1, b > 0, and both 1 - a - b
    and left_boundary_form(a, b) >= -tol.boundary_band, as in membership.
    The returned weights satisfy the multiplicative identity with relative
    defect below tol.eigen_residual; equivalently, lam is in the spectrum
    of the matrix with self-loop weights 1 - t_k.  The zero returned is the
    one met along the solver's path; other zeros may exist and realize lam
    with different weights.

    False position (``bracketed_zero``, capped at ``_SEARCH_EVALUATIONS``)
    in s = log t_4 along the path u_123 = (2*pi - u_4)/3 finds the zero:
    the sum is monotone in s there, as its u_4-slope F'(u_4) - F'(u_123)
    is positive by convexity (u_4 >= pi/2 >= u_123).
    """
    a, b = ctx.lam.real, ctx.lam.imag
    if a < 0.0 or a >= 1.0:
        raise FeasibilityViolation(f"real part {a} outside [0, 1)")
    if 1.0 - a - b < -tol.boundary_band:
        raise NotRealizable(f"{ctx.lam!r} lies beyond the right segment")
    if left_boundary_form(a, b) < -tol.boundary_band:
        raise NotRealizable(f"{ctx.lam!r} lies beyond the left boundary")

    t_bar = shift_for_angle(ctx, _HALF_PI)
    base = 4.0 * log_modulus_ratio(ctx, _HALF_PI)
    if base >= -1e-15:
        # On the right segment a + b = 1 the barycenter itself is the zero:
        # equal shifts t = 1 - a.
        return (t_bar, t_bar, t_bar, t_bar)

    z = ctx.z

    def path_sum(s: float) -> tuple[float, float, float]:
        # log-moduli from the shifts themselves; the angle form cancels once t_4 << |x|
        t4 = math.exp(s)
        if t4 == 0.0:
            raise NoConvergence(f"required shift underflows for {ctx.lam!r}")
        t123 = shift_for_angle(ctx, (_TWO_PI - angle_for_shift(ctx, t4)) / 3.0)
        value = 3.0 * (math.log(abs(z + t123)) - math.log(t123))
        return value + math.log(abs(z + t4)) - s, t123, t4

    s_neg, neg = math.log(1.0 - a), (base, t_bar, t_bar)  # the barycenter: base < 0
    if ctx.regime is Regime.TIGHT:
        u_end = ctx.peak_arg
        s_pos = math.log(shift_for_angle(ctx, u_end))
        pos = path_sum(s_pos)
        if pos[0] <= 0.0:
            if pos[0] > -1e-12:
                # Target sits on the left curve: the supremum itself is the zero.
                t123 = shift_for_angle(ctx, (_TWO_PI - u_end) / 3.0)
                return (t123, t123, t123, shift_for_angle(ctx, u_end))
            raise NotRealizable(f"criterion maximum {pos[0]} < 0; {ctx.lam!r} is not realizable")
    else:
        # The sum grows without bound as t_4 -> 0: step s down by 1, 2, 4, ...
        # until it turns positive, moving the negative end along.
        step = 1.0
        pos = path_sum(s_neg - step)
        while pos[0] <= 0.0:
            s_neg, neg = s_neg - step, pos
            step *= 2.0
            pos = path_sum(s_neg - step)
        s_pos = s_neg - step

    _, (_, t123, t4) = bracketed_zero(
        path_sum, s_neg, neg, s_pos, pos, 0.01 * tol.eigen_residual, scalar._SEARCH_EVALUATIONS
    )

    if 1.0 - t4 >= 1.0:
        # the shift exists but its matrix weight 1 - t rounds onto the
        # excluded value 1: the target hugs the real axis too closely
        raise NoConvergence(
            f"realizing weight for {ctx.lam!r} collapses onto 1 in floating point"
        )

    shifts = (t123, t123, t123, t4)
    left = 1.0 + 0.0j
    right = 1.0
    for t in shifts:
        left *= ctx.z + t
        right *= t
    if abs(left / right - 1.0) > tol.eigen_residual:
        raise NoConvergence(
            f"path zero at {ctx.lam!r} left relative defect {abs(left / right - 1.0)}"
        )
    return shifts
