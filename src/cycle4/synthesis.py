"""Constructive realization of region points as eigenvalues.

Real targets use the equal-parameter matrix (1-x)I + xP with P the cyclic
permutation.  Right-segment targets 1 - x + ix use the same matrix.  Left
curve targets use the anchor matrix with weights (alpha, 0, 0, 0).  Strict
interior targets are obtained by following the ray from 1 through the
target until it meets the left curve, realizing the hit point, and pulling
the spectrum back with the affine shrink lam -> (1-l) + l*lam, which the
matrix family supports parameter-wise.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from . import criterion
from .errors import (
    AlphaOutOfRange,
    BracketFailure,
    LowerHalfPlane,
    NoConvergence,
    NonrealRequired,
    NotInterior,
    NotOnCurve,
    OutsideRegion,
    ParameterOutOfRange,
    ShrinkOutOfRange,
)
from .matrix import CycleMatrix4, eigen_residual, make_cycle_matrix
from .region import Status, left_boundary_form, membership
from .scalar import DEFAULT_TOLERANCE, Tolerance, bracketed_zero


class Method(str, Enum):
    REAL_INTERVAL = "RealInterval"
    BOUNDARY_CR = "BoundaryCR"
    BOUNDARY_CL = "BoundaryCL"
    INTERIOR_SHRINK = "InteriorShrink"
    CRITERION_SOLVER = "CriterionSolver"


class Realization(namedtuple("Realization", "matrix lam method mu shrink_l residual")):
    """A realizing matrix plus the provenance of its construction: the
    target, the ``Method``, the left-curve point ``mu`` and the shrink
    factor ``shrink_l`` where the method uses them (else None), and the
    eigen-residual of the target."""

    __slots__ = ()

    def to_dict(self) -> dict:
        data: dict = {
            "alpha": list(self.matrix.alpha),
            "method": self.method.value,
        }
        if self.mu is not None:
            data["mu"] = [self.mu.real, self.mu.imag]
        if self.shrink_l is not None:
            data["l"] = self.shrink_l
        data["residual"] = self.residual
        return data


def alpha_for_left_point(mu: complex) -> float:
    """Anchor weight alpha with mu in the spectrum of the left boundary
    matrix (alpha, 0, 0, 0).

    Inverts the characteristic equation: alpha = (mu^4 - 1) / (mu^3 - 1),
    which is real exactly when mu sits on the left curve.  Raises NotOnCurve
    when the imaginary part betrays an off-curve input.
    """
    mu = complex(mu)
    if mu.imag == 0.0:
        raise NonrealRequired(f"{mu!r} is real")
    if mu.imag < 0.0:
        raise LowerHalfPlane(f"{mu!r} lies in the lower half-plane")
    ratio = (mu**4 - 1.0) / (mu**3 - 1.0)
    if abs(ratio.imag) >= 1e-8:
        raise NotOnCurve(f"{mu!r} is off the left curve: Im(alpha) = {ratio.imag}")
    alpha = ratio.real
    if -1e-9 <= alpha < 0.0:
        alpha = 0.0
    if not 0.0 <= alpha < 1.0:
        raise AlphaOutOfRange(f"recovered weight {alpha!r} outside [0, 1)")
    return alpha


def ray_to_left_boundary(
    lam: complex, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[complex, float]:
    """Hit point of the ray from 1 through ``lam`` on the left curve.

    Returns (mu, s) with mu = 1 + s * (lam - 1), s >= 1, and
    |left_boundary_form(mu)| < 1e-12, found by false position
    (``scalar.bracketed_zero``, at most 4 * tol.max_iter evaluations).  The
    bracket is [1, s0] where s0 is the ray parameter of the imaginary-axis
    crossing: the form is positive at the strictly interior start and
    negative on the axis segment (0, i), so a sign change is guaranteed.
    """
    lam = complex(lam)
    a, b = lam.real, lam.imag
    g = left_boundary_form(a, b)
    if not (b > 0.0 and 0.0 < a < 1.0 and a + b < 1.0 and g > 0.0):
        raise NotInterior(f"{lam!r} is not strictly interior")

    direction = lam - 1.0

    def form_at(s: float) -> tuple[float, complex]:
        mu = 1.0 + s * direction
        return left_boundary_form(mu.real, mu.imag), mu

    s_hi = 1.0 / (1.0 - a)  # real part of the ray hits 0 here
    hi = form_at(s_hi)
    if hi[0] >= 0.0:
        # Rounding at razor-thin gaps; one nudge past the axis, then give up.
        s_hi *= 1.0 + 1e-6
        hi = form_at(s_hi)
        if hi[0] >= 0.0:
            raise BracketFailure(f"no sign change toward the axis for {lam!r}")

    s, (form, mu) = bracketed_zero(form_at, s_hi, hi, 1.0, (g, lam), 1e-12, 4 * tol.max_iter)
    if abs(form) >= 1e-12:
        raise BracketFailure(f"search stalled at {mu!r} for {lam!r}")
    return mu, s


def shrink(m: CycleMatrix4, l: float) -> CycleMatrix4:
    """Parameter-wise affine shrink toward the identity.

    The result equals (1-l) I + l A, so its spectrum is the image of the
    spectrum of ``m`` under lam -> (1-l) + l*lam.
    """
    if isinstance(l, bool) or not (isinstance(l, (int, float)) and 0.0 < l <= 1.0):
        raise ShrinkOutOfRange(f"shrink factor {l!r} outside (0, 1]")
    return make_cycle_matrix(*((1.0 - l) + l * a for a in m.alpha))


def _real_interval_matrix(r: float) -> CycleMatrix4:
    # 1 is in every spectrum of the family; for targets at the right
    # endpoint the formula weight 1 - x would hit the excluded value 1, so
    # the plain cyclic permutation serves instead.  Endpoint targets inside
    # the boundary band but just past +-1 are clamped onto the endpoint, where
    # the plain cycle (spectrum {1, -1, i, -i}) realizes both.
    r = min(max(r, -1.0), 1.0)
    if abs(r - 1.0) < 1e-12:
        return make_cycle_matrix(0.0, 0.0, 0.0, 0.0)
    x = 0.5 * (1.0 - r)
    a = 1.0 - x
    return make_cycle_matrix(a, a, a, a)


_REAL_STATUSES = (Status.INSIDE_REAL_INTERVAL, Status.BOUNDARY_REAL_ENDPOINT)


def realize(lam: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> Realization:
    """Realizing matrix for any point of the spectral region.

    Dispatches on the membership verdict: real interval, right segment,
    left curve, or interior (ray hit plus shrink).  Lower half-plane
    targets are realized through their conjugate; the matrix is real, so it
    serves both.  Raises OutsideRegion for points outside the region, and
    NoConvergence, as ``solve_criterion`` does for its own defect, when the
    construction misses the ``tol.eigen_residual`` contract.
    """
    lam = complex(lam)
    verdict = membership(lam, tol)
    if verdict.status is Status.OUTSIDE:
        raise OutsideRegion(f"{lam!r} is outside the spectral region")

    work = lam if lam.imag >= 0.0 else lam.conjugate()

    if verdict.status in _REAL_STATUSES:
        matrix = _real_interval_matrix(work.real)
        method = Method.REAL_INTERVAL
        mu = None
        l = None
    elif verdict.status is Status.BOUNDARY_CR:
        # inside the band |Im| may pass 1 (near i): clamp onto the plain cycle
        weight = max(1.0 - abs(lam.imag), 0.0)
        matrix = make_cycle_matrix(weight, weight, weight, weight)
        method = Method.BOUNDARY_CR
        mu = None
        l = None
    elif verdict.status is Status.BOUNDARY_CL:
        alpha = alpha_for_left_point(work)
        matrix = make_cycle_matrix(alpha, 0.0, 0.0, 0.0)
        method = Method.BOUNDARY_CL
        mu = work
        l = None
    else:
        mu, s_star = ray_to_left_boundary(work, tol)
        alpha = alpha_for_left_point(mu)
        base = make_cycle_matrix(alpha, 0.0, 0.0, 0.0)
        l = 1.0 / s_star
        try:
            matrix = shrink(base, l)
        except ParameterOutOfRange as err:
            # a shrunk weight (1 - l) + l*alpha rounds onto the excluded 1
            raise AlphaOutOfRange(f"shrunk weight for {lam!r} collapses onto 1") from err
        method = Method.INTERIOR_SHRINK

    residual = eigen_residual(matrix, lam)
    if residual >= tol.eigen_residual:
        raise NoConvergence(f"construction for {lam!r} missed the residual contract: {residual}")
    return Realization(matrix, lam, method, mu, l, residual)


def realize_via_criterion(lam: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> Realization:
    """Realizing matrix obtained from the criterion solver's path zero.

    An independent route to the same spectrum membership as ``realize``;
    the matrices generally differ.  The criterion needs b > 0, and its
    weights round onto 1 as b shrinks, so a target with |b| below the band
    that membership counts as real gets the real-interval matrix, as in
    ``realize``.
    """
    lam = complex(lam)
    work = lam if lam.imag >= 0.0 else lam.conjugate()
    if work.imag < tol.boundary_band and membership(lam, tol).status in _REAL_STATUSES:
        matrix, method = _real_interval_matrix(work.real), Method.REAL_INTERVAL
    else:
        shifts = criterion.solve_criterion(criterion.make_context(work), tol)
        matrix, method = make_cycle_matrix(*(1.0 - t for t in shifts)), Method.CRITERION_SOLVER
    residual = eigen_residual(matrix, lam)
    return Realization(matrix, lam, method, None, None, residual)
