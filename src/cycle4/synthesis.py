"""Constructive realization of region points as eigenvalues.

Both routes run one pipeline: membership picks the construction, a lower
half-plane target takes its conjugate's matrix, and one eigen-defect check
certifies the result.  Boundary matrices are the anchor A = (alpha, 0, 0, 0)
shrunk to (1-l) I + l A, spectrum (1-l) + l*spec(A): the plain cycle for
the real interval and right segment, the curve's own anchor for the left
curve.  Interior targets get the ray's hit on the left curve shrunk back in
``realize`` and the criterion solver's path zero in ``realize_via_criterion``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from . import criterion, scalar
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


def ray_to_left_boundary(lam: complex) -> tuple[complex, float]:
    """Hit point of the ray from 1 through ``lam`` on the left curve.

    Returns (mu, s) with mu = 1 + s * (lam - 1), s >= 1, and
    |left_boundary_form(mu)| < 1e-12, found by false position
    (``scalar.bracketed_zero``, capped at ``_SEARCH_EVALUATIONS``).  The
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

    s, (form, mu) = bracketed_zero(form_at, s_hi, hi, 1.0, (g, lam), 1e-12, scalar._SEARCH_EVALUATIONS)
    if abs(form) >= 1e-12:
        raise BracketFailure(f"search stalled at {mu!r} for {lam!r}")
    return mu, s


def _shrunk_anchor(alpha: float, l: float) -> CycleMatrix4:
    # (1-l) I + l A for the anchor A = (alpha, 0, 0, 0), parameter-wise:
    # (1-l) + l*0.0 is 1-l bit for bit
    w = 1.0 - l
    return CycleMatrix4((w + l * alpha, w, w, w))


def _ray_and_shrink(lam: complex, tol: Tolerance):
    mu, s = ray_to_left_boundary(lam)
    alpha, l = alpha_for_left_point(mu), 1.0 / s
    try:
        return _shrunk_anchor(alpha, l), Method.INTERIOR_SHRINK, mu, l
    except ParameterOutOfRange as err:
        # a shrunk weight (1 - l) + l*alpha rounds onto the excluded 1
        raise AlphaOutOfRange(f"shrunk weight for {lam!r} collapses onto 1") from err


def _criterion_path_zero(lam: complex, tol: Tolerance):
    shifts = criterion.solve_criterion(criterion.make_context(lam), tol)
    return make_cycle_matrix(*(1.0 - t for t in shifts)), Method.CRITERION_SOLVER, None, None


def _realize(lam: complex, tol: Tolerance, interior) -> Realization:
    """The pipeline of both routes; ``interior`` maps a strictly interior
    upper-half-plane target to (matrix, method, mu, l)."""
    lam = complex(lam)
    status = membership(lam, tol).status
    if status is Status.OUTSIDE:
        raise OutsideRegion(f"{lam!r} is outside the spectral region")
    work = lam if lam.imag >= 0.0 else lam.conjugate()  # the matrix is real
    mu = l = None
    if status is Status.INSIDE_NONREAL:
        matrix, method, mu, l = interior(work, tol)
    elif status is Status.BOUNDARY_CL:
        mu, method = work, Method.BOUNDARY_CL
        matrix = _shrunk_anchor(alpha_for_left_point(work), 1.0)
    elif status is Status.BOUNDARY_CR:
        # inside the band Im may pass 1 (near i): clamp onto the plain cycle
        matrix, method = _shrunk_anchor(0.0, min(work.imag, 1.0)), Method.BOUNDARY_CR
    else:
        # the plain cycle shrunk by x has 1 - 2x = r in its spectrum; at r = 1
        # its weight 1 - x hits the excluded 1, so the plain cycle itself
        # serves, as it does for targets in the band past +-1
        r = min(max(work.real, -1.0), 1.0)
        x = 1.0 if abs(r - 1.0) < 1e-12 else 0.5 * (1.0 - r)
        matrix, method = _shrunk_anchor(0.0, x), Method.REAL_INTERVAL
    residual = eigen_residual(matrix, lam)
    if residual > tol.eigen_residual:
        raise NoConvergence(f"construction for {lam!r} missed the residual contract: {residual}")
    return Realization(matrix, lam, method, mu, l, residual)


def realize(lam: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> Realization:
    """Realizing matrix for any point of the spectral region; interior
    points get the ray hit on the left curve shrunk back onto them.

    Raises OutsideRegion for points outside the region, NoConvergence when
    the matrix misses the ``tol.eigen_residual`` certificate,
    AlphaOutOfRange when a weight rounds onto 1 near the real axis,
    NotOnCurve or BracketFailure when the left-curve point is not found,
    and ValueError for a non-finite target.
    """
    return _realize(lam, tol, _ray_and_shrink)


def realize_via_criterion(lam: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> Realization:
    """``realize`` with the criterion solver's path zero for interior points.

    Both solvers land on the same anchor and shrink factor, so an interior
    matrix is ``realize``'s rotated by one place, up to rounding; boundary
    and real targets get ``realize``'s own matrix.  Raises as ``realize``
    does, but NoConvergence where the interior solver fails (see
    ``criterion.solve_criterion``).
    """
    return _realize(lam, tol, _criterion_path_zero)
