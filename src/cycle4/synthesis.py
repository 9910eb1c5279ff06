"""Constructive realization of region points as eigenvalues.

Both routes run one pipeline: membership picks the construction, a lower
half-plane target takes its conjugate's matrix, and one eigen-defect check
certifies the result.  Boundary matrices are the anchor A = (alpha, 0, 0, 0)
shrunk to (1-l) I + l A, spectrum (1-l) + l*spec(A): the plain cycle for
the real interval and right segment, the curve's own anchor for the left
curve.  Interior targets get the ray's hit on the left curve shrunk back,
found by one solver in c = cot(arg mu) with only + - * /; ``realize`` puts
the anchor first and ``realize_via_criterion`` last, as the criterion does.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from . import scalar
from .errors import (
    AlphaOutOfRange,
    LowerHalfPlane,
    NoConvergence,
    NonrealRequired,
    NotOnCurve,
    OutsideRegion,
    ParameterOutOfRange,
)
from .matrix import CycleMatrix4, eigen_residual
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


def _anchor_hop(mu: complex) -> complex:
    # hop weight tau = 1 - alpha of the anchor (alpha, 0, 0, 0) with mu in
    # its spectrum, mu^3 (1 - mu) / (mu^3 - 1), in products only: a cube
    # that overflows turns into inf/nan instead of raising
    cube = mu * mu * mu
    return cube * (1.0 - mu) / (cube - 1.0)


def alpha_for_left_point(mu: complex) -> float:
    """Anchor weight alpha with mu in the spectrum of the left boundary
    matrix (alpha, 0, 0, 0).

    Inverts the characteristic equation: alpha = 1 - tau with the anchor hop
    tau = mu^3 (1 - mu) / (mu^3 - 1), which is real exactly when mu sits on
    the left curve.  Raises NotOnCurve when the imaginary part betrays an
    off-curve input, and AlphaOutOfRange when alpha leaves [0, 1).
    """
    mu = complex(mu)
    if mu.imag == 0.0:
        raise NonrealRequired(f"{mu!r} is real")
    if mu.imag < 0.0:
        raise LowerHalfPlane(f"{mu!r} lies in the lower half-plane")
    tau = _anchor_hop(mu)
    if abs(tau.imag) >= 1e-8:
        raise NotOnCurve(f"{mu!r} is off the left curve: Im(alpha) = {-tau.imag}")
    alpha = 1.0 - tau.real
    if -1e-9 <= alpha < 0.0:
        alpha = 0.0
    if not 0.0 <= alpha < 1.0:
        raise AlphaOutOfRange(f"recovered weight {alpha!r} outside [0, 1)")
    return alpha


def _left_hit(lam: complex) -> tuple[complex, float, float]:
    """The ray from 1 through a strictly interior ``lam`` meets the left
    curve at mu with lam = (1 - l) + l mu; returns (mu, l, tau), tau the
    anchor hop of mu.

    With z = lam - 1 = x + iy, put z + l = y (c + i): then c = cot(arg mu),
    l = y c - x is a sum of positive terms and mu = y (c + i) / l cancels
    nothing.  False
    position (``scalar.bracketed_zero``, capped at ``_SEARCH_EVALUATIONS``)
    solves the relative form F(c) = left_boundary_form(mu) / |mu|^2 = 0 on
    [0, min(a/b, 0.6)], a sign-change bracket without a search.  In polar
    form mu = r e^(i theta), left_boundary_form = r^2 ((r + cos theta)^2 +
    3 cos^2 theta - 1), so:
      - F(0) = r^2 - 1 < 0, as mu = iy/(1 - a) and a + b < 1;
      - F > 0 wherever theta <= pi/3, since then cos theta >= 1/2; that
        covers every c >= 1/sqrt(3), c = 0.6 among them;
      - at c = a/b, l = 1 and mu = lam, where F > 0 as lam is interior.
    """
    x, y = lam.real - 1.0, lam.imag

    def form_at(c: float) -> tuple[float, float, float, float]:
        l = y * c - x
        mr, mi = y * c / l, y / l
        return left_boundary_form(mr, mi) / (mr * mr + mi * mi), l, mr, mi

    hi = min(lam.real / y, 0.6)
    _, (_, l, mr, mi) = bracketed_zero(
        form_at, 0.0, form_at(0.0), hi, form_at(hi), 1e-12, scalar._SEARCH_EVALUATIONS
    )
    mu = complex(mr, mi)
    return mu, l, _anchor_hop(mu).real


def _shrunk_anchor(alpha: float, l: float) -> CycleMatrix4:
    # (1-l) I + l A for the anchor A = (alpha, 0, 0, 0), parameter-wise:
    # (1-l) + l*0.0 is 1-l bit for bit
    w = 1.0 - l
    return CycleMatrix4((w + l * alpha, w, w, w))


def _realize(lam: complex, tol: Tolerance, interior: Method) -> Realization:
    """The pipeline of both routes; ``interior`` names the route's
    construction for strictly interior targets."""
    lam = complex(lam)
    status = membership(lam, tol).status
    if status is Status.OUTSIDE:
        raise OutsideRegion(f"{lam!r} is outside the spectral region")
    work = lam if lam.imag >= 0.0 else lam.conjugate()  # the matrix is real
    mu = l = None
    if status is Status.INSIDE_NONREAL:
        # (1-l) I + l A with the anchor hop tau: weights 1 - l*tau and 1 - l;
        # the criterion route puts the anchor last, mu and l unreported
        mu, l, tau = _left_hit(work)
        w, method = 1.0 - l, interior
        alpha = (1.0 - l * tau, w, w, w)
        if method is Method.CRITERION_SOLVER:
            alpha, mu, l = alpha[1:] + alpha[:1], None, None
        try:
            matrix = CycleMatrix4(alpha)
        except ParameterOutOfRange as err:
            # near the real axis a shrunk weight rounds onto the excluded 1
            raise AlphaOutOfRange(f"shrunk weight for {lam!r} collapses onto 1") from err
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
    NotOnCurve when a left-curve target inside a wide boundary band sits
    too far off the curve, and ValueError for a non-finite target.
    """
    return _realize(lam, tol, Method.INTERIOR_SHRINK)


def realize_via_criterion(lam: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> Realization:
    """``realize`` with the criterion's weights for interior points.

    The shrunk anchor (1 - l tau, 1 - l, 1 - l, 1 - l) solves the paper's
    criterion: the angles arg(z + t_k) of its hop weights t_k sum to 2 pi and
    zero the sum of log-modulus ratios.  This route returns that matrix
    rotated by one place, (1 - l, 1 - l, 1 - l, 1 - l tau), the weights on
    the criterion's path u_123 = (2 pi - u_4)/3; boundary and real targets
    get ``realize``'s own matrix.  Raises as ``realize`` does.
    """
    return _realize(lam, tol, Method.CRITERION_SOLVER)
