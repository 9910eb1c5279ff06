"""Constructive realization of region points as eigenvalues.

Both routes run one pipeline: membership picks the construction, a lower
half-plane target takes its conjugate's matrix, and one eigen-defect check
at ``matrix._GUARD`` certifies the result.  Each matrix shrinks an anchor A
with hop weights (tau, 1, 1, 1) to (1-l) I + l A: the plain cycle (tau = 1)
for the real interval and right segment, the left curve's own anchor for its
points, and for interior targets the anchor at the ray's hit on the left
curve, found by Newton's method in c = cot(arg mu).  ``realize`` puts the
anchor first and ``realize_via_criterion`` last, as the criterion does.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import inf, sqrt

from . import matrix as _matrix
from .errors import AlphaOutOfRange, NoConvergence, OutsideRegion
from .matrix import CycleMatrix4, eigen_residual
from .region import _BAND, Status, membership


class Method(str, Enum):
    REAL_INTERVAL = "RealInterval"
    BOUNDARY_CR = "BoundaryCR"
    BOUNDARY_CL = "BoundaryCL"
    INTERIOR_SHRINK = "InteriorShrink"
    CRITERION_SOLVER = "CriterionSolver"


# bound once: each enum class lookup costs about 150 ns on 3.10/3.11, 20 ns on 3.12
_OUTSIDE, _INSIDE_NONREAL = Status.OUTSIDE, Status.INSIDE_NONREAL
_ON_CL, _ON_CR = Status.BOUNDARY_CL, Status.BOUNDARY_CR
_REAL_INTERVAL, _BOUNDARY_CL, _BOUNDARY_CR = Method.REAL_INTERVAL, Method.BOUNDARY_CL, Method.BOUNDARY_CR
_INTERIOR_SHRINK, _CRITERION_SOLVER = Method.INTERIOR_SHRINK, Method.CRITERION_SOLVER


class Realization(namedtuple("Realization", "matrix method mu shrink_l residual")):
    """A realizing matrix plus the provenance of its construction: the
    ``Method``, the left-curve point ``mu`` and the shrink factor
    ``shrink_l`` where the method uses them (else None), and the
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
    # its spectrum, mu^3 (1 - mu) / (mu^3 - 1)
    cube = mu * mu * mu
    return cube * (1.0 - mu) / (cube - 1.0)


def _quartic(x, y):
    """(q4, q3, q2, q0) with left_boundary_form(y c/l, y/l) l^4 = y^2 Q(c),
    Q(c) = q4 c^4 + q3 c^3 + q2 c^2 + q0, for l = y c - x; exact on symbols."""
    return 6 * y * y, -8 * x * y, 3 * (x * x + y * y), (y - x) * (y + x)


def _left_hit(lam: complex) -> tuple[complex, float, float, int]:
    """The ray from 1 through a strictly interior ``lam`` meets the left
    curve at mu with lam = (1 - l) + l mu; returns (mu, l, tau, n), tau the
    anchor hop of mu and n the number of evaluations of Q.

    With z = lam - 1 = x + iy, put z + l = y (c + i): then c = cot(arg mu),
    l = y c - x is a sum of positive terms and mu = y (c + i) / l cancels
    nothing.  On the ray the left form is y^2 Q(c) / l^4 (``_quartic``), and
    inside the region x < 0 < y < -x, so only q0 = y^2 - x^2 is negative:
    Q rises and is convex on c > 0.  Newton's method from c = sqrt(-q0/q2),
    where Q = q4 c^4 + q3 c^3 > 0, falls monotonically onto its one positive
    root, and Q - c Q' = -18 y^2 c^4 + 16 x y c^3 - 3 (x^2 + y^2) c^2 + q0 < 0
    keeps every iterate positive.  It runs while c falls and Q(c) > 0: a
    strictly falling float sequence stops, so there is no tolerance and no
    cap, and Q(0) = q0 <= 0 stops it before a division by a zero slope.
    Q and, where a step follows, Q' are evaluated nested, in the loop.
    """
    x, y = lam.real - 1.0, lam.imag
    q4, q3, q2, q0 = _quartic(x, y)
    c, step, evaluations = inf, sqrt(-q0 / q2), 0
    while step < c:
        c = step
        evaluations += 1
        value = ((q4 * c + q3) * c + q2) * c * c + q0
        step = c - value / (((4 * q4 * c + 3 * q3) * c + 2 * q2) * c) if value > 0.0 else c
    l = y * c - x
    mu = complex(y * c / l, y / l)
    return mu, l, _anchor_hop(mu).real, evaluations


def _shrunk_alpha(l: float, tau: float) -> tuple[float, float, float, float]:
    # (1-l) I + l A for the anchor A = (1 - tau, 0, 0, 0): hop weights
    # (l tau, l, l, l), stored as alpha = 1 - hop
    w = 1.0 - l
    return (1.0 - l * tau, w, w, w)


def _realize(lam: complex, band: float, interior: Method) -> Realization:
    """The pipeline of both routes; ``interior`` names the route's
    construction for strictly interior targets."""
    lam = complex(lam)
    status = membership(lam, band).status
    if status is _OUTSIDE:
        raise OutsideRegion(f"{lam!r} is outside the spectral region")
    work = lam if lam.imag >= 0.0 else lam.conjugate()  # the matrix is real
    mu = None
    if status is _INSIDE_NONREAL:
        mu, l, tau, _ = _left_hit(work)
        method = interior
    elif status is _ON_CL:
        mu, l, tau, method = work, 1.0, min(_anchor_hop(work).real, 1.0), _BOUNDARY_CL
    elif status is _ON_CR:
        # inside the band Im may pass 1 (near i): clamp onto the plain cycle
        l, tau, method = min(work.imag, 1.0), 1.0, _BOUNDARY_CR
    else:
        # the plain cycle shrunk by l has 1 - 2l = r in its spectrum; from
        # r = 1 - 2^-53 on its weight 1 - l rounds onto the excluded 1, so the
        # plain cycle itself serves, as it does for targets in the band past +-1
        r = min(max(work.real, -1.0), 1.0)
        l = 0.5 * (1.0 - r) if r < 1.0 - 2.0**-53 else 1.0
        tau, method = 1.0, _REAL_INTERVAL
    alpha = _shrunk_alpha(l, tau)
    # near the real axis tau ~ b^3, so the anchor's weight 1 - l tau rounds
    # onto the excluded 1.  Both distinct weights are floats: this is
    # CycleMatrix4's own range test, so the constructor below cannot raise
    if not (0.0 <= alpha[0] < 1.0 and 0.0 <= alpha[1] < 1.0):
        raise AlphaOutOfRange(f"shrunk weight for {lam!r} collapses onto 1")
    if method is _CRITERION_SOLVER:
        # the criterion puts the anchor last, mu unreported
        alpha, mu = alpha[1:] + alpha[:1], None
    matrix = CycleMatrix4(alpha)
    residual = eigen_residual(matrix, lam)
    if residual > _matrix._GUARD:  # ``spectrum``'s bound, read per call so one patch moves both
        raise NoConvergence(f"construction for {lam!r} missed the residual contract: {residual}")
    shrink_l = l if method is _INTERIOR_SHRINK else None
    return Realization(matrix, method, mu, shrink_l, residual)


def realize(lam: complex, band: float = _BAND) -> Realization:
    """Realizing matrix for any point of the spectral region; interior
    points get the ray hit on the left curve shrunk back onto them.

    ``band`` is the boundary band of the membership verdict only.  Raises
    OutsideRegion for points outside the region, NoConvergence when the
    matrix's eigen-defect at ``lam`` exceeds ``matrix._GUARD``,
    AlphaOutOfRange when a weight rounds onto 1 near the real axis, and
    ValueError for a non-finite target or a band ``membership`` refuses.
    """
    return _realize(lam, band, _INTERIOR_SHRINK)


def realize_via_criterion(lam: complex, band: float = _BAND) -> Realization:
    """``realize`` with the criterion's weights for interior points.

    The shrunk anchor (1 - l tau, 1 - l, 1 - l, 1 - l) solves the paper's
    criterion: the angles arg(z + t_k) of its hop weights t_k sum to 2 pi and
    zero the sum of log-modulus ratios.  This route returns that matrix
    rotated by one place, (1 - l, 1 - l, 1 - l, 1 - l tau), the weights on
    the criterion's path u_123 = (2 pi - u_4)/3; boundary and real targets
    get ``realize``'s own matrix.  Raises as ``realize`` does.
    """
    return _realize(lam, band, _CRITERION_SOLVER)
