"""The spectral region of the 4-cycle stochastic matrices.

The region is the union of the real interval [-1, 1] with the nonreal set

    { a + ib : 0 <= a < 1,  a + |b| <= 1,  left_boundary_form(a, |b|) >= 0 }.

Its nonreal boundary has two pieces in the upper half-plane: the straight
right segment ``lam = 1 - x + ix`` (where ``a + b = 1``) and the curved
left branch joining i to 0 (where the quartic form below vanishes).

``_rules`` writes the classification once, for ``membership`` on one point
and ``sampling.classify_points`` on arrays.  Both take the boundary band as
a number, default ``_BAND``, and check it with ``_check_band``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .errors import ArgumentOutOfRange, SpectrumFailure
from .matrix import CycleMatrix4, spectrum

# Half-width of the band within which a constraint value counts as "on the
# boundary": the default of every classifier and constructor.
_BAND = 1e-9


def left_boundary_form(a, b):
    """Implicit form of the curved left boundary: (b^2+a^2+a)^2 + 2a^2 - b^2.

    Nonnegative exactly on the admissible side; even in b.  Accepts floats
    or numpy arrays, and ints or rationals, on which it is exact.  Its int
    constants convert exactly in float products, so float results match
    float constants bit for bit.  ``identities`` proves its algebra on this
    very function.
    """
    s = b * b + a * a + a
    return s * s + 2 * a * a - b * b


def modulus_threshold(a, b):
    """Cubic form 4a^3 - 3a^2 - 4ab^2 + b^2 compared against |lam|^6.

    Linked to the left boundary by the factorisation
    |lam|^6 - modulus_threshold(a, b) = ((a-1)^2 + b^2) * left_boundary_form(a, b).
    Products only, as in ``left_boundary_form``: a float cube that overflows
    gives inf instead of raising OverflowError.
    """
    return 4 * a * a * a - 3 * a * a - 4 * a * b * b + b * b


class Status(str, Enum):  # position = code in sampling.classify_points
    INSIDE_NONREAL = "InsideNonreal"
    INSIDE_REAL_INTERVAL = "InsideRealInterval"
    BOUNDARY_CR = "BoundaryCR"
    BOUNDARY_CL = "BoundaryCL"
    BOUNDARY_REAL_ENDPOINT = "BoundaryRealEndpoint"
    OUTSIDE = "Outside"


class RegionVerdict(namedtuple("RegionVerdict", "status a_check right_check g_check")):
    """Classification of a point plus the constraint values that produced it.

    status is a ``Status``, a_check is the real part itself, right_check is
    1 - a - |b| (nonnegative inside), g_check is the left boundary form at
    (a, |b|).
    """

    __slots__ = ()


def _check_band(band) -> None:
    """Raise ValueError unless ``band`` is a finite positive int or float;
    bools are rejected."""
    if type(band) is float and 0.0 < band < math.inf:  # membership checks on every realize
        return
    if isinstance(band, bool) or not (isinstance(band, (int, float)) and 0 < band < math.inf):
        raise ValueError(f"boundary_band must be finite and strictly positive, got {band!r}")


def _rules(a, b, right, g, band):
    """Region conditions in order of precedence, one per ``_RULE_STATUS``
    entry: a point takes the status of the first that holds, else Outside.

    b = |Im lam|, right = 1 - a - b, g = left form.  Comparisons, ``abs``
    and ``&`` only, so floats and numpy arrays evaluate alike; every rule
    is positive, so NaN fails all.  Near i the right segment comes first.
    """
    real = b < band
    strip = (a >= 0.0) & (a < 1.0)
    open_right = strip & (right > band)
    return (
        real & (abs(abs(a) - 1.0) <= band),
        real & (abs(a) < 1.0),
        real,
        strip & (abs(right) <= band) & (g >= -band),
        open_right & (abs(g) <= band),
        open_right & (g > band),
    )


_RULE_STATUS = (Status.BOUNDARY_REAL_ENDPOINT, Status.INSIDE_REAL_INTERVAL, Status.OUTSIDE,
                Status.BOUNDARY_CR, Status.BOUNDARY_CL, Status.INSIDE_NONREAL)


def membership(lam: complex, band: float = _BAND) -> RegionVerdict:
    """Classify ``lam`` against the spectral region.

    Deterministic in ``lam`` and ``band``; invariant under conjugation.
    Real points (|Im| below the band) are judged against [-1, 1]; nonreal
    points against the three region constraints, with the band applied to
    the constraint values (see ``_rules``).  Raises ValueError for a
    non-finite ``lam`` and for a band ``_check_band`` refuses.
    """
    _check_band(band)
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValueError(f"non-finite point {lam!r}")
    a = lam.real
    b = abs(lam.imag)
    right = 1.0 - a - b
    g = left_boundary_form(a, b)
    if g != g:  # s*s - b*b = inf - inf: b*b overflowed, so the form is above the float range
        g = math.inf
    hit = _rules(a, b, right, g, band)
    status = _RULE_STATUS[hit.index(True)] if True in hit else Status.OUTSIDE
    return RegionVerdict(status, a, right, g)


class TracePoint(namedtuple("TracePoint", "curve param point boundary_form")):
    """One sampled boundary point: curve tag, curve parameter, location,
    and the left boundary form at the location."""

    __slots__ = ()


def trace_right_segment(n: int) -> list[TracePoint]:
    """n points of the right boundary segment lam = 1 - x + ix, x in [0, 1],
    endpoints included.  Raises ArgumentOutOfRange unless n is an integer
    of at least 2."""
    if not (hasattr(n, "__index__") and n >= 2):  # an int, numpy's included
        raise ArgumentOutOfRange(f"need an integer count of at least 2 points, got {n!r}")
    points = []
    for j in range(n):
        x = j / (n - 1)
        lam = complex(1.0 - x, x)
        points.append(TracePoint("CR", x, lam, left_boundary_form(lam.real, abs(lam.imag))))
    return points


def left_branch_root(anchor_alpha: float) -> complex:
    """Unique upper-half-plane nonreal eigenvalue of the left boundary
    matrix with self-loop weight ``anchor_alpha``.

    lam^4 - alpha lam^3 + alpha - 1 is the characteristic polynomial of the
    anchor matrix (alpha, 0, 0, 0).  Its spectrum holds at most one root
    with positive Im (the rest are real, ``spectrum``'s snapped ones among
    them, or conjugates); this returns the root of greatest Im and raises
    SpectrumFailure if its Im is not positive or if a root misses
    ``matrix._GUARD``.  ``CycleMatrix4`` checks the weight: a bool, a
    non-number or a value outside [0, 1) raises ArgumentOutOfRange naming
    parameter 1.
    """
    root = max(spectrum(CycleMatrix4((anchor_alpha, 0.0, 0.0, 0.0))), key=lambda r: r.imag)
    if root.imag <= 0.0:
        raise SpectrumFailure(f"no upper-half-plane root at alpha={anchor_alpha}")
    return root


def trace_left_curve(n: int) -> list[TracePoint]:
    """n points of the curved left boundary, parametrised by the anchor
    weight alpha on a uniform grid over [0, 1 - 1/n].

    Every returned point satisfies |left_boundary_form| < 1e-9 and has real
    part in [0, 1/6] up to 1e-9; violations, and roots that miss
    ``matrix._GUARD``, raise SpectrumFailure.
    Raises ArgumentOutOfRange unless n is an integer of at least 2.
    """
    if not (hasattr(n, "__index__") and n >= 2):
        raise ArgumentOutOfRange(f"need an integer count of at least 2 points, got {n!r}")
    top = 1.0 - 1.0 / n
    points = []
    for j in range(n):
        alpha = top * j / (n - 1)
        lam = left_branch_root(alpha)
        g = left_boundary_form(lam.real, lam.imag)
        if abs(g) >= 1e-9:
            raise SpectrumFailure(f"traced point {lam!r} misses the curve: form={g}")
        if not -1e-9 <= lam.real <= 1.0 / 6.0 + 1e-9:
            raise SpectrumFailure(f"traced point {lam!r} outside the left strip")
        points.append(TracePoint("CL", alpha, lam, g))
    return points
