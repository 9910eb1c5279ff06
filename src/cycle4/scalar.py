"""Shared scalar machinery: the tolerance policy and the bracketed root finder.

Both are real-valued; the spectrum kernel lives in ``matrix``.
"""

from __future__ import annotations

import math
from collections import namedtuple

_EPS = 2.220446049250313e-16
# Evaluations the one bracketed search, the interior solve for c = cot(arg mu)
# in ``synthesis``, may make; on the interior grid it makes at most 12 form
# evaluations in all (``TestSearchCost``).
_SEARCH_EVALUATIONS = 800


class Tolerance(namedtuple("Tolerance", "eigen_residual boundary_band")):
    """Numerical policy shared by solvers and classifiers.

    eigen_residual: largest accepted defect in the multiplicative
        eigenvalue identity, i.e. how far ``prod(lam - alpha_k)`` may sit
        from ``prod(1 - alpha_k)`` while ``lam`` still counts as an
        eigenvalue.
    boundary_band: half-width of the band within which a constraint value
        counts as "on the boundary" (also the real-axis snapping band).

    Both must be finite positive numbers; bools are rejected.  Every
    construction path checks this: the constructor, ``_make`` and
    ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, eigen_residual=1e-8, boundary_band=1e-9):
        for name, value in (("eigen_residual", eigen_residual), ("boundary_band", boundary_band)):
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and 0 < value < math.inf
            ):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        return super().__new__(cls, eigen_residual, boundary_band)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


DEFAULT_TOLERANCE = Tolerance()


def bracketed_zero(f, x_neg, r_neg, x_pos, r_pos, stop, max_iter):
    """Zero of ``f`` in a sign-change bracket: false position with the
    Illinois rule (Dowell & Jarratt, BIT 11, 1971), safeguarded by bisection.

    ``f(x)`` returns ``(value, *payload)``; ``r_neg``, ``r_pos`` are its
    results at the ends, with ``r_neg[0] <= 0 < r_pos[0]`` (the ends may
    come in either order).  When one end is replaced twice in a row, the
    other end's value is halved.  A step bisects when the false-position
    point is not strictly inside the bracket, or when the bracket is wider
    than bisection at every other step would leave it, with three halvings
    to spare.  Stops at a |value| <= ``stop``, at adjacent floats, or after
    ``max_iter`` evaluations; returns ``(x, f(x))`` with the smallest
    |value| seen, the ends included.
    """
    v_neg, v_pos = r_neg[0], r_pos[0]
    best, best_abs = (x_neg, r_neg), abs(v_neg)
    if abs(v_pos) < best_abs:
        best, best_abs = (x_pos, r_pos), abs(v_pos)
    last = 0  # +1 / -1: the last step replaced the positive / negative end
    budget = 8.0 * abs(x_pos - x_neg)
    for n in range(max_iter):
        if best_abs <= stop:
            break
        mid = 0.5 * (x_neg + x_pos)
        if mid == x_neg or mid == x_pos:
            break  # the bracket holds adjacent floats
        x = x_neg - v_neg * (x_pos - x_neg) / (v_pos - v_neg)
        inside = x_neg < x < x_pos or x_pos < x < x_neg
        if not inside or abs(x_pos - x_neg) > budget * 0.5 ** (n / 2):
            x = mid
        r = f(x)
        value = r[0]
        if abs(value) < best_abs:
            best, best_abs = (x, r), abs(value)
        if value > 0.0:
            if last > 0:
                v_neg *= 0.5
            x_pos, v_pos, last = x, value, 1
        else:
            if last < 0:
                v_pos *= 0.5
            x_neg, v_neg, last = x, value, -1
    return best
