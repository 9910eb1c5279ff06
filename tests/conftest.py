"""Shared samplers for the property suites."""

from __future__ import annotations

import math

import mpmath
import numpy as np

from cycle4 import Cycle4Error, Status, left_boundary_form, make_context, membership, realize
from cycle4.criterion import Regime


def sample_inside_nonreal(rng: np.random.Generator, count: int, *,
                          min_b: float = 0.0, max_sum: float = 1.0,
                          min_form: float = 0.0) -> list[complex]:
    """Rejection-sample points classified InsideNonreal, with optional
    margins for numerically delicate checks."""
    out: list[complex] = []
    while len(out) < count:
        a, b = rng.random(2)
        lam = complex(a, b)
        if b < min_b or a + b > max_sum:
            continue
        verdict = membership(lam)
        if verdict.status is Status.INSIDE_NONREAL and verdict.g_check >= min_form:
            out.append(lam)
    return out


def interior_grid() -> list[complex]:
    """The strictly interior points of the 60x60 grid of acceptance criterion 3."""
    grid = (complex(i / 60, (j + 1) / 60) for i in range(60) for j in range(60))
    return [lam for lam in grid if membership(lam).status is Status.INSIDE_NONREAL]


def off_left_curve(lam: complex, form: float) -> complex:
    """``lam`` moved along Im, by Newton steps, until the left boundary form
    reads ``form``."""
    a, b = lam.real, lam.imag
    for _ in range(3):
        slope = 4.0 * b * (b * b + a * a + a) - 2.0 * b  # d/db of the form
        b += (form - left_boundary_form(a, b)) / slope
    return complex(a, b)


def sample_tight(rng: np.random.Generator, count: int) -> list[complex]:
    """Random upper-half points with the tight regime (a in [0,1), b > 0)."""
    out: list[complex] = []
    while len(out) < count:
        a, b = rng.random(2)
        if b == 0.0:
            continue
        ctx = make_context(complex(a, b))
        if ctx.regime is Regime.TIGHT:
            out.append(complex(a, b))
    return out


def weight(z: complex, u: float) -> float:
    """The hop weight t(u) = y cot u - x whose angle Arg(z + t) is u, for
    z = x + iy."""
    return z.imag * math.cos(u) / math.sin(u) - z.real


def log_ratio(z: complex, t: float) -> float:
    """The paper's log-modulus ratio F = log|z + t| - log t of hop weight t."""
    return math.log(abs(z + t)) - math.log(t)


def angle_sum(z: complex, angles) -> float:
    """The criterion sum: the log-modulus ratios of the angles' weights."""
    return math.fsum(log_ratio(z, weight(z, u)) for u in angles)


def sample_feasible_angles(rng: np.random.Generator, ctx, count: int) -> np.ndarray:
    """(count, 4) feasible angle tuples: box [lower, upper)^4 intersected
    with the sum-2*pi hyperplane.

    Draws from the simplex {u_k >= lower, sum u_k = 2*pi} via Dirichlet
    weights and rejects coordinates at or above the open upper bound (only
    possible in the unbounded regime, where the simplex pokes out of the box).
    """
    lower, upper = ctx.lower_arg, ctx.upper_arg
    budget = 2.0 * np.pi - 4.0 * lower
    assert budget >= 0.0
    rows = []
    need = count
    while need > 0:
        w = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=2 * need + 16)
        u = lower + w * budget
        keep = u[(u < upper).all(axis=1)]
        rows.append(keep[:need])
        need -= len(keep[:need])
    return np.vstack(rows)


def oracle_roots(alpha) -> list:
    """The four roots of prod(x - a_k) - prod(1 - a_k) found in 60-digit
    arithmetic, as mpmath complex numbers."""
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(1)]
        for a in map(mpmath.mpf, alpha):
            coeffs = [c - a * prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
        coeffs[-1] -= mpmath.fprod(1 - mpmath.mpf(a) for a in alpha)
        return mpmath.polyroots(coeffs, maxsteps=400, extraprec=400)


def clustered_rows() -> list[tuple[tuple[float, ...], float]]:
    """(alpha, b) pairs: equal and near-equal parameters, and the near-axis
    matrices ``realize`` builds, whose spectra hold a triple cluster."""
    one = 1.0 - 2.0**-53
    rows = [
        ((0.5,) * 4, 0.0),
        ((0.0,) * 4, 0.0),
        ((0.99999, 0.99999, 0.5, 0.5), 0.0),
        # three parameters within 1e-8 of 1: a root pair 2.5e-9 apart
        # sitting 6e-11 from the pinned root
        ((0.01332988124137724, 0.9999999999959326, 0.999999997467337, 0.9999999999456344), 0.0),
        ((one, one, one, 0.5), 0.0),
    ]
    for a in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
        for b in (1e-2, 1e-3, 1e-4, 1e-5, 5e-6, 2e-6):
            try:
                rows.append((realize(complex(a, b)).matrix.alpha, b))
            except Cycle4Error:
                continue
    return rows
