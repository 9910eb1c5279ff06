"""Shared scalar machinery: tolerance policy, principal arguments, and a
deterministic quartic root finder.

All complex values are plain Python ``complex``.  The root finder is a
simultaneous-iteration (Weierstrass / Durand-Kerner) scheme with fixed
initial guesses, so identical inputs always produce bitwise-identical
output.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateLeadingCoefficient, ZeroArgument

_EPS = 2.220446049250313e-16

# Initial phases on the start circle.  Deliberately unevenly spaced, with
# no pair differing by pi or pi/2: evenly spaced starts can lock the
# simultaneous iteration into the rotational symmetry of polynomials like
# x^4 + x^2 and stall far from the roots.  The second set is the
# deterministic restart used when the first stalls.
_START_PHASES = (0.40, 2.05, 3.85, 5.40)
_RETRY_PHASES = (1.30, 2.95, 4.75, 6.30)


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy shared by solvers and classifiers.

    eigen_residual: largest accepted defect in the multiplicative
        eigenvalue identity, i.e. how far ``prod(lam - alpha_k)`` may sit
        from ``prod(1 - alpha_k)`` while ``lam`` still counts as an
        eigenvalue.
    boundary_band: half-width of the band within which a constraint value
        counts as "on the boundary" (also the real-axis snapping band).
    max_iter: iteration cap for the root finder and the ray bisection.
    """

    eigen_residual: float = 1e-8
    boundary_band: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        for name in ("eigen_residual", "boundary_band"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")


DEFAULT_TOLERANCE = Tolerance()


def _require_finite(w: complex) -> complex:
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"non-finite complex value {w!r}")
    return w


def principal_arg(w: complex) -> float:
    """Argument of ``w`` on the principal branch (-pi, pi].

    Upper half-plane points map into (0, pi); negative reals map to +pi,
    including values carrying a negative-zero imaginary part.
    """
    w = _require_finite(complex(w))
    if w == 0:
        raise ZeroArgument("argument of zero is undefined")
    im = 0.0 if w.imag == 0.0 else w.imag  # normalise -0.0 so arg(-1) = +pi
    theta = math.atan2(im, w.real)
    if theta == 0.0 and im > 0.0:
        return math.ulp(0.0)  # im / re underflowed; the angle is still positive
    return theta


def _horner4(r: complex, a3: float, a2: float, a1: float, a0: float) -> complex:
    return (((r + a3) * r + a2) * r + a1) * r + a0


def _dhorner4(r: complex, a3: float, a2: float, a1: float) -> complex:
    return ((4.0 * r + 3.0 * a3) * r + 2.0 * a2) * r + a1


def _pair_conjugates(roots: list[complex], band: float) -> list[complex]:
    """Snap near-real roots and enforce exact conjugate pairing.

    Real coefficients force a conjugation-closed root set; the iteration
    delivers that only approximately.  Each upper root is symmetrised with
    the nearest unmatched lower root (nearest in the conjugate sense:
    eps-level real-part noise makes positional matching unreliable).  If
    the up/down counts disagree (possible for badly clustered multiple
    roots) the roots are returned as computed.
    """
    real = [complex(r.real, 0.0) for r in roots if abs(r.imag) <= band]
    upper = sorted((r for r in roots if r.imag > band), key=lambda r: (r.real, r.imag))
    lower = [r for r in roots if r.imag < -band]
    if len(upper) != len(lower):
        return [complex(r.real, 0.0) if abs(r.imag) <= band else r for r in roots]
    out = real
    for up in upper:
        nearest = min(range(len(lower)), key=lambda k: abs(up.conjugate() - lower[k]))
        lo = lower.pop(nearest)
        re = 0.5 * (up.real + lo.real)
        im = 0.5 * (up.imag - lo.imag)
        out += [complex(re, im), complex(re, -im)]
    return out


def solve_quartic(
    c4: float,
    c3: float,
    c2: float,
    c1: float,
    c0: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> tuple[complex, complex, complex, complex]:
    """All four roots of ``c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0`` with
    multiplicity, sorted lexicographically by (re, im).

    Roots whose imaginary part is within ``tol.boundary_band`` of zero are
    snapped onto the real axis, and the remaining roots are exactly
    conjugate-paired, so real coefficients always yield a conjugation-closed
    set.  The whole procedure is deterministic: the same coefficients give
    bitwise-identical output.
    """
    coeffs = [float(c) for c in (c4, c3, c2, c1, c0)]
    if not all(math.isfinite(c) for c in coeffs):
        raise ValueError("non-finite coefficient")
    if coeffs[0] == 0.0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")

    a3, a2, a1, a0 = (c / coeffs[0] for c in coeffs[1:])
    radius = 1.0 + max(abs(a3), abs(a2), abs(a1), abs(a0))

    def noise_bound(r: complex) -> float:
        # evaluation-noise scale of the monic quartic at r
        m = abs(r)
        return (((m + abs(a3)) * m + abs(a2)) * m + abs(a1)) * m + abs(a0)

    def run(phases: tuple[float, ...]) -> tuple[list[complex], float]:
        roots = [radius * cmath.exp(1j * phase) for phase in phases]
        step_tol = 8.0 * _EPS * radius
        for _ in range(tol.max_iter):
            vals = [_horner4(r, a3, a2, a1, a0) for r in roots]
            if all(
                abs(v) <= 64.0 * _EPS * noise_bound(r) for v, r in zip(vals, roots)
            ):
                break
            new_roots = []
            worst_step = 0.0
            for i in range(4):
                den = 1.0 + 0.0j
                for j in range(4):
                    if j != i:
                        den *= roots[i] - roots[j]
                if den == 0:
                    den = complex(_EPS)  # coincident iterates; nudge, don't divide by 0
                step = vals[i] / den
                new_roots.append(roots[i] - step)
                worst_step = max(worst_step, abs(step))
            roots = new_roots
            if worst_step <= step_tol:
                break
        # One Newton pass sharpens simple roots; skipped where p' underflows.
        polished = []
        for r in roots:
            der = _dhorner4(r, a3, a2, a1)
            if abs(der) > 1e-300:
                r = r - _horner4(r, a3, a2, a1, a0) / der
            polished.append(r)
        worst = max(abs(_horner4(r, a3, a2, a1, a0)) for r in polished)
        return polished, worst

    scale = 1.0 + abs(a3) + abs(a2) + abs(a1) + abs(a0)
    polished, worst = run(_START_PHASES)
    if worst > 1e-9 * scale:
        retry, retry_worst = run(_RETRY_PHASES)
        if retry_worst < worst:
            polished, worst = retry, retry_worst

    paired = _pair_conjugates(polished, tol.boundary_band)
    paired.sort(key=lambda r: (r.real, r.imag))
    return tuple(paired)


def quartic_residual_scale(c4: float, c3: float, c2: float, c1: float, c0: float) -> float:
    """Natural scale against which a root residual |p(r)| is judged."""
    return max(1.0, abs(c4) + abs(c3) + abs(c2) + abs(c1) + abs(c0))
