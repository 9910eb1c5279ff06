"""The 4-cycle row-stochastic matrix family and its spectrum kernel.

A matrix in the family is a directed 4-cycle with self-loop weights
``alpha_1 .. alpha_4`` in [0, 1):

    [a1  1-a1   0    0 ]
    [ 0   a2  1-a2   0 ]
    [ 0    0   a3  1-a3]
    [1-a4  0    0   a4 ]

Its characteristic polynomial has the multiplicative form

    p(lam) = prod(lam - alpha_k) - prod(1 - alpha_k),

so 1 is always a root.  ``spectrum`` pins that root exactly; the other
three are roots of the cubic factor ``p(lam) / (lam - 1)``, seeded by
``_seeds`` and refined by ``_step``, Aberth's simultaneous iteration (Math.
Comp. 27, 1973) with ``p`` and ``p'`` evaluated in the product form above.
The seeds come from the hop weights ``t_k = 1 - alpha_k``, whose
symmetric sums cancel nothing, and are spread apart only where the pair's
real/complex split is in doubt; so most spectra away from clustered roots
settle in one step, which reaches full accuracy and confirms it, and the
rest in two.  The kernel works on (re, im) float pairs with only
``+ - * /``, ``abs``, comparisons and the caller's ``sqrt``, all correctly
rounded under IEEE 754, so ``sampling.bulk_spectra`` runs ``_seeds`` and
``_step`` on numpy arrays and gets the same bits.  p is real, so where
the seeds are a real iterate and an exact conjugate pair (a pair clearly
complex) ``spectrum`` steps them by ``_pair_step``: the pair's second
correction is the first's conjugate, and the real iterate's terms in its
zero imaginary part only add or multiply zeros, so dropping both changes
no bit; the finish then takes them as the real root and the pair, with no
search for the least |Im|.  A pair between the real root and 1, as every
nonreal spectrum probed has it, returns in the sort's order with no sort;
only four reals, and ties or NaN, are sorted.  Unspread seeds on the wrong
side of the split never settle, and a run from them that reaches the step
cap starts again from spread ones.  The kernel's margins are its own
constants; the boundary band of the region's verdicts is ``region``'s.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ArgumentOutOfRange, SpectrumFailure


# Where the real/complex split of the pair is in doubt, each seed moves by
# ``_SEED_SPREAD[k] * s`` along 1 + i, where s, at least ``_SEED_FLOOR``,
# measures the spread of the roots.  p is real, so a conjugation-symmetric
# set of iterates stays symmetric and real iterates stay real: a triple
# cluster seeded real would collapse onto one point, and a real pair seeded
# as a complex pair would never split.  Different multiples break both
# symmetries.  At 1e-6 * s a spread seed takes one step to full accuracy
# and a second to confirm it; at 1e-5 * s most interior-grid matrices need
# three steps.  Near a triple cluster the iteration shrinks the seeds'
# asymmetry as it closes in; once that falls below the rounding of the real
# parts, a real pair never separates and the iterates wander.  The floor
# keeps every spread seed at least 1e-8 off, and puts every pair closer
# than about 2e-6 in doubt: on parameters 1 - u^16, u uniform, a floor of
# 1e-8 leaves rows unsettled after 50 steps, 1e-2 none.
_SEED_SPREAD, _SEED_FLOOR = (1e-6, 2e-6, -3e-6), 1e-2
# The split is in doubt when |disc| < _SPLIT_DOUBT * s^2, and a seed of a
# real pair is spread too when its square distance to r or to the pinned
# root 1 is below that margin: a seed on a neighbouring root stalls the
# step (without the test against 1, 5 of 10^5 rows 1 - u^16 reach the step
# cap).  The discriminant is rounded by a few eps, 1e-12 of s^2 at the
# floor, and moves by (r - c) times the error of r, which six Newton steps
# leave large where the roots cluster far inside hop^(1/4); seeds on the
# wrong side then restart.  Rows restarted of 10^5 at 1e-16, 1e-14, 1e-12
# to 1e-8, and 1e-4 up: parameters drawn from {0, 1/2, 1 - 2^-53} and two
# per-row values, 1384, 21, 0, 0; drawn from {0, 1 - 2^-53, 10^-U(1, 9),
# 1 - 10^-U(1, 15), U(0, 1)}, 1330, 172, 163, 0; uniform and 1 - u^16
# rows, none.  Mean steps at 1e-3 and at 1e-8, restarts included: uniform
# 1.373 and 1.368, 1 - u^16 3.153 and 2.708, the two pools 4.586 and
# 4.562, 5.900 and 6.139.  At 1e-8 targets down to 1e-6 above the real
# axis (|disc| / s^2 about 3e-8) take ``_pair_step``.
_SPLIT_DOUBT = 1e-8
_NEWTON_STEPS = 6  # for the real seed; with 5, a few grid matrices need a third Aberth step
# Aberth step cap of a run in ``spectrum`` and ``sampling.bulk_spectra``:
# constructions settle in at most 2 steps, most in 1; random rows in at most
# 3, targets near the real axis in 5, and (1 - 2^-53, 1 - 2^-53, 1 - 2^-53,
# 1/2) in 21.
_ABERTH_STEPS = 200
# An iterate has settled when its step is at most 4 ulp of it, or when |p|
# is at the rounding-noise floor of the product form, 16 eps (|prod| + hop)
# = 32 eps hop to first order; both tests compare squares.
_EPS = 2.220446049250313e-16
_NEAR2, _NOISE2 = (4.0 * _EPS) ** 2, (32.0 * _EPS) ** 2
# ``spectrum`` and ``sampling.bulk_spectra`` take a pair whose imaginary part
# is at most this as two real roots.  It is the kernel's own, not the
# caller's boundary band: a band of 0.3 would snap the pair 0.5 +- 0.2236i
# of (0.3, 0.7, 0.1, 0.9) onto 0.5, which is no eigenvalue.
_SNAP = 1e-9
# The one eigen-defect bound: ``spectrum`` guards its roots and ``realize``
# certifies its constructions at it.  It belongs to the matrix, not to a
# caller: a tighter bound could only refuse correct roots at the rounding floor.
_GUARD = 1e-8


def _seeds(a1, a2, a3, a4, hop, low, sqrt, spread=False):
    """Starting iterates ``x0, y0, x1, y1, x2, y2`` for the three roots of
    ``p(lam) / (lam - 1)``, from ``hop = prod(1 - alpha_k)``, the least
    parameter ``low`` and the backend's ``sqrt``; spread whatever the doubt
    where ``spread`` holds."""
    # Left of ``low``, p is convex and decreasing with one root; at
    # low - hop^(1/4) every factor is at least hop^(1/4), so p >= 0 there
    # and Newton's steps rise monotonically toward the root.
    r = low - sqrt(sqrt(hop))
    for _ in range(_NEWTON_STEPS):
        u1, u2 = r - a1, r - a2
        u3, u4 = r - a3, r - a4
        left, right = u1 * u2, u3 * u4
        r = r - (left * right - hop) / ((u1 + u2) * right + left * (u3 + u4))
    # The other two solve the deflated quadratic in w = lam - 1.  With hop
    # weights t_k = 1 - alpha_k, p = w (w^3 + e1 w^2 + e2 w + e3), where e_k
    # are the elementary symmetric polynomials of the t_k, whose terms are
    # all positive; dividing the cubic by w - rho, rho = r - 1, leaves
    # w^2 + B w + (e2 + rho B) with B = e1 + rho: lam = c +- sqrt(disc),
    # where c = 1 - B/2.
    t1, t2, t3, t4 = 1.0 - a1, 1.0 - a2, 1.0 - a3, 1.0 - a4
    rho = r - 1.0
    half = 0.5 * (t1 + t2 + t3 + t4 + rho)
    c = 1.0 - half
    disc = half * half - (t1 * (t2 + t3 + t4) + t2 * (t3 + t4) + t3 * t4 + (half + half) * rho)
    size = abs(disc)
    gap_re, gap_im = sqrt(0.5 * (size + disc)), sqrt(0.5 * (size - disc))
    s = sqrt((r - c) * (r - c) + size + _SEED_FLOOR * _SEED_FLOOR)
    # spread only where asked or where the split is in doubt: bool
    # arithmetic, so floats and arrays run one path
    margin = _SPLIT_DOUBT * s * s
    to_r, to_one = half + gap_re + rho, half - gap_re  # a real pair's seeds from r and from 1
    s = s * (spread | (size < margin) | (to_r * to_r < margin) | (to_one * to_one < margin))
    s0, s1, s2 = _SEED_SPREAD[0] * s, _SEED_SPREAD[1] * s, _SEED_SPREAD[2] * s
    return r + s0, s0, c - gap_re + s1, s1 - gap_im, c + gap_re + s2, gap_im + s2


def _step(x0, y0, x1, y1, x2, y2, a1, a2, a3, a4, hop):
    """One Aberth step for the iterates ``xk + i yk``: the steps to subtract,
    whether each is finite, and whether all three iterates have settled.
    Coincident iterates (1 among them) raise ZeroDivisionError on floats."""
    dx, dy = x0 - x1, y0 - y1  # 1 / (z0 - z1) = conj(d) / |d|^2, and so on
    n = dx * dx + dy * dy
    r01, i01 = dx / n, -dy / n
    dx, dy = x0 - x2, y0 - y2
    n = dx * dx + dy * dy
    r02, i02 = dx / n, -dy / n
    dx, dy = x1 - x2, y1 - y2
    n = dx * dx + dy * dy
    r12, i12 = dx / n, -dy / n
    noise = _NOISE2 * (hop * hop)
    sx0, sy0, ok0, done0 = _correction(x0, y0, r01 + r02, i01 + i02, a1, a2, a3, a4, hop, noise)
    sx1, sy1, ok1, done1 = _correction(x1, y1, r12 - r01, i12 - i01, a1, a2, a3, a4, hop, noise)
    sx2, sy2, ok2, done2 = _correction(x2, y2, -(r02 + r12), -(i02 + i12), a1, a2, a3, a4, hop, noise)
    return sx0, sy0, sx1, sy1, sx2, sy2, ok0, ok1, ok2, done0 & done1 & done2


def _pair_step(x0, x1, y1, a1, a2, a3, a4, hop):
    """``_step`` on ``x0``, ``x1 + i y1`` and ``x1 - i y1``, bit for bit:
    ``sx0, sx1, sy1, ok0, ok1, done``.  ``r02 = r01``, ``i01 + i02 = +0``,
    the terms dropped from the real correction are zeros (NaN only where the
    step is not finite anyway), and iterate 2's step is the conjugate."""
    dx, dy = x0 - x1, -y1
    n = dx * dx + dy * dy
    r01, i01 = dx / n, -dy / n
    dy = y1 + y1
    n = dy * dy
    r12, i12 = 0.0 / n, -dy / n
    noise = _NOISE2 * (hop * hop)
    u1, u2 = x0 - a1, x0 - a2
    u3, u4 = x0 - a3, x0 - a4
    left, right = u1 * u2, u3 * u4
    cross = left * (u3 + u4) + (u1 + u2) * right
    value = left * right - hop
    w = x0 - 1.0
    den = cross - value * ((r01 + r01) + w / (w * w))
    sx0 = (value * den) / (den * den)
    moved = sx0 * sx0
    ok0 = moved < math.inf
    done0 = ok0 & ((moved <= _NEAR2 * (x0 * x0)) | (value * value <= noise))
    sx1, sy1, ok1, done1 = _correction(x1, y1, r12 - r01, i12 - i01, a1, a2, a3, a4, hop, noise)
    return sx0, sx1, sy1, ok0, ok1, done0 & done1


def _correction(x, y, ox, oy, a1, a2, a3, a4, hop, noise):
    """Aberth's step ``p / (p' - p * others)`` at ``z = x + i y``, where
    ``ox + i oy`` sums ``1 / (z - z_j)`` over the other iterates; the pinned
    root 1 joins them here.  All four factors ``z - alpha_k`` share the
    imaginary part y, so with ``u_k = x - alpha_k`` the first two multiply
    to ``(u1 u2 - y^2) + i y (u1 + u2)``, and likewise the last two."""
    u1, u2 = x - a1, x - a2
    u3, u4 = x - a3, x - a4
    yy = y * y
    s12, s34 = u1 + u2, u3 + u4
    left, right = u1 * u2 - yy, u3 * u4 - yy
    both = s12 * s34
    cross = left * s34 + s12 * right
    value_re, value_im = left * right - yy * both - hop, y * cross
    w = x - 1.0
    n = w * w + yy
    ox, oy = ox + w / n, oy - y / n
    den_re = cross - (yy + yy) * (s12 + s34) - (value_re * ox - value_im * oy)
    den_im = (y + y) * (left + right + both) - (value_re * oy + value_im * ox)
    n = den_re * den_re + den_im * den_im
    sx, sy = (value_re * den_re + value_im * den_im) / n, (value_im * den_re - value_re * den_im) / n
    moved = sx * sx + sy * sy
    finite = moved < math.inf
    return sx, sy, finite, finite & (
        (moved <= _NEAR2 * (x * x + yy)) | (value_re * value_re + value_im * value_im <= noise))


class CycleMatrix4(namedtuple("CycleMatrix4", "alpha")):
    """Validated parameter tuple of a 4-cycle stochastic matrix: ``alpha``
    holds four floats in [0, 1), checked on every construction path."""

    __slots__ = ()

    def __new__(cls, alpha):
        try:
            a1, a2, a3, a4 = alpha
        except (TypeError, ValueError):  # not iterable, or not four values
            try:
                got = f"4 parameters, got {len(alpha)}"
            except TypeError:  # no length, as a 0-d numpy array has none
                got = f"a sequence of 4 parameters, got {alpha!r}"
            raise ArgumentOutOfRange(f"expected {got}") from None
        if (type(a1) is type(a2) is type(a3) is type(a4) is float
                and 0.0 <= a1 < 1.0 and 0.0 <= a2 < 1.0 and 0.0 <= a3 < 1.0 and 0.0 <= a4 < 1.0):
            return tuple.__new__(cls, ((a1, a2, a3, a4),))
        # slow path: convert ints and float subclasses, or name the bad parameter
        for k, value in enumerate((a1, a2, a3, a4), start=1):
            # the range test also rejects NaN and infinities
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and 0.0 <= value < 1.0
            ):
                raise ArgumentOutOfRange(f"parameter {k} = {value!r} is outside [0, 1)")
        return super().__new__(cls, (float(a1), float(a2), float(a3), float(a4)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def eigen_residual(m: CycleMatrix4, lam: complex) -> float:
    """Absolute defect |prod(lam - alpha_k) - prod(1 - alpha_k)|.

    Zero exactly when ``lam`` is an eigenvalue; ``realize`` certifies its
    constructions with it.
    """
    a1, a2, a3, a4 = m.alpha
    lam = complex(lam)
    hop = (1.0 - a1) * (1.0 - a2) * (1.0 - a3) * (1.0 - a4)
    return abs((lam - a1) * (lam - a2) * (lam - a3) * (lam - a4) - hop)


def spectrum(m: CycleMatrix4) -> tuple[complex, complex, complex, complex]:
    """All four eigenvalues, sorted lexicographically by (re, im).

    The set holds the exact root 1 and either three reals or a real root
    and an exact conjugate pair; a pair within ``_SNAP`` of the real axis
    is snapped onto it.  A run takes at most ``_ABERTH_STEPS`` Aberth
    steps; one from unspread seeds that does not settle is followed by one
    from spread seeds.  Raises SpectrumFailure if any root has an
    eigen-defect above ``_GUARD``, or if two iterates coincide.
    """
    a1, a2, a3, a4 = m.alpha
    hop = (1.0 - a1) * (1.0 - a2) * (1.0 - a3) * (1.0 - a4)
    low = min(a1, a2, a3, a4)
    try:
        # unspread seeds on the wrong side of the pair's real/complex split
        # keep their symmetry and never settle: such a run ends at the step
        # cap, and a second starts from spread seeds
        for spread in (False, True):
            x0, y0, x1, y1, x2, y2 = _seeds(a1, a2, a3, a4, hop, low, math.sqrt, spread)
            unspread = y0 == 0.0
            if unspread and x1 == x2 and y2 == -y1:
                # a real seed and a conjugate pair stay so under ``_step``:
                # step them as such (a pair with y1 == 0 coincides on either path)
                for _ in range(_ABERTH_STEPS):
                    sx0, sx1, sy1, ok0, ok1, done = _pair_step(x0, x1, y1, a1, a2, a3, a4, hop)
                    if ok0:
                        x0 = x0 - sx0
                    if ok1:
                        x1, y1 = x1 - sx1, y1 - sy1
                    if done:
                        break
                else:
                    continue  # unsettled: the pair may be real
                # the selection below would give this: k0 = 0 <= k1 = k2, and
                # 0.5 (x + x) = x, since a finite step keeps iterates far from overflow
                real, u, v, pair_re, pair_im = x0, x1, x1, x1, abs(y1)
                break
            for _ in range(_ABERTH_STEPS):
                sx0, sy0, sx1, sy1, sx2, sy2, ok0, ok1, ok2, done = _step(
                    x0, y0, x1, y1, x2, y2, a1, a2, a3, a4, hop)
                # a root whose step is not finite stays where it is, unsettled
                if ok0:
                    x0, y0 = x0 - sx0, y0 - sy0
                if ok1:
                    x1, y1 = x1 - sx1, y1 - sy1
                if ok2:
                    x2, y2 = x2 - sx2, y2 - sy2
                if done:
                    break
            else:
                if unspread:
                    continue  # unsettled: the pair may be complex
            # The root of least |Im| (the first such, as a stable sort takes
            # it) is the real root; the other two form the pair.
            k0, k1, k2 = abs(y0), abs(y1), abs(y2)
            if k0 <= k1 and k0 <= k2:
                real, u, v, ku, kv = x0, x1, x2, k1, k2
            elif k1 <= k2:
                real, u, v, ku, kv = x1, x0, x2, k0, k2
            else:
                real, u, v, ku, kv = x2, x0, x1, k0, k1
            pair_re, pair_im = 0.5 * (u + v), 0.5 * (ku + kv)
            break
    except ZeroDivisionError:  # coincident iterates, the pinned root 1 among them
        raise SpectrumFailure(f"Aberth iterates of {m.alpha} coincide") from None

    # Defects are checked in the product order of ``eigen_residual``, so bit
    # for bit equal to it: the real root's, then the snapped reals' or the
    # pair's (at 1 it is exactly 0, and a conjugate's equals its partner's,
    # as complex *, - and abs are exact under conjugation).  Floats and
    # complexes keep separate expressions, which the interpreter specialises.
    if abs((real - a1) * (real - a2) * (real - a3) * (real - a4) - hop) > _GUARD:
        raise SpectrumFailure(f"root {complex(real)!r} of {m.alpha} violates the residual contract")
    if pair_im <= _SNAP:
        for r in (u, v):
            if abs((r - a1) * (r - a2) * (r - a3) * (r - a4) - hop) > _GUARD:
                raise SpectrumFailure(f"root {complex(r)!r} of {m.alpha} violates the residual contract")
        roots = [(1.0, 0.0), (real, 0.0), (u, 0.0), (v, 0.0)]
    else:
        z = complex(pair_re, pair_im)
        if abs((z - a1) * (z - a2) * (z - a3) * (z - a4) - hop) > _GUARD:
            raise SpectrumFailure(f"root {z!r} of {m.alpha} violates the residual contract")
        if real < pair_re < 1.0:
            # the sort's order, as -pair_im < 0 < pair_im, and its bits:
            # complex(real) is complex(real, 0.0), and z.conjugate() is
            # complex(pair_re, -pair_im); the rest build the list and sort it
            return complex(real), z.conjugate(), z, 1 + 0j
        roots = [(1.0, 0.0), (real, 0.0), (pair_re, -pair_im), (pair_re, pair_im)]
    roots.sort()  # by (re, im), as the pairs compare
    return (complex(*roots[0]), complex(*roots[1]), complex(*roots[2]), complex(*roots[3]))

