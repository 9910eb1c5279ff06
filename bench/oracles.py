"""Reference computations for the benchmark's output checks.

Nothing here imports ``cycle4``: the spectra come from dense matrices handed
to LAPACK (``numpy.linalg.eigvals``) or from the product-form characteristic
polynomial solved by ``mpmath.polyroots`` at 60 digits, and the region test is
the three inequalities of the paper written out again.  ``self_check`` pins
every oracle to closed forms before a workload may use it.
"""

from __future__ import annotations

import itertools

import mpmath
import numpy as np

MP_DIGITS = 60
_PERMUTATIONS = np.array(list(itertools.permutations(range(4))))


def dense(alphas) -> np.ndarray:
    """(n, 4, 4) cycle matrices for an (n, 4) array of self-loop weights."""
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    n = alphas.shape[0]
    m = np.zeros((n, 4, 4))
    for k in range(4):
        m[:, k, k] = alphas[:, k]
        m[:, k, (k + 1) % 4] = 1.0 - alphas[:, k]
    return m


def dense_eigvals(alphas) -> np.ndarray:
    """(n, 4) eigenvalues of the dense matrices, in LAPACK's order."""
    return np.linalg.eigvals(dense(alphas))


def product_form_coeffs(alpha) -> list:
    """Coefficients of prod(lam - a_k) - prod(1 - a_k), highest degree first,
    expanded exactly from the binary values of the weights."""
    with mpmath.workdps(MP_DIGITS):
        weights = [mpmath.mpf(float(a)) for a in alpha]
        coeffs = [mpmath.mpf(1)]
        for a in weights:
            nxt = coeffs + [mpmath.mpf(0)]
            for i, c in enumerate(coeffs):
                nxt[i + 1] -= a * c
            coeffs = nxt
        hop = mpmath.mpf(1)
        for a in weights:
            hop *= 1 - a
        coeffs[-1] -= hop
        return coeffs


def polyroots(coeffs) -> list[complex]:
    with mpmath.workdps(MP_DIGITS):
        roots = mpmath.polyroots(coeffs, maxsteps=800, extraprec=4 * MP_DIGITS)
        return [complex(r) for r in roots]


def product_form_roots(alpha) -> list[complex]:
    """The four eigenvalues to 60 digits, rounded to double."""
    return polyroots(product_form_coeffs(alpha))


def match_distance(got, want) -> np.ndarray:
    """Largest distance under the best one-to-one pairing of each row of
    ``got`` with the same row of ``want`` (both (n, 4) complex)."""
    got = np.atleast_2d(np.asarray(got, dtype=complex))
    want = np.atleast_2d(np.asarray(want, dtype=complex))
    gaps = np.abs(got[:, :, None] - want[:, None, :])
    rows = np.arange(4)
    worst = np.stack([gaps[:, rows, p].max(axis=1) for p in _PERMUTATIONS])
    return worst.min(axis=0)


def left_form(a, b):
    """(b^2 + a^2 + a)^2 + 2a^2 - b^2, nonnegative on the admissible side."""
    s = b * b + a * a + a
    return s * s + 2.0 * a * a - b * b


def in_region(re, im, band: float) -> np.ndarray:
    """Membership in [-1, 1] union {0 <= a < 1, a + |b| <= 1, form >= 0},
    every inequality widened by ``band``."""
    a = np.asarray(re, dtype=float)
    b = np.abs(np.asarray(im, dtype=float))
    real = (b < band) & (np.abs(a) <= 1.0 + band)
    nonreal = (a >= -band) & (a < 1.0 + band) & (a + b <= 1.0 + band) & (left_form(a, b) >= -band)
    return real | nonreal


def strictly_inside(re, im, margin: float) -> np.ndarray:
    """Nonreal points at least ``margin`` inside every constraint."""
    a = np.asarray(re, dtype=float)
    b = np.abs(np.asarray(im, dtype=float))
    return (b >= margin) & (a >= margin) & (1.0 - a - b >= margin) & (left_form(a, b) >= margin)


def left_curve_point(anchor: float) -> complex:
    """Upper root of lam^4 - alpha lam^3 + alpha - 1 of largest imaginary
    part, to 60 digits, rounded to double."""
    roots = polyroots([1, -anchor, 0, 0, anchor - 1])
    return max(roots, key=lambda r: r.imag)


class OracleError(RuntimeError):
    """An oracle disagrees with a closed form."""


def _require(ok, message: str) -> None:
    if not ok:
        raise OracleError(message)


def self_check() -> None:
    """Raise OracleError unless every oracle reproduces closed forms."""
    for x in (0.05, 0.3, 0.5, 0.9):
        w = 1.0 - x
        want = np.array([[1.0, 1.0 - 2.0 * x, complex(1.0 - x, x), complex(1.0 - x, -x)]])
        for got in (dense_eigvals([w] * 4), np.array([product_form_roots([w] * 4)])):
            err = float(match_distance(got, want)[0])
            _require(err < 1e-10, f"equal-weight spectrum off by {err} at x={x}")
    for anchor in (0.0, 0.25, 0.6, 0.95):
        want = np.array([polyroots([1, -anchor, 0, 0, anchor - 1])])
        for got in (dense_eigvals([anchor, 0, 0, 0]), np.array([product_form_roots([anchor, 0, 0, 0])])):
            err = float(match_distance(got, want)[0])
            _require(err < 1e-10, f"anchor spectrum off by {err} at alpha={anchor}")
    for x_target in (1e-5, 1e-7, 1e-9):
        # a cluster of four roots within 2x of 1, as near the real axis;
        # x is exact because w lies within a factor 2 of 1
        w = 1.0 - x_target
        x = 1.0 - w
        want = np.array([[1.0, 1.0 - 2.0 * x, complex(1.0 - x, x), complex(1.0 - x, -x)]])
        err = float(match_distance(np.array([product_form_roots([w] * 4)]), want)[0])
        _require(err < 1e-6 * x, f"clustered equal-weight spectrum off by {err} at x={x}")
    inside = [(0.5, 0.0), (-1.0, 0.0), (0.2, 0.3), (0.5, 0.5), (0.0, 1.0), (0.1, -0.2)]
    outside = [(1.5, 0.0), (-0.1, 0.1), (0.5, 0.6), (0.01, 0.5), (1.0, 1e-3)]
    _require(in_region(*np.array(inside).T, 1e-9).all(), "region oracle rejects an inside point")
    _require(not in_region(*np.array(outside).T, 1e-9).any(), "region oracle accepts an outside point")
    curve = left_curve_point(0.5)
    _require(abs(left_form(curve.real, curve.imag)) < 1e-14, "left-curve point misses the form")
    _require(abs(left_curve_point(0.0) - 1j) < 1e-15, "anchor 0 misses i")
