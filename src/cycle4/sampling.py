"""Reproducible Monte Carlo sampling of the matrix family.

Parameters come from a Philox counter-based generator keyed by the seed, so
row i consumes a fixed counter range: the tuple at (seed, i) is independent
of the batch size, and batches may be evaluated in any order without
changing the output.

Spectra for large batches are computed by a vectorised version of the same
simultaneous root iteration used by the scalar solver; the scalar and bulk
routes agree to solver accuracy and are cross-checked in the test suite.
"""

from __future__ import annotations

import numpy as np

from .region import Status
from .scalar import _EPS, _RETRY_PHASES, _START_PHASES, DEFAULT_TOLERANCE, Tolerance

_STATUS_ORDER = (
    Status.INSIDE_NONREAL,
    Status.INSIDE_REAL_INTERVAL,
    Status.BOUNDARY_CR,
    Status.BOUNDARY_CL,
    Status.BOUNDARY_REAL_ENDPOINT,
    Status.OUTSIDE,
)
_STATUS_CODE = {status: code for code, status in enumerate(_STATUS_ORDER)}


def sample_parameters(n: int, seed: int) -> np.ndarray:
    """(n, 4) array of parameter tuples, i.i.d. uniform on [0, 1).

    Row i is fully determined by (seed, i): prefixes of longer batches
    coincide with shorter batches.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random((n, 4))


def bulk_char_coeffs(alphas: np.ndarray) -> np.ndarray:
    """(n, 5) monic characteristic coefficients for each parameter row."""
    a1, a2, a3, a4 = (alphas[:, k] for k in range(4))
    e1 = a1 + a2 + a3 + a4
    e2 = a1 * a2 + a1 * a3 + a1 * a4 + a2 * a3 + a2 * a4 + a3 * a4
    e3 = a1 * a2 * a3 + a1 * a2 * a4 + a1 * a3 * a4 + a2 * a3 * a4
    e4 = a1 * a2 * a3 * a4
    hop = (1.0 - a1) * (1.0 - a2) * (1.0 - a3) * (1.0 - a4)
    ones = np.ones_like(e1)
    return np.stack([ones, -e1, e2, -e3, e4 - hop], axis=1)


def bulk_quartic_roots(coeffs: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """(n, 4) complex roots of each quartic row, sorted by (re, im).

    Same iteration as the scalar solver (fixed start circle, simultaneous
    updates, one Newton pass, real-axis snapping) run over the whole batch,
    with converged rows frozen so stubborn clusters do not stall the rest.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != 5:
        raise ValueError(f"expected (n, 5) coefficients, got {coeffs.shape}")
    if np.any(coeffs[:, 0] == 0.0):
        raise ValueError("vanishing leading coefficient in batch")
    monic = coeffs[:, 1:] / coeffs[:, :1]
    n = monic.shape[0]

    radius = 1.0 + np.abs(monic).max(axis=1)
    step_tol = 8.0 * _EPS * radius
    scale = 1.0 + np.abs(monic).sum(axis=1)

    def poly_at(r: np.ndarray, m: np.ndarray) -> np.ndarray:
        return (((r + m[:, 0:1]) * r + m[:, 1:2]) * r + m[:, 2:3]) * r + m[:, 3:4]

    def noise_bound(r: np.ndarray, m: np.ndarray) -> np.ndarray:
        # evaluation-noise scale of each monic quartic at each root iterate
        am = np.abs(m)
        mr = np.abs(r)
        return (((mr + am[:, 0:1]) * mr + am[:, 1:2]) * mr + am[:, 2:3]) * mr + am[:, 3:4]

    def run(rows: np.ndarray, phases: tuple[float, ...]) -> np.ndarray:
        roots = radius[rows, None] * np.exp(1j * np.asarray(phases))[None, :]
        active = np.arange(len(rows))
        for _ in range(tol.max_iter):
            r = roots[active]
            m = monic[rows[active]]
            vals = poly_at(r, m)
            diff = r[:, :, None] - r[:, None, :]
            diff[:, np.arange(4), np.arange(4)] = 1.0
            den = diff.prod(axis=2)
            den[den == 0] = _EPS
            step = vals / den
            roots[active] = r - step
            step_size = np.abs(step).max(axis=1)
            at_floor = (np.abs(vals) <= 64.0 * _EPS * noise_bound(r, m)).all(axis=1)
            done = (step_size <= step_tol[rows[active]]) | at_floor
            active = active[~done]
            if active.size == 0:
                break
        # One Newton pass on the whole subset.
        m = monic[rows]
        der = ((4.0 * roots + 3.0 * m[:, 0:1]) * roots + 2.0 * m[:, 1:2]) * roots + m[:, 2:3]
        vals = poly_at(roots, m)
        safe = np.abs(der) > 1e-300
        return np.where(safe, roots - vals / np.where(safe, der, 1.0), roots)

    all_rows = np.arange(n)
    roots = run(all_rows, _START_PHASES)
    worst = np.abs(poly_at(roots, monic)).max(axis=1)
    stuck = np.nonzero(worst > 1e-9 * scale)[0]
    if stuck.size:
        retry = run(stuck, _RETRY_PHASES)
        better = np.abs(poly_at(retry, monic[stuck])).max(axis=1) < worst[stuck]
        roots[stuck[better]] = retry[better]

    snap = np.abs(roots.imag) <= tol.boundary_band
    roots = np.where(snap, roots.real + 0.0j, roots)
    return np.sort(roots, axis=1)


def bulk_spectra(alphas: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """(n, 4) eigenvalues for each parameter row, sorted by (re, im)."""
    return bulk_quartic_roots(bulk_char_coeffs(np.asarray(alphas, dtype=float)), tol)


def bulk_residuals(alphas: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Multiplicative-identity defect of each claimed eigenvalue."""
    alphas = np.asarray(alphas, dtype=float)
    lam = np.asarray(eigenvalues)
    left = np.ones_like(lam)
    right = np.ones(alphas.shape[0])
    for k in range(4):
        left = left * (lam - alphas[:, k : k + 1])
        right = right * (1.0 - alphas[:, k])
    return np.abs(left - right[:, None])


def classify_points(re: np.ndarray, im: np.ndarray, band: float) -> np.ndarray:
    """Vectorised region verdict codes; mirrors ``region.membership``.

    Codes index ``status_order()``; the scalar and vector classifiers are
    cross-checked in the test suite.
    """
    a = np.asarray(re, dtype=float)
    b = np.abs(np.asarray(im, dtype=float))
    right = 1.0 - a - b
    s = b * b + a * a + a
    g = s * s + 2.0 * a * a - b * b

    codes = np.full(a.shape, _STATUS_CODE[Status.INSIDE_NONREAL], dtype=np.int8)
    codes[np.abs(right) <= band] = _STATUS_CODE[Status.BOUNDARY_CR]
    on_left = (np.abs(g) <= band) & (np.abs(right) > band)
    codes[on_left] = _STATUS_CODE[Status.BOUNDARY_CL]
    outside = (a < 0.0) | (a >= 1.0) | (right < -band) | (g < -band)
    codes[outside] = _STATUS_CODE[Status.OUTSIDE]

    real = b < band
    real_inside = real & (np.abs(a) < 1.0)
    real_endpoint = real & (np.abs(np.abs(a) - 1.0) <= band)
    codes[real & ~real_inside] = _STATUS_CODE[Status.OUTSIDE]
    codes[real_inside] = _STATUS_CODE[Status.INSIDE_REAL_INTERVAL]
    codes[real_endpoint] = _STATUS_CODE[Status.BOUNDARY_REAL_ENDPOINT]
    return codes


def status_order() -> tuple[Status, ...]:
    return _STATUS_ORDER


def sample_records(
    n: int, seed: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled batch as arrays: parameters (n, 4), eigenvalues (n, 4),
    verdict codes (n, 4)."""
    alphas = sample_parameters(n, seed)
    eigenvalues = bulk_spectra(alphas, tol)
    codes = classify_points(eigenvalues.real, eigenvalues.imag, tol.boundary_band)
    return alphas, eigenvalues, codes
