"""Reproducible Monte Carlo sampling of the matrix family.

Parameters come from a Philox counter-based generator keyed by the seed, so
row i consumes a fixed counter range: the tuple at (seed, i) is independent
of the batch size, and batches may be evaluated in any order without
changing the output.

Spectra for large batches come from ``bulk_spectra``, which runs the same
algorithm as ``matrix.spectrum`` on whole arrays: the root 1 is pinned
exactly; the other three are roots of the cubic factor
``p(lam) / (lam - 1)``, seeded at Cardano's closed-form roots moved by the
tiny asymmetric spread of ``matrix`` and refined by Aberth's simultaneous
iteration (Math. Comp. 27, 1973), with ``p`` and ``p'`` evaluated in the
product form ``prod(lam - alpha_k) - prod(1 - alpha_k)``.  Most rows settle
in two steps.  Each row is iterated on its own until it converges, so its
eigenvalues depend only on its own parameters.  The Cardano step and the
iteration are written once per backend, since numpy's complex power and
division differ from CPython's in the last ulp.

Eigenvalues are classified by ``classify_points``, which evaluates the
region rule of ``region._rules`` on whole arrays; the codes it returns are
positions in ``region.Status``.
"""

from __future__ import annotations

import numpy as np

from .matrix import _SEED_FLOOR, _SEED_SPREAD, _cubic_factor
from .region import _RULE_STATUS, Status, _rules, left_boundary_form
from .scalar import _EPS, DEFAULT_TOLERANCE, Tolerance

_RULE_CODES = [np.int8(tuple(Status).index(status)) for status in _RULE_STATUS]
_OUTSIDE_CODE = np.int8(tuple(Status).index(Status.OUTSIDE))

_OMEGA = np.exp(2j * np.pi / 3)  # primitive cube root of unity


def sample_parameters(n: int, seed: int) -> np.ndarray:
    """(n, 4) array of parameter tuples, i.i.d. uniform on [0, 1).

    Row i is fully determined by (seed, i): prefixes of longer batches
    coincide with shorter batches.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random((n, 4))


def _cardano_offsets(c2: np.ndarray, c1: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """(3, n) closed-form roots of ``lam^3 + c2 lam^2 + c1 lam + c0``, as
    offsets from their centroid ``-c2 / 3``."""
    p = c1 - c2 * c2 / 3.0
    q = c0 + c2 * (2.0 * c2 * c2 - 9.0 * c1) / 27.0
    # the larger of Cardano's two cubes, so that u carries no cancellation
    cube = -0.5 * q - np.copysign(1.0, q) * np.sqrt(0.25 * q * q + p * p * p / 27.0 + 0j)
    u = cube ** (1.0 / 3.0)
    v = np.divide(-p / 3.0, u, out=np.zeros_like(u), where=u != 0.0)
    return np.stack([u + v, _OMEGA * u + _OMEGA.conjugate() * v, _OMEGA.conjugate() * u + _OMEGA * v])


def bulk_spectra(alphas: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """(n, 4) eigenvalues for each parameter row, sorted by (re, im).

    Each row holds the exact root 1 and either three reals or a real root
    and an exact conjugate pair; roots within ``tol.boundary_band`` of the
    real axis are snapped onto it.  Rows are refined independently, at most
    ``tol.max_iter`` Aberth steps each.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 2 or alphas.shape[1] != 4:
        raise ValueError(f"expected (n, 4) parameters, got {alphas.shape}")
    a = np.ascontiguousarray(alphas.T)
    hop = (1.0 - a[0]) * (1.0 - a[1]) * (1.0 - a[2]) * (1.0 - a[3])

    c2, c1, c0 = _cubic_factor(*a)
    offsets = _cardano_offsets(c2, c1, c0)
    size = np.sqrt((offsets.real * offsets.real + offsets.imag * offsets.imag).max(axis=0))
    roots = -c2 / 3.0 + offsets + np.array(_SEED_SPREAD)[:, None] * np.maximum(size, _SEED_FLOOR)
    roots = _aberth(roots, a, hop, tol.max_iter)
    return _close_rows(roots, tol.boundary_band)


def _aberth(z: np.ndarray, a: np.ndarray, hop: np.ndarray, max_iter: int) -> np.ndarray:
    """Refine the (3, n) roots of the cubic factor in place.

    Aberth's correction for each root of ``p`` counts the pinned root 1 among
    the others.  A row freezes once every root either moves by less than a
    few ulps or has ``|p|`` at the rounding-noise floor of its product form;
    a root whose step is not finite stays where it is, unsettled.
    """
    idx = np.arange(z.shape[1])
    zs, al, hp = z, a, hop
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            d0, d1, d2, d3 = zs - al[0], zs - al[1], zs - al[2], zs - al[3]
            left, right = d0 * d1, d2 * d3
            prod = left * right
            value = prod - hp
            slope = (d0 + d1) * right + left * (d2 + d3)
            i01 = 1.0 / (zs[0] - zs[1])
            i02 = 1.0 / (zs[0] - zs[2])
            i12 = 1.0 / (zs[1] - zs[2])
            # sum of 1 / (z_i - z_j) over the other roots, 1 included
            others = 1.0 / (zs - 1.0)
            others[0] += i01 + i02
            others[1] += i12 - i01
            others[2] -= i02 + i12
            step = value / (slope - value * others)
            moved = np.abs(step) <= 4.0 * _EPS * np.abs(zs)
            floor = np.abs(value) <= 16.0 * _EPS * (np.abs(prod) + hp)
            ok = np.isfinite(step)
            zs = np.where(ok, zs - step, zs)
            done = ((moved | floor) & ok).all(axis=0)
            if done.any():
                z[:, idx[done]] = zs[:, done]
                keep = ~done
                idx, zs, al, hp = idx[keep], zs[:, keep], al[:, keep], hp[keep]
                if idx.size == 0:
                    break
    z[:, idx] = zs
    return z


def _close_rows(z: np.ndarray, band: float) -> np.ndarray:
    """(n, 4) rows ``{1, r, w, conj(w)}`` or four reals, sorted by (re, im).

    The root with the smallest imaginary part is the real root of the cubic
    factor; the other two are symmetrised into an exact conjugate pair, or
    both snapped onto the real axis when the pair lies within ``band``.
    """
    order = np.argsort(np.abs(z.imag), axis=0, kind="stable")
    real, u, v = np.take_along_axis(z, order, axis=0)
    pair_re = 0.5 * (u.real + v.real)
    pair_im = 0.5 * (np.abs(u.imag) + np.abs(v.imag))
    snap = pair_im <= band
    out = np.zeros((z.shape[1], 4), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1] = real.real
    out[:, 2].real = np.where(snap, u.real, pair_re)
    out[:, 3].real = np.where(snap, v.real, pair_re)
    out[:, 2].imag = np.where(snap, 0.0, -pair_im)
    out[:, 3].imag = np.where(snap, 0.0, pair_im)
    return np.sort(out, axis=1)


def classify_points(re: np.ndarray, im: np.ndarray, band: float) -> np.ndarray:
    """Region verdict codes by ``region._rules``, the rule ``membership``
    applies to one point; a code is the verdict's position in ``Status``.

    NaN and infinite points are ``Outside``.
    """
    a = np.array(re, dtype=float)  # a compact copy: ``.real`` of a complex array is strided
    b = np.abs(np.asarray(im, dtype=float))
    with np.errstate(invalid="ignore", over="ignore"):
        right = 1.0 - a - b
        g = left_boundary_form(a, b)
        return np.select(_rules(a, b, right, g, band), _RULE_CODES, _OUTSIDE_CODE)


def sample_records(
    n: int, seed: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled batch as arrays: parameters (n, 4), eigenvalues (n, 4),
    verdict codes (n, 4)."""
    alphas = sample_parameters(n, seed)
    eigenvalues = bulk_spectra(alphas, tol)
    codes = classify_points(eigenvalues.real, eigenvalues.imag, tol.boundary_band)
    return alphas, eigenvalues, codes
