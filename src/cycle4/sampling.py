"""Reproducible Monte Carlo sampling of the matrix family.

Parameters come from a Philox counter-based generator keyed by the seed, so
row i consumes a fixed counter range: the tuple at (seed, i) is independent
of the batch size.  A batch may start at any row, since a generator
advanced by i counter steps yields row i onward, so ``cycle4 sample`` draws,
solves, classifies and writes one block of rows at a time, in memory that
does not grow with the number of rows.

Spectra for large batches come from ``bulk_spectra``, which runs the
spectrum kernel of ``matrix`` on whole arrays; it uses only IEEE-754
``+ - * /`` and ``sqrt``, so each row's eigenvalues equal those of
``matrix.spectrum`` bit for bit, and depend only on the row's parameters.

Eigenvalues are classified by ``classify_points``, which evaluates the
region rule of ``region._rules`` on whole arrays; the codes it returns are
positions in ``region.Status``.
"""

from __future__ import annotations

import numpy as np

from . import matrix
from .region import _BAND, _RULE_STATUS, Status, _check_band, _rules, left_boundary_form

_RULE_CODES = [np.int8(tuple(Status).index(status)) for status in _RULE_STATUS]
_OUTSIDE_CODE = np.int8(tuple(Status).index(Status.OUTSIDE))


def sample_parameters(n: int, seed: int, start: int = 0) -> np.ndarray:
    """(n, 4) array of parameter tuples, i.i.d. uniform on [0, 1): rows
    start .. start + n - 1 of the seed's sequence.

    Row i is fully determined by (seed, i): a batch equals the same rows of
    any longer batch, whatever its start.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    if start < 0:
        raise ValueError(f"need start >= 0, got {start}")
    bit_generator = np.random.Philox(key=seed)
    bit_generator.advance(start)  # one counter step draws one row's 4 x 64 bits
    return np.random.Generator(bit_generator).random((n, 4))


def bulk_spectra(alphas: np.ndarray) -> np.ndarray:
    """(n, 4) eigenvalues for each parameter row, sorted by (re, im).

    Row i is ``matrix.spectrum(row i)`` bit for bit, without its residual
    guard, and snaps at the same ``matrix._SNAP``; a row freezes once its
    own iterates settle.  Raises ValueError unless the parameters form an
    (n, 4) array in [0, 1).
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 2 or alphas.shape[1] != 4:
        raise ValueError(f"expected (n, 4) parameters, got {alphas.shape}")
    if not ((alphas >= 0.0) & (alphas < 1.0)).all():  # NaN fails both
        raise ValueError("parameters outside [0, 1)")
    a = np.ascontiguousarray(alphas.T)
    hop = (1.0 - a[0]) * (1.0 - a[1]) * (1.0 - a[2]) * (1.0 - a[3])
    z = np.empty((6, hop.size))
    with np.errstate(all="ignore"):
        live = np.vstack((*matrix._seeds(*a, hop, a.min(axis=0), np.sqrt), *a, hop))
        unspread = live[1] == 0.0
        idx = _settle(live, np.arange(hop.size), z)
        # as in ``matrix.spectrum``, rows unsettled from unspread seeds run
        # again from spread ones
        idx = idx[unspread[idx]]
        if idx.size:
            a, hop = a[:, idx], hop[idx]
            _settle(np.vstack((*matrix._seeds(*a, hop, a.min(axis=0), np.sqrt, True), *a, hop)), idx, z)
    return _close_rows(z[0::2], z[1::2])


def _settle(live: np.ndarray, idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Aberth steps on the live rows (iterates x0, y0, x1, y1, x2, y2, the
    parameters, hop) of result rows ``idx``: each row's iterates go to its
    column of ``z`` once they settle, or after the step cap.  Returns the
    rows that did not settle."""
    for _ in range(matrix._ABERTH_STEPS):
        *steps, ok0, ok1, ok2, done = matrix._step(*live)
        # a root whose step is not finite stays where it is, unsettled
        for coord, step, ok in zip(live, steps, (ok0, ok0, ok1, ok1, ok2, ok2)):
            np.subtract(coord, step, out=coord, where=ok)
        if done.any():
            z[:, idx[done]] = live[:6, done]
            idx, live = idx[~done], live[:, ~done]
            if idx.size == 0:
                break
    z[:, idx] = live[:6]
    return idx


def _close_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, 4) rows ``{1, r, w, conj(w)}`` or four reals, sorted by (re, im),
    from the (3, n) iterates ``x + i y``, with ``matrix.spectrum``'s roots:
    the root of least |Im| (the first such) is the real root of the cubic
    factor; the other two are symmetrised into an exact conjugate pair, or
    both snapped onto the real axis when the pair lies within ``matrix._SNAP``.
    """
    k = np.abs(y)
    order = np.argsort(k, axis=0, kind="stable")
    real, u, v = np.take_along_axis(x, order, axis=0)
    _, ku, kv = np.take_along_axis(k, order, axis=0)
    pair_im = 0.5 * (ku + kv)
    snap = pair_im <= matrix._SNAP
    out = np.zeros((x.shape[1], 4), dtype=complex)
    out[:, 0], out[:, 1] = 1.0, real
    out[:, 2:].real = np.where(snap, (u, v), 0.5 * (u + v)).T
    out[:, 2:].imag = np.where(snap, 0.0, (-pair_im, pair_im)).T
    return np.sort(out, axis=1)


def classify_points(re: np.ndarray, im: np.ndarray, band: float) -> np.ndarray:
    """Region verdict codes by ``region._rules``, the rule ``membership``
    applies to one point; a code is the verdict's position in ``Status``.

    NaN and infinite points are ``Outside``.  The region grows with the
    band: a point ``Outside`` at one band is ``Outside`` at every smaller one.
    Raises ValueError for a band ``membership`` refuses.
    """
    _check_band(band)
    a = np.array(re, dtype=float)  # a compact copy: ``.real`` of a complex array is strided
    b = np.abs(np.asarray(im, dtype=float))
    with np.errstate(invalid="ignore", over="ignore"):
        right = 1.0 - a - b
        g = left_boundary_form(a, b)
        rules = _rules(a, b, right, g, band)
    return np.select(rules, _RULE_CODES, _OUTSIDE_CODE)


def sample_records(
    n: int, seed: int, band: float = _BAND, start: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled rows start .. start + n - 1 as arrays: parameters (n, 4),
    eigenvalues (n, 4), verdict codes (n, 4) at ``band``."""
    alphas = sample_parameters(n, seed, start)
    eigenvalues = bulk_spectra(alphas)
    codes = classify_points(eigenvalues.real, eigenvalues.imag, band)
    return alphas, eigenvalues, codes
