import hashlib
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from conftest import clustered_rows, oracle_roots
from hypothesis import given, settings, strategies as st

from cycle4 import (
    ArgumentOutOfRange,
    Cycle4Error,
    CycleMatrix4,
    SpectrumFailure,
    Status,
    eigen_residual,
    membership,
    realize,
    realize_via_criterion,
    spectrum,
    trace_left_curve,
)
from cycle4 import matrix, region
from cycle4.sampling import bulk_spectra, classify_points, sample_records


def sorted_close(actual, expected, tol):
    expected = sorted(expected, key=lambda z: (z.real, z.imag))
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert abs(got - want) < tol, (got, want)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def dense(m):
    """The 4x4 matrix of ``m``, entry by entry."""
    a1, a2, a3, a4 = m.alpha
    return [
        [a1, 1.0 - a1, 0.0, 0.0],
        [0.0, a2, 1.0 - a2, 0.0],
        [0.0, 0.0, a3, 1.0 - a3],
        [1.0 - a4, 0.0, 0.0, a4],
    ]


def exact_char_poly(dense):
    """Coefficients of det(lam I - dense), lowest power first, by the
    Leibniz expansion over the 24 permutations in exact rationals."""
    n = len(dense)
    # entry (i, j) of lam I - dense as a polynomial in lam
    entry = [
        [[-Fraction(dense[i][j])] + ([Fraction(1)] if i == j else []) for j in range(n)]
        for i in range(n)
    ]
    total = [Fraction(0)] * (n + 1)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = [Fraction(-1 if inversions % 2 else 1)]
        for i in range(n):
            term = _poly_mul(term, entry[i][perm[i]])
        for k, c in enumerate(term):
            total[k] += c
    return total


class TestTolerance:
    """The boundary band: a plain number, checked by ``region`` wherever a
    verdict is drawn, and no parameter of the spectrum kernel."""

    def test_defaults(self):
        assert region._BAND == 1e-9
        for function in (membership, realize, realize_via_criterion):
            assert function.__defaults__ == (region._BAND,)
        assert sample_records.__defaults__ == (region._BAND, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"band": 0.0},
            {"band": -1e-9},
            {"band": float("nan")},
            {"band": "1e-9"},
            {"band": float("inf")},
            {"band": None},
            {"band": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        # a bad band would draw silent verdicts on these points: at NaN all
        # Outside, at 0 the real 0.5 nonreal, at inf the outside 2.0 on the
        # boundary
        points = np.array([0.5, 0.2, 2.0]), np.array([0.0, 0.3, 0.0])
        for call in (lambda: membership(0.5, **kwargs), lambda: realize(0.2 + 0.3j, **kwargs),
                     lambda: realize_via_criterion(0.2 + 0.3j, **kwargs),
                     lambda: classify_points(*points, **kwargs), lambda: sample_records(1, 42, **kwargs)):
            with pytest.raises(ValueError, match="boundary_band must be finite and strictly positive"):
                call()

    @pytest.mark.parametrize("band", [1, np.float64(1e-9)])
    def test_accepts_positive_ints_and_float_subclasses(self, band):
        code = classify_points(np.array([0.2]), np.array([0.3]), band)[0]
        assert tuple(Status)[code] is membership(0.2 + 0.3j, band).status


class TestConstruction:
    def test_permutation_pattern(self):
        m = CycleMatrix4((0, 0, 0, 0))
        assert dense(m) == [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
        ]

    def test_rows_sum_to_one(self):
        m = CycleMatrix4((0.5, 0.5, 0.5, 0.5))
        for row in dense(m):
            assert sum(row) == 1.0
            assert all(entry >= 0.0 for entry in row)

    def test_rejects_one_with_index(self):
        with pytest.raises(ArgumentOutOfRange) as err:
            CycleMatrix4((0.2, 1.0, 0, 0))
        assert str(err.value) == "parameter 2 = 1.0 is outside [0, 1)"

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan"), float("inf"), float("-inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ArgumentOutOfRange):
            CycleMatrix4((bad, 0.5, 0.5, 0.5))

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("bad", [False, True])
    def test_rejects_bools(self, bad, k):
        alpha = [0.5] * 4
        alpha[k - 1] = bad
        with pytest.raises(ArgumentOutOfRange) as err:
            CycleMatrix4(alpha)
        assert str(err.value) == f"parameter {k} = {bad!r} is outside [0, 1)"

    def test_numeric_types_stored_as_exact_floats(self):
        m = CycleMatrix4((np.float64(0.1), 0, np.float64(0.3), 0.4))
        assert m.alpha == (0.1, 0.0, 0.3, 0.4)
        assert all(type(a) is float for a in m.alpha)
        assert CycleMatrix4((0.1, 0.2, 0.3, 0.4)).alpha == (0.1, 0.2, 0.3, 0.4)

    @pytest.mark.parametrize("k", [1, 3])
    def test_rejects_bool_among_numpy_floats(self, k):
        alpha = [np.float64(0.5)] * 4
        alpha[k - 1] = True
        with pytest.raises(ArgumentOutOfRange) as err:
            CycleMatrix4(alpha)
        assert str(err.value) == f"parameter {k} = True is outside [0, 1)"

    @pytest.mark.parametrize("alpha, message", [
        (None, "expected a sequence of 4 parameters, got None"),
        (0.5, "expected a sequence of 4 parameters, got 0.5"),
        ((0.1, 0.2, 0.3), "expected 4 parameters, got 3"),
        ([0.1] * 5, "expected 4 parameters, got 5"),
        (np.array(0.5), "expected a sequence of 4 parameters, got array(0.5)"),
    ], ids=["none", "scalar", "three", "five", "zero_d"])
    def test_rejects_wrong_count(self, alpha, message):
        with pytest.raises(ArgumentOutOfRange) as err:
            CycleMatrix4(alpha)
        assert str(err.value) == message

    def test_make_and_replace_validate(self):
        with pytest.raises(ArgumentOutOfRange):
            CycleMatrix4._make([(2.0, 0, 0, 0)])
        with pytest.raises(ArgumentOutOfRange):
            CycleMatrix4((0.1, 0.2, 0.3, 0.4))._replace(alpha=(0.5, 1.0, 0.5, 0.5))
        m = CycleMatrix4._make([(0, 0.25, 0.5, 0.75)])
        assert type(m) is CycleMatrix4 and m.alpha == (0.0, 0.25, 0.5, 0.75)
        assert all(type(a) is float for a in m.alpha)


class TestCharPoly:
    def test_exact_oracle_on_known_matrix(self):
        # all alpha = 1/2: det(lam I - D) = (lam - 1/2)^4 - 1/16
        half = Fraction(1, 2)
        assert exact_char_poly(dense(CycleMatrix4((0.5, 0.5, 0.5, 0.5)))) == [0, -half, Fraction(3, 2), -2, 1]

    def test_matches_exact_determinant_expansion(self):
        # the product form the spectrum kernel evaluates is the determinant
        # of lam I - dense, exactly, with the hop weights as the matrix
        # stores them (1.0 - a rounded to double)
        rng = np.random.default_rng(17)
        for _ in range(60):
            m = CycleMatrix4(rng.random(4))
            product = [Fraction(1)]
            hop = Fraction(1)
            for a in m.alpha:
                product = _poly_mul(product, [-Fraction(a), Fraction(1)])
                hop *= Fraction(1.0 - a)
            product[0] -= hop
            assert exact_char_poly(dense(m)) == product


def _coincident_seeds(point):
    """A seed function that puts all three iterates on the real ``point``,
    on either backend, spread or not."""
    return lambda a1, a2, a3, a4, hop, low, sqrt, spread=False: (point + 0.0 * low, 0.0 * low) * 3


class TestSpectrum:
    def test_equal_half_parameters(self):
        roots = spectrum(CycleMatrix4((0.5, 0.5, 0.5, 0.5)))
        sorted_close(roots, [0, 0.5 - 0.5j, 0.5 + 0.5j, 1], 1e-12)

    def test_permutation(self):
        roots = spectrum(CycleMatrix4((0, 0, 0, 0)))
        sorted_close(roots, [-1, -1j, 1j, 1], 1e-14)

    def test_random_instance_certificates(self):
        m = CycleMatrix4((0.3, 0.7, 0.1, 0.9))
        roots = spectrum(m)
        for r in roots:
            assert eigen_residual(m, r) < 1e-8
        for r in roots:
            assert any(s.real == r.real and s.imag == -r.imag for s in roots)

    def test_bulk_invariants_1000(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            m = CycleMatrix4(rng.random(4))
            roots = spectrum(m)
            assert 1.0 in roots
            assert max(abs(r) for r in roots) <= 1.0 + 1e-9
            for r in roots:
                assert any(s.real == r.real and s.imag == -r.imag for s in roots)

    def test_trace_consistency(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            alpha = rng.random(4)
            m = CycleMatrix4(alpha)
            total = sum(spectrum(m))
            assert abs(total.real - alpha.sum()) < 1e-8
            assert abs(total.imag) < 1e-8

    def test_root_zero_is_exact(self):
        # p(0) = 0.5^4 - 0.5^4 exactly, and the seeds find that root
        assert spectrum(CycleMatrix4((0.5, 0.5, 0.5, 0.5)))[0] == 0.0

    def test_coincident_iterates_raise(self, monkeypatch):
        # All three seeds forced onto one point: the roots would stay
        # unrefined there, and their defect (about 1e-12) passes the guard.
        monkeypatch.setattr(matrix, "_seeds", _coincident_seeds(0.999))
        with pytest.raises(SpectrumFailure, match="coincide"):
            spectrum(CycleMatrix4((0.999, 0.999, 0.999, 0.999)))

    def test_non_finite_step_leaves_bulk_row_unsettled(self, monkeypatch):
        # Coincident seeds in the bulk kernel, on the root 0 of the matrix,
        # where |p| = 0 meets the noise test: every step of the row is
        # non-finite, so the row runs to the cap instead of freezing, and,
        # its seeds unspread, to the cap again from the "spread" ones.
        monkeypatch.setattr(matrix, "_seeds", _coincident_seeds(0.0))
        steps = []
        step = matrix._step
        monkeypatch.setattr(matrix, "_step", lambda *z: steps.append(z[0].shape) or step(*z))
        monkeypatch.setattr(matrix, "_ABERTH_STEPS", 7)
        bulk_spectra(np.full((1, 4), 0.5))
        assert steps == [(1,)] * 14

    @pytest.mark.parametrize("steps", [1, 200])
    def test_guard_raises_iff_some_root_misses_the_bound(self, monkeypatch, steps):
        monkeypatch.setattr(matrix, "_ABERTH_STEPS", steps)
        rng = np.random.default_rng(17)
        raised = 0
        for alpha in rng.random((300, 4)):
            m = CycleMatrix4(alpha)
            monkeypatch.setattr(matrix, "_GUARD", 1e300)
            worst = max(eigen_residual(m, r) for r in spectrum(m))
            for bound in (1e-8, 1e-16, 3e-17):
                monkeypatch.setattr(matrix, "_GUARD", bound)
                if worst > bound:
                    raised += 1
                    with pytest.raises(SpectrumFailure):
                        spectrum(m)
                else:
                    spectrum(m)
        assert 30 < raised < 600  # both outcomes occur


@pytest.fixture(scope="module")
def grid_realizations():
    """Both routes' realizations of every interior point of the 60x60 grid."""
    out = []
    for i in range(60):
        for j in range(60):
            lam = complex(i / 60, (j + 1) / 60)
            if membership(lam).status is Status.INSIDE_NONREAL:
                out += [realize(lam), realize_via_criterion(lam)]
    return out


@pytest.fixture(scope="module")
def grid_matrices(grid_realizations):
    return [found.matrix for found in grid_realizations]


def _count_kernels(monkeypatch) -> dict:
    """Counts the calls of ``matrix._step`` and ``matrix._pair_step``."""
    calls = {"_step": 0, "_pair_step": 0}
    for name in calls:
        kernel = getattr(matrix, name)

        def counted(*args, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(matrix, name, counted)
    return calls


def _seed_points(alpha):
    a1, a2, a3, a4 = alpha
    hop = (1.0 - a1) * (1.0 - a2) * (1.0 - a3) * (1.0 - a4)
    x0, y0, x1, y1, x2, y2 = matrix._seeds(a1, a2, a3, a4, hop, min(alpha), math.sqrt)
    return complex(x0, y0), complex(x1, y1), complex(x2, y2)


# (0, 0, x, x) has a double real root at x / 2 for x = 2 sqrt 2 - 2: the
# pair's discriminant is zero there
_DOUBLE = 2.0 * math.sqrt(2.0) - 2.0
_NEAR_DOUBLE = [(0.0, 0.0, x, x) for x in (math.nextafter(_DOUBLE, 0.0), _DOUBLE, math.nextafter(_DOUBLE, 1.0))]
_ONE = 1.0 - 2.0**-53


class TestSeeds:
    def test_no_spread_when_the_split_is_clear(self):
        # a real root and a well-separated complex pair: the seeds are the
        # closed-form ones, exactly real and exactly conjugate
        r, u, v = _seed_points((0.3, 0.7, 0.1, 0.9))
        assert r.imag == 0.0 and u == v.conjugate() and u.imag != 0.0

    @pytest.mark.parametrize("alpha", _NEAR_DOUBLE)
    def test_spread_at_a_near_zero_discriminant(self, alpha):
        # the real/complex split of the pair is in doubt: every seed moves
        # off the real axis
        assert all(z.imag != 0.0 for z in _seed_points(alpha))

    @pytest.mark.parametrize("alpha, tol", [
        *[(alpha, 1e-7) for alpha in _NEAR_DOUBLE],
        # a real pair whose unspread seed rounds onto the pinned root 1
        ((_ONE, 0.21647461030533066, 0.6011272481828078, _ONE), 1e-15),
        *[(alpha, 1e-15) for alpha, _ in clustered_rows()],
    ])
    def test_distinct_seeds_and_oracle_roots(self, alpha, tol):
        # seeds apart from each other and from 1, and roots on the oracle's
        # (a double root to about sqrt(eps))
        assert len({*_seed_points(alpha), 1.0}) == 4
        roots = spectrum(CycleMatrix4(alpha))
        for want in oracle_roots(alpha):
            assert min(abs(complex(want) - got) for got in roots) < tol, alpha


def _pool_rows(n: int, seed: int) -> np.ndarray:
    """(n, 4) rows whose parameters are drawn from {0, 1/2, 1 - 2^-53} and
    two per-row uniform values."""
    rng = np.random.default_rng(seed)
    values = np.column_stack([np.zeros(n), np.full(n, 0.5), np.full(n, _ONE), rng.random((n, 2))])
    return np.take_along_axis(values, rng.integers(0, 5, (n, 4)), axis=1)


def _assert_oracle_roots(alpha, roots, tol=1e-15):
    for want in oracle_roots(alpha):
        assert min(abs(complex(want) - got) for got in roots) < tol, alpha


class TestSplitMargin:
    def test_pool_rows_restart_once(self, monkeypatch):
        # unspread seeds on the wrong side of the pair's split never settle,
        # and the row starts again from spread seeds after the step cap: of
        # these 10^5 rows, 13 do at a margin of 1e-14 and 4,247 at 0; at the
        # default one does, (1 - 2^-53, 0, 1.7e-5, 0), whose roots cluster
        # near 0 (see ``TestRestart``).  Capping a run at 40 steps changes
        # no bit.
        rows = _pool_rows(100_000, 29)
        restarted = []
        seeds = matrix._seeds

        def counted(*args):
            if args[7:] == (True,):
                restarted.extend(np.column_stack(args[:4]).tolist())
            return seeds(*args)

        monkeypatch.setattr(matrix, "_seeds", counted)
        full = bulk_spectra(rows)
        assert restarted == [[_ONE, 0.0, 1.713453326157577e-05, 0.0]]
        monkeypatch.setattr(matrix, "_ABERTH_STEPS", 40)
        assert np.array_equal(bulk_spectra(rows).view(np.uint64), full.view(np.uint64))


# Three roots of each lie within 5e-5 of 0, far inside the Newton start
# hop^(1/4) of 1e-4 or 2e-4: six Newton steps leave the real seed 3e-6 to
# 4e-6 below its root, which flips the sign of the pair's discriminant, so
# a conjugate pair is seeded for a real pair
_TRAPPED_PAIRS = [
    (_ONE, 0.0, 1.713453326157577e-05, 0.0),
    (4.6741792001440835e-05, 3.062856733618976e-05, 0.9999999999999979, 0.0),
    (2.959398136398325e-07, _ONE, 1.118555515060718e-05, 0.0),
]


class TestRestart:
    """A run from unspread seeds that reaches the step cap starts again
    from spread seeds: a conjugate pair seeded for a real pair, or real
    seeds for a complex pair, never leave their symmetry."""

    @pytest.mark.parametrize("alpha", _TRAPPED_PAIRS)
    def test_pair_seeded_for_a_real_pair(self, monkeypatch, alpha):
        z0, z1, z2 = _seed_points(alpha)
        assert z0.imag == 0.0 and z1 == z2.conjugate() and z1.imag != 0.0
        calls = _count_kernels(monkeypatch)
        roots = spectrum(CycleMatrix4(alpha))
        assert calls["_pair_step"] == matrix._ABERTH_STEPS and 0 < calls["_step"] < 40
        assert all(z.imag == 0.0 for z in roots)
        _assert_oracle_roots(alpha, roots)
        assert np.array_equal(bulk_spectra(np.array([alpha])).view(np.uint64), np.array([roots]).view(np.uint64))

    def test_real_seeds_for_a_complex_pair(self, monkeypatch):
        # with no margin, the pair 0.824 +- 4.9e-9 i is seeded as two reals
        alpha = (0.8240017986428428, 0.8240017986428428, 0.0, _ONE)
        monkeypatch.setattr(matrix, "_SPLIT_DOUBT", 0.0)
        assert all(z.imag == 0.0 for z in _seed_points(alpha))
        calls = _count_kernels(monkeypatch)
        roots = spectrum(CycleMatrix4(alpha))
        assert calls["_pair_step"] == 0 and matrix._ABERTH_STEPS < calls["_step"] < matrix._ABERTH_STEPS + 40
        assert roots[1].imag < 0.0 < roots[2].imag
        _assert_oracle_roots(alpha, roots)
        assert np.array_equal(bulk_spectra(np.array([alpha])).view(np.uint64), np.array([roots]).view(np.uint64))


def _bits(values):
    """Each value's bits, sign of zero included: ``float.hex`` of a float,
    the bytes of an array (NaNs made canonical), a flag as itself."""
    out = []
    for v in values:
        if isinstance(v, np.ndarray):
            out.append(np.where(np.isnan(v), np.nan, v).tobytes() if v.dtype.kind == "f" else v.tobytes())
        else:
            out.append(v.hex() if isinstance(v, float) else v)
    return out


def _walk_pair(a1, a2, a3, a4, hop, seeds, move):
    """Steps symmetric seeds by ``_step`` and by ``_pair_step`` side by side,
    as ``spectrum`` moves them, asserting after every step that the steps,
    flags and iterates agree bit for bit."""
    x0, y0, x1, y1, x2, y2 = seeds
    for _ in range(50):
        step = [*matrix._step(x0, y0, x1, y1, x2, y2, a1, a2, a3, a4, hop)]
        pair = [*matrix._pair_step(x0, y0, x1, y1, x2, y2, a1, a2, a3, a4, hop)]
        sx0, sy0, sx1, sy1, sx2, sy2, ok0, ok1, ok2, done = step
        # all ten results agree, so iterate 0's step is real and iterate
        # 2's is iterate 1's conjugate, but for the sign of a zero sy2:
        # ``_step`` gives +0 where -sy1 is -0, and adding +0 makes either +0
        step[5], pair[5] = sy2 + 0.0, pair[5] + 0.0
        if isinstance(sy0, np.ndarray):  # the pair's sy0 is one 0.0 for all rows
            pair[1] = np.full_like(sy0, pair[1])
        assert len(pair) == 10 and _bits(pair) == _bits(step)
        # moved as ``spectrum`` moves them, the iterates stay a real one and a pair
        x0, y0 = move(ok0, x0, sx0), move(ok0, y0, sy0)
        x1, y1 = move(ok1, x1, sx1), move(ok1, y1, sy1)
        x2, y2 = move(ok2, x2, sx2), move(ok2, y2, sy2)
        assert _bits((y0, x2, y2)) == _bits((0.0 * x0 + 0.0, x1, -y1))
        if np.all(done):
            return


def _pair_families():
    """Parameter rows of several kinds, (name, (n, 4) array)."""
    rng = np.random.default_rng(27)
    one_minus = 1.0 - rng.random((3000, 4)) ** 16
    specials = np.array([0.0, 0.5, _ONE, 0.25, 1e-300, 0.999999])
    near_axis = []
    for b in (10.0 ** -k for k in range(2, 10)):
        for i in range(1, 20):
            for build in (realize, realize_via_criterion):
                try:
                    near_axis.append(build(complex(i / 20, b)).matrix.alpha)
                except Cycle4Error:
                    continue
    return [
        ("near_axis", np.array(near_axis)),
        ("uniform", rng.random((2000, 4))),
        ("one_minus_u16", one_minus[(one_minus < 1.0).all(axis=1)]),
        ("specials", specials[rng.integers(0, 6, (1000, 4))]),
        ("anchors", np.array([(0.9975 * j / 399, 0.0, 0.0, 0.0) for j in range(400)])),
        ("clustered", np.array([alpha for alpha, _ in clustered_rows()])),
    ]


class TestPairStep:
    """``_pair_step`` is ``_step`` on a real iterate and a conjugate pair,
    bit for bit, on floats and on arrays."""

    @pytest.fixture(scope="class")
    def families(self, grid_matrices):
        return [("grid", np.array([m.alpha for m in grid_matrices])), *_pair_families()]

    def test_floats(self, families):
        counts = {}
        for name, alphas in families:
            counts[name] = 0
            for row in alphas.tolist():
                hop = (1.0 - row[0]) * (1.0 - row[1]) * (1.0 - row[2]) * (1.0 - row[3])
                seeds = x0, y0, x1, y1, x2, y2 = matrix._seeds(*row, hop, min(row), math.sqrt)
                if y0 == 0.0 and x1 == x2 and y2 == -y1:
                    _walk_pair(*row, hop, seeds, lambda ok, x, s: x - s if ok else x)
                    counts[name] += 1
        assert counts["grid"] == len(families[0][1]) > 2000
        assert min(counts.values()) > 0 and counts["uniform"] > 1500

    def test_arrays(self, families):
        for _, alphas in families:
            a = alphas.T
            hop = (1.0 - a[0]) * (1.0 - a[1]) * (1.0 - a[2]) * (1.0 - a[3])
            x0, y0, x1, y1, x2, y2 = seeds = matrix._seeds(*a, hop, a.min(axis=0), np.sqrt)
            pair = (y0 == 0.0) & (x1 == x2) & (y2 == -y1)
            with np.errstate(all="ignore"):
                _walk_pair(*a[:, pair], hop[pair], [z[pair] for z in seeds],
                           lambda ok, x, s: np.where(ok, x - s, x))

    def test_grid_takes_the_pair_path(self, monkeypatch, grid_matrices):
        calls = _count_kernels(monkeypatch)
        for m in grid_matrices:
            spectrum(m)
        assert calls["_step"] == 0 and calls["_pair_step"] >= len(grid_matrices)

    @pytest.mark.parametrize("b", [1e-4, 1e-5])
    def test_near_axis_constructions_take_the_pair_path(self, monkeypatch, b):
        # a target k/20 + ib puts the pair 2b apart: |disc| / s^2 is about
        # b^2 / 1e-4, below the old margin 1e-3 and above the new 1e-8
        built = [build(complex(k / 20, b)).matrix for k in range(1, 20)
                 for build in (realize, realize_via_criterion)]
        calls = _count_kernels(monkeypatch)
        spectra = [spectrum(m) for m in built]
        assert calls["_step"] == 0 and calls["_pair_step"] >= len(built)
        for m, roots in zip(built, spectra):
            _assert_oracle_roots(m.alpha, roots)

    @pytest.mark.parametrize("alpha", [_NEAR_DOUBLE[1], (0.9, 0.1, 0.9, 0.1)], ids=["spread", "real"])
    def test_other_seeds_take_the_general_path(self, monkeypatch, alpha):
        z0, z1, z2 = _seed_points(alpha)
        # spread seeds fail the pair guard on y0; the real triple passes
        # y2 == -y1 and fails only on x1 == x2
        assert z0.imag != 0.0 or (z2.imag == -z1.imag and z1.real != z2.real)
        calls = _count_kernels(monkeypatch)
        spectrum(CycleMatrix4(alpha))
        assert calls["_pair_step"] == 0 and calls["_step"] > 0

    @pytest.mark.parametrize("y2, path", [(-1e-170, "_pair_step"), (-2e-170, "_step")])
    def test_coincident_symmetric_seeds_raise(self, monkeypatch, y2, path):
        # |z0 - z1|^2 = 1e-340 underflows to 0
        monkeypatch.setattr(matrix, "_seeds", lambda *_: (0.3, 0.0, 0.3, 1e-170, 0.3, y2))
        calls = _count_kernels(monkeypatch)
        with pytest.raises(SpectrumFailure, match="coincide"):
            spectrum(CycleMatrix4((0.5, 0.5, 0.5, 0.5)))
        assert calls == {"_step": 0, "_pair_step": 0, path: 1}

    # (0.3, 0.7, 0.1, 0.9) has the pair 0.5 +- 0.2236i: a snap threshold
    # of 0.3 puts it on 0.5, where the defect is 0.0125
    _SNAPPED = CycleMatrix4((0.3, 0.7, 0.1, 0.9))

    def test_snapped_pair_is_checked_at_its_real_part(self, monkeypatch):
        monkeypatch.setattr(matrix, "_SNAP", 0.3)
        calls = _count_kernels(monkeypatch)
        with pytest.raises(SpectrumFailure, match=r"^root \(0\.5\+0j\) of \(0\.3, 0\.7, 0\.1, 0\.9\) violates"):
            spectrum(self._SNAPPED)
        assert calls["_step"] == 0 and calls["_pair_step"] > 0

    def test_snapped_pair_gives_four_reals(self, monkeypatch):
        monkeypatch.setattr(matrix, "_SNAP", 0.3)
        monkeypatch.setattr(matrix, "_GUARD", 0.1)
        calls = _count_kernels(monkeypatch)
        roots = spectrum(self._SNAPPED)
        assert _bits([p for z in roots for p in (z.real, z.imag)]) == [
            "-0x1.eea5800378aacp-58", "0x0.0p+0", "0x1.0000000000000p-1", "0x0.0p+0",
            "0x1.0000000000000p-1", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"]
        assert calls["_step"] == 0 and calls["_pair_step"] > 0


class TestStepCount:
    """Two Aberth steps settle the spectra of the constructions, and one
    settles most: capping the iteration at two changes no bit of them."""

    def test_scalar_grid(self, monkeypatch, grid_matrices):
        assert len(grid_matrices) > 2000
        uncapped = [spectrum(m) for m in grid_matrices]
        monkeypatch.setattr(matrix, "_ABERTH_STEPS", 2)
        for m, roots in zip(grid_matrices, uncapped):
            assert spectrum(m) == roots, m.alpha

    def test_bulk_grid(self, monkeypatch, grid_matrices):
        alphas = np.array([m.alpha for m in grid_matrices])
        uncapped = bulk_spectra(alphas)
        monkeypatch.setattr(matrix, "_ABERTH_STEPS", 2)
        assert np.array_equal(bulk_spectra(alphas), uncapped)

    def test_most_constructions_settle_in_one_step(self, monkeypatch, grid_matrices):
        # seeds from the hop weights sit within the settle test of most
        # roots, so one step both lands and confirms them
        uncapped = [spectrum(m) for m in grid_matrices]
        alphas = np.array([m.alpha for m in grid_matrices])
        bulk_uncapped = bulk_spectra(alphas)
        monkeypatch.setattr(matrix, "_ABERTH_STEPS", 1)
        scalar = sum(spectrum(m) == roots for m, roots in zip(grid_matrices, uncapped))
        bulk = int((bulk_spectra(alphas) == bulk_uncapped).all(axis=1).sum())
        assert scalar == bulk >= 0.8 * len(grid_matrices)

    def test_left_curve_trace(self, monkeypatch):
        uncapped = trace_left_curve(400)
        monkeypatch.setattr(matrix, "_ABERTH_STEPS", 2)
        assert trace_left_curve(400) == uncapped


class TestSnap:
    """``bulk_spectra`` snaps at the same ``matrix._SNAP`` as ``spectrum``
    and gives its roots, bit for bit."""

    def _assert_bulk_equal(self, rows):
        rows = [tuple(alpha) for alpha in rows]
        scalar = np.array([spectrum(CycleMatrix4(alpha)) for alpha in rows]).view(np.uint64)
        assert np.array_equal(bulk_spectra(np.array(rows)).view(np.uint64), scalar)

    def test_grid_constructions(self, grid_matrices):
        self._assert_bulk_equal(m.alpha for m in grid_matrices)

    def test_random_rows(self):
        self._assert_bulk_equal(np.random.default_rng(2026).random((2000, 4)).tolist())

    def test_clustered_rows(self):
        rows = [alpha for alpha, _ in clustered_rows()]
        assert len(rows) == 38
        self._assert_bulk_equal(rows)


def _sorted_hex(alpha) -> tuple[list, list]:
    """``spectrum``'s roots of ``alpha`` and the same roots sorted by
    (re, im), as ``float.hex`` pairs."""
    roots = spectrum(CycleMatrix4(alpha))
    got = [(z.real.hex(), z.imag.hex()) for z in roots]
    want = [(re.hex(), im.hex()) for re, im in sorted((z.real, z.imag) for z in roots)]
    return got, want


class TestOrder:
    """``spectrum`` returns its roots in the order, and with the bits, that
    sorting their (re, im) pairs gives; its pair path returns them without
    a sort."""

    @settings(max_examples=500, deadline=None)
    @given(st.tuples(*[st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                                 st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53, 1e-300]))] * 4))
    def test_rows(self, alpha):
        try:
            got, want = _sorted_hex(alpha)
        except SpectrumFailure:
            return
        assert got == want

    def test_left_curve_anchors(self):
        # every anchor (alpha, 0, 0, 0) holds a nonreal pair: the pair path
        for alpha in [(point.param, 0.0, 0.0, 0.0) for point in trace_left_curve(400)]:
            got, want = _sorted_hex(alpha)
            assert got == want, alpha
            assert float.fromhex(got[2][1]) > 0.0


class TestEigenResidual:
    def test_cr_point_exact(self):
        m = CycleMatrix4((0.5, 0.5, 0.5, 0.5))
        assert eigen_residual(m, 0.5 + 0.5j) < 1e-12

    def test_permutation_at_i(self):
        assert eigen_residual(CycleMatrix4((0, 0, 0, 0)), 1j) == 0.0

    def test_off_spectrum_value(self):
        m = CycleMatrix4((0.5, 0.5, 0.5, 0.5))
        assert eigen_residual(m, 0.9) == pytest.approx(abs(0.4**4 - 0.5**4), abs=1e-10)


def _digest(floats) -> str:
    """sha256 over ``float.hex`` of each float, in order."""
    h = hashlib.sha256()
    for x in floats:
        h.update(x.hex().encode() + b",")
    return h.hexdigest()


def _root_parts(rows):
    for alpha in rows:
        for r in spectrum(CycleMatrix4(alpha)):
            yield r.real
            yield r.imag


def _text_digest(items) -> str:
    """sha256 over ``float.hex`` of each float and ``repr`` of anything else."""
    h = hashlib.sha256()
    for x in items:
        h.update((x.hex() if isinstance(x, float) else repr(x)).encode() + b",")
    return h.hexdigest()


# the guard bounds that the outcome pin runs at: the default, a bound most
# roots miss and a bound near the rounding floor
_PIN_GUARDS = (1e-8, 1e-30, 1e-17)


def _outcomes(rows, monkeypatch):
    """``spectrum``'s roots, or its error's type and message, with
    ``matrix._GUARD`` at each of the ``_PIN_GUARDS``."""
    for alpha in rows:
        m = CycleMatrix4(alpha)
        for guard in _PIN_GUARDS:
            monkeypatch.setattr(matrix, "_GUARD", guard)
            try:
                for r in spectrum(m):
                    yield r.real
                    yield r.imag
            except Cycle4Error as err:
                yield type(err).__name__, str(err)


class TestBitPin:
    """Outputs pinned bit for bit.  A deliberate numeric change must update
    the digest it moves and say so in CHANGES.md."""

    def test_spectrum_random_rows(self):
        rows = np.random.default_rng(2026).random((2000, 4))
        assert _digest(_root_parts(rows)) == "51693faf3160aab12e913f37753e5d4b1d2a579da77b77479564a04272671f45"

    def test_spectrum_clustered_rows(self):
        rows = [alpha for alpha, _ in clustered_rows()]
        assert _digest(_root_parts(rows)) == "5fd00651107d37ece3282806606e812ef2eb7e18e5d44a40c0d8bbf63e3132f0"

    def test_both_routes_over_grid(self, grid_realizations):
        floats = [x for found in grid_realizations for x in (*found.matrix.alpha, found.residual)]
        assert _digest(floats) == "5abe1e54d4bac096c2fe4285e0c6d2561426a163a8cd3576646a892089ff1da0"

    def test_spectrum_over_grid_constructions(self, grid_matrices):
        assert _digest(_root_parts(m.alpha for m in grid_matrices)) == "ec377f66cdbfdce514f93526d9cf488743db8873778508058ff3e753bd7e7c21"

    def test_spectrum_outcomes_at_three_residual_bounds(self, monkeypatch):
        specials = [0.0, 0.5, _ONE, 1e-300]
        rows = [*np.random.default_rng(2028).random((2000, 4)).tolist(),
                *([a, b, c, d] for a in specials for b in specials for c in specials for d in specials)]
        assert _text_digest(_outcomes(rows, monkeypatch)) == "694aedd3ee0d319ed8c15cdf558c39517498f45fc239b8a6838683b27c4cc089"

    def test_route_provenance_over_grid(self, grid_realizations):
        items = [(found.method.value, found.mu, found.shrink_l) for found in grid_realizations]
        assert _text_digest(items) == "e634f67d5c9710760ea4aae15db73b176ffaf89abe6a7106c55fc5a66144586c"
