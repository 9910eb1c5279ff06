import numpy as np
import pytest
from conftest import clustered_rows, off_left_curve, oracle_roots

from cycle4 import (
    CycleMatrix4,
    Status,
    membership,
    spectrum,
    trace_left_curve,
)
from cycle4 import matrix
from cycle4.region import _BAND as BAND
from cycle4.sampling import (
    bulk_spectra,
    classify_points,
    sample_parameters,
    sample_records,
)


class TestParameterSampling:
    def test_reproducible(self):
        assert np.array_equal(sample_parameters(100, 42), sample_parameters(100, 42))

    def test_prefix_stability(self):
        # row i depends on (seed, i) only, not on the batch size
        small = sample_parameters(10, 42)
        large = sample_parameters(1000, 42)
        assert np.array_equal(small, large[:10])

    def test_seed_matters(self):
        assert not np.array_equal(sample_parameters(10, 1), sample_parameters(10, 2))

    def test_range(self):
        alphas = sample_parameters(1000, 7)
        assert alphas.shape == (1000, 4)
        assert (alphas >= 0.0).all() and (alphas < 1.0).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_parameters(0, 1)

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "too_large"])
    def test_rejects_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*128\)"):
            sample_parameters(3, seed)

    @pytest.mark.parametrize("start", [1, 700, 16384, 39999])
    def test_start_continues_the_sequence(self, start):
        full = sample_parameters(40000, 42)
        assert np.array_equal(sample_parameters(40000 - start, 42, start), full[start:])
        assert np.array_equal(sample_parameters(1, 42, start), full[start:start + 1])

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="start"):
            sample_parameters(3, 1, -1)


def _assert_match_oracle(rows, spectra) -> None:
    """Every root within max(b/100, 1e-13) of a 60-digit root, both ways."""
    assert len(rows) > 30
    for (alpha, b), roots in zip(rows, spectra):
        oracle = [complex(r) for r in oracle_roots(alpha)]
        bound = max(b / 100, 1e-13)
        for r in roots:
            assert min(abs(r - o) for o in oracle) <= bound, (alpha, r)
        for o in oracle:
            assert min(abs(r - o) for r in roots) <= bound, (alpha, o)


class TestBulkSolvers:
    def test_roots_equal_scalar_bit_for_bit(self):
        rows = np.vstack([sample_parameters(100000, 42), [alpha for alpha, _ in clustered_rows()]])
        scalar = np.array([spectrum(CycleMatrix4(alpha)) for alpha in rows])
        assert np.array_equal(bulk_spectra(rows).view(np.uint64), scalar.view(np.uint64))

    def test_clustered_spectra_match_oracle(self):
        rows = clustered_rows()
        _assert_match_oracle(rows, bulk_spectra(np.array([alpha for alpha, _ in rows])))

    def test_clustered_scalar_spectra_match_oracle(self):
        rows = clustered_rows()
        _assert_match_oracle(rows, [spectrum(CycleMatrix4(alpha)) for alpha, _ in rows])

    def test_rows_are_conjugation_closed(self):
        _, eigenvalues, _ = sample_records(100000, 42)
        closed = np.sort(eigenvalues, axis=1) == np.sort(eigenvalues.conj(), axis=1)
        assert closed.all()

    @pytest.mark.parametrize("steps", [1, 200])
    def test_rows_hold_exact_one(self, monkeypatch, steps):
        # rows the iteration cap stops early keep the structure too
        monkeypatch.setattr(matrix, "_ABERTH_STEPS", steps)
        eigenvalues = bulk_spectra(sample_parameters(2000, 9))
        assert ((eigenvalues == 1.0).sum(axis=1) >= 1).all()
        assert (np.sort(eigenvalues, axis=1) == np.sort(eigenvalues.conj(), axis=1)).all()

    @pytest.mark.parametrize("k", [1, 7, 100, 2999])
    def test_eigenvalues_prefix_stable(self, k):
        full = sample_records(3000, 31)[1]
        assert np.array_equal(sample_records(k, 31)[1], full[:k])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            bulk_spectra(np.zeros((3, 5)))

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.1, float("nan"), float("inf")])
    def test_rejects_parameters_outside_unit_interval(self, bad):
        rows = np.full((3, 4), 0.5)
        rows[1, 2] = bad
        with pytest.raises(ValueError, match="outside"):
            bulk_spectra(rows)


def _band_edge_points() -> list[complex]:
    """Points on and just inside or outside each band of the region rule."""
    half = BAND / 2
    below = np.nextafter(BAND, 0.0)
    points = []
    for a in (-1.0, -0.5, 0.0, 0.3, 0.5, 1.0 - BAND, 1.0):
        points += [complex(a, b) for b in (0.0, half, below, BAND)]
    for r in (1.0 - half, 1.0 + half, -1.0 + half, -1.0 - half):
        points += [complex(r, b) for b in (0.0, half, below, BAND)]
    for a in (0.0, 0.25, 0.5, 0.75, 1.0 - 2 * BAND):
        points += [complex(a, 1.0 - a + d) for d in (-half, half)]
    for p in trace_left_curve(40)[1:]:
        points += [off_left_curve(p.point, d) for d in (-half, half)]
    for b in (0.05, 0.3, 0.5, 0.9, 1.0, 1.0 + half):
        points += [complex(0.0, b), complex(1.0, b)]
    return points + [lam.conjugate() for lam in points]


class TestClassification:
    def test_matches_scalar_membership(self):
        rng = np.random.default_rng(5)
        re = rng.uniform(-1.5, 1.5, size=3000)
        im = rng.uniform(-1.5, 1.5, size=3000)
        # include exact boundary-style points
        re[:4] = [0.5, 0.0, 0.7, 1.0]
        im[:4] = [0.5, 1.0, 0.0, 0.0]
        edges = np.array(_band_edge_points())
        re = np.concatenate([re, edges.real])
        im = np.concatenate([im, edges.imag])
        codes = classify_points(re, im, BAND)
        order = tuple(Status)
        for k in range(re.size):
            assert order[codes[k]] is membership(complex(re[k], im[k])).status, (re[k], im[k])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_outside(self, value):
        re = np.array([value, 0.3, value, 0.0])
        im = np.array([0.3, value, value, value])
        for band in (1e-9, 1e-7):
            codes = classify_points(re, im, band)
            assert all(tuple(Status)[code] is Status.OUTSIDE for code in codes)

    def test_region_grows_with_the_band(self):
        # what `sample`'s gate relies on: a point Outside at a band is
        # Outside at every smaller band
        rng = np.random.default_rng(17)
        edges = _band_edge_points()
        for d in (1e-11, 1e-8, 5e-8, 2e-7, 1e-6, 1e-4, 1e-2):
            for a in (0.1, 0.5, 0.9):
                edges += [complex(a, 1.0 - a + d), complex(a, 1.0 - a - d)]
            for r in (1.0, -1.0):
                edges += [complex(r + d, 0.5 * d), complex(r - d, 2.0 * d)]
            edges += [off_left_curve(p.point, g) for p in trace_left_curve(20)[1:] for g in (-d, d)]
        edges = np.array(edges)
        re = np.concatenate([rng.uniform(-1.5, 1.5, 20000), edges.real])
        im = np.concatenate([rng.uniform(-1.5, 1.5, 20000), edges.imag])
        outside = tuple(Status).index(Status.OUTSIDE)
        bands = (1e-12, BAND, 1e-8, 1e-7, 1e-5, 1e-3)
        masks = [classify_points(re, im, band) == outside for band in bands]
        for wider, narrower in zip(masks[1:], masks):
            assert not (wider & ~narrower).any()

    @pytest.mark.parametrize("start", [1, 250, 999])
    def test_sample_records_from_a_start(self, start):
        full = sample_records(1000, 13)
        part = sample_records(1000 - start, 13, start=start)
        for whole, rows in zip(full, part):
            assert np.array_equal(rows, whole[start:])

    def test_sample_records_shapes(self):
        alphas, eigenvalues, codes = sample_records(100, 23)
        assert alphas.shape == (100, 4)
        assert eigenvalues.shape == (100, 4)
        assert codes.shape == (100, 4)
        # every matrix carries the trivial eigenvalue at the right endpoint
        order = tuple(Status)
        assert all(
            any(order[codes[i, j]] is Status.BOUNDARY_REAL_ENDPOINT for j in range(4))
            for i in range(100)
        )
