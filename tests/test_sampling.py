import numpy as np
import pytest

from cycle4 import Status, make_cycle_matrix, membership, spectrum
from cycle4.sampling import (
    bulk_char_coeffs,
    bulk_quartic_roots,
    bulk_residuals,
    bulk_spectra,
    classify_points,
    sample_parameters,
    sample_records,
    status_order,
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


class TestBulkSolvers:
    def test_coeffs_match_scalar(self):
        from cycle4 import char_poly

        rng = np.random.default_rng(3)
        alphas = rng.random((50, 4))
        bulk = bulk_char_coeffs(alphas)
        for i in range(50):
            scalar = char_poly(make_cycle_matrix(*alphas[i]))
            assert np.allclose(bulk[i], scalar, atol=1e-15)

    def test_roots_match_scalar_as_multisets(self):
        rng = np.random.default_rng(7)
        alphas = rng.random((2000, 4))
        bulk = bulk_spectra(alphas)
        for i in range(0, 2000, 7):
            scalar = spectrum(make_cycle_matrix(*alphas[i]))
            for r in bulk[i]:
                assert min(abs(r - s) for s in scalar) < 1e-9

    def test_handles_symmetric_quartic(self):
        roots = bulk_quartic_roots(np.array([[1.0, 0.0, 1.0, 0.0, 0.0]]))[0]
        for want in (1j, -1j):
            assert min(abs(r - want) for r in roots) < 1e-9
        assert sorted(abs(r) for r in roots)[:2] == pytest.approx([0.0, 0.0], abs=1e-6)

    def test_residuals_small(self):
        alphas = sample_parameters(500, 11)
        eigenvalues = bulk_spectra(alphas)
        assert bulk_residuals(alphas, eigenvalues).max() < 1e-10

    def test_rejects_degenerate_rows(self):
        with pytest.raises(ValueError):
            bulk_quartic_roots(np.array([[0.0, 1.0, 0.0, 0.0, -1.0]]))


class TestClassification:
    def test_matches_scalar_membership(self):
        rng = np.random.default_rng(5)
        re = rng.uniform(-1.5, 1.5, size=3000)
        im = rng.uniform(-1.5, 1.5, size=3000)
        # include exact boundary-style points
        re[:4] = [0.5, 0.0, 0.7, 1.0]
        im[:4] = [0.5, 1.0, 0.0, 0.0]
        codes = classify_points(re, im, 1e-9)
        order = status_order()
        for k in range(3000):
            assert order[codes[k]] is membership(complex(re[k], im[k])).status

    def test_sample_records_shapes(self):
        alphas, eigenvalues, codes = sample_records(100, 23)
        assert alphas.shape == (100, 4)
        assert eigenvalues.shape == (100, 4)
        assert codes.shape == (100, 4)
        # every matrix carries the trivial eigenvalue at the right endpoint
        order = status_order()
        assert all(
            any(order[codes[i, j]] is Status.BOUNDARY_REAL_ENDPOINT for j in range(4))
            for i in range(100)
        )
