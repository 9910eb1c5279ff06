from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from cycle4 import (
    ParameterOutOfRange,
    eigen_residual,
    make_cycle_matrix,
    spectrum,
)


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


class TestConstruction:
    def test_permutation_pattern(self):
        m = make_cycle_matrix(0, 0, 0, 0)
        assert m.dense() == [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
        ]

    def test_rows_sum_to_one(self):
        m = make_cycle_matrix(0.5, 0.5, 0.5, 0.5)
        for row in m.dense():
            assert sum(row) == 1.0
            assert all(entry >= 0.0 for entry in row)

    def test_rejects_one_with_index(self):
        with pytest.raises(ParameterOutOfRange) as err:
            make_cycle_matrix(0.2, 1.0, 0, 0)
        assert err.value.index == 2
        assert err.value.value == 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ParameterOutOfRange):
            make_cycle_matrix(bad, 0.5, 0.5, 0.5)

    def test_json_round_trip(self):
        m = make_cycle_matrix(0.1, 0.2, 0.3, 0.4)
        assert m.to_dict() == {"alpha": [0.1, 0.2, 0.3, 0.4]}


class TestCharPoly:
    def test_exact_oracle_on_known_matrix(self):
        # all alpha = 1/2: det(lam I - D) = (lam - 1/2)^4 - 1/16
        half = Fraction(1, 2)
        dense = make_cycle_matrix(0.5, 0.5, 0.5, 0.5).dense()
        assert exact_char_poly(dense) == [0, -half, Fraction(3, 2), -2, 1]

    def test_matches_exact_determinant_expansion(self):
        # the product form the spectrum kernel evaluates is the determinant
        # of lam I - dense, exactly, with the hop weights as the matrix
        # stores them (1.0 - a rounded to double)
        rng = np.random.default_rng(17)
        for _ in range(60):
            m = make_cycle_matrix(*rng.random(4))
            product = [Fraction(1)]
            hop = Fraction(1)
            for a in m.alpha:
                product = _poly_mul(product, [-Fraction(a), Fraction(1)])
                hop *= Fraction(1.0 - a)
            product[0] -= hop
            assert exact_char_poly(m.dense()) == product


class TestSpectrum:
    def test_equal_half_parameters(self):
        roots = spectrum(make_cycle_matrix(0.5, 0.5, 0.5, 0.5))
        sorted_close(roots, [0, 0.5 - 0.5j, 0.5 + 0.5j, 1], 1e-12)

    def test_permutation(self):
        roots = spectrum(make_cycle_matrix(0, 0, 0, 0))
        sorted_close(roots, [-1, -1j, 1j, 1], 1e-14)

    def test_random_instance_certificates(self):
        m = make_cycle_matrix(0.3, 0.7, 0.1, 0.9)
        roots = spectrum(m)
        for r in roots:
            assert eigen_residual(m, r) < 1e-8
        for r in roots:
            assert any(s.real == r.real and s.imag == -r.imag for s in roots)

    def test_bulk_invariants_1000(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            m = make_cycle_matrix(*rng.random(4))
            roots = spectrum(m)
            assert 1.0 in roots
            assert max(abs(r) for r in roots) <= 1.0 + 1e-9
            for r in roots:
                assert any(s.real == r.real and s.imag == -r.imag for s in roots)

    def test_trace_consistency(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            alpha = rng.random(4)
            m = make_cycle_matrix(*alpha)
            total = sum(spectrum(m))
            assert abs(total.real - alpha.sum()) < 1e-8
            assert abs(total.imag) < 1e-8


class TestEigenResidual:
    def test_cr_point_exact(self):
        m = make_cycle_matrix(0.5, 0.5, 0.5, 0.5)
        assert eigen_residual(m, 0.5 + 0.5j) < 1e-12

    def test_permutation_at_i(self):
        assert eigen_residual(make_cycle_matrix(0, 0, 0, 0), 1j) == 0.0

    def test_off_spectrum_value(self):
        m = make_cycle_matrix(0.5, 0.5, 0.5, 0.5)
        assert eigen_residual(m, 0.9) == pytest.approx(abs(0.4**4 - 0.5**4), abs=1e-10)
