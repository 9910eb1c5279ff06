import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cycle4 import (
    DegenerateLeadingCoefficient,
    Tolerance,
    ZeroArgument,
    principal_arg,
    solve_quartic,
)
from cycle4.scalar import quartic_residual_scale


def poly_eval(coeffs, x):
    value = 0j
    for c in coeffs:
        value = value * x + c
    return value


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.eigen_residual == 1e-8
        assert tol.boundary_band == 1e-9
        assert tol.max_iter == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eigen_residual": 0.0},
            {"boundary_band": -1e-9},
            {"eigen_residual": float("nan")},
            {"max_iter": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)


class TestPrincipalArg:
    def test_axis_point(self):
        assert principal_arg(1j) == pytest.approx(math.pi / 2, abs=0)

    def test_branch_endpoint(self):
        assert principal_arg(-1 + 0j) == math.pi
        # negative zero imaginary part must not flip the branch
        assert principal_arg(complex(-1.0, -0.0)) == math.pi

    def test_symmetry_point(self):
        assert principal_arg(1 + 1j) == pytest.approx(math.pi / 4, abs=0)

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            principal_arg(0j)

    def test_underflowing_upper_angle_stays_positive(self):
        # atan2(5e-324, 2) rounds to 0, outside (0, pi)
        assert principal_arg(complex(2.0, 5e-324)) == 5e-324

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            principal_arg(complex(float("nan"), 1.0))

    @given(
        st.complex_numbers(
            min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
        )
    )
    def test_conjugation_flips_sign(self, w):
        if w.imag == 0.0 and w.real < 0.0:
            return  # the branch cut itself: both args are +pi
        assert principal_arg(w.conjugate()) == -principal_arg(w)

    @given(
        st.complex_numbers(
            min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
        )
    )
    def test_reconstruction(self, w):
        theta = principal_arg(w)
        # (-pi, pi] up to representation: angles just above -pi round onto
        # the float -pi itself, which still names a value inside the branch
        assert -math.pi <= theta <= math.pi
        assert cmath.isclose(abs(w) * cmath.exp(1j * theta), w, rel_tol=1e-12)
        if w.imag > 0:
            # upper half-plane maps into (0, pi); points hugging the cut
            # round to pi itself in floating point
            assert 0.0 < theta <= math.pi


class TestSolveQuartic:
    def test_fourth_roots_of_unity(self):
        roots = solve_quartic(1, 0, 0, 0, -1)
        for got, want in zip(roots, ((-1 + 0j), -1j, 1j, (1 + 0j))):
            assert abs(got - want) < 1e-14

    def test_quadruple_root_cluster(self):
        # (x - 0.3)^4; multiplicity-4 clusters carry the usual eps^(1/4)
        # radius, so location is checked loosely and residuals tightly
        coeffs = (1.0, -1.2, 0.54, -0.108, 0.0081)
        roots = solve_quartic(*coeffs)
        scale = quartic_residual_scale(*coeffs)
        for r in roots:
            assert abs(r - 0.3) < 1e-3
            assert abs(poly_eval(coeffs, r)) <= 1e-8 * scale

    def test_left_anchor_quartic_residuals(self):
        # x^4 - 0.5x^3 - 0.5
        coeffs = (1.0, -0.5, 0.0, 0.0, -0.5)
        roots = solve_quartic(*coeffs)
        for r in roots:
            assert abs(poly_eval(coeffs, r)) < 1e-8

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            solve_quartic(0.0, 1.0, 0.0, 0.0, -1.0)

    def test_nonfinite_coefficient(self):
        with pytest.raises(ValueError):
            solve_quartic(1.0, float("inf"), 0.0, 0.0, -1.0)

    def test_bitwise_deterministic(self):
        coeffs = (1.3, -0.7, 0.21, 0.9, -1.1)
        first = solve_quartic(*coeffs)
        second = solve_quartic(*coeffs)
        assert all(a.real == b.real and a.imag == b.imag for a, b in zip(first, second))

    def test_sorted_output(self):
        roots = solve_quartic(2.0, -3.0, 0.5, 1.0, -0.25)
        assert list(roots) == sorted(roots, key=lambda r: (r.real, r.imag))

    def test_conjugate_closure_random(self):
        rng = np.random.default_rng(20240811)
        for _ in range(300):
            coeffs = rng.uniform(-2.0, 2.0, size=5)
            if abs(coeffs[0]) < 1e-6:
                continue
            roots = solve_quartic(*coeffs)
            remaining = list(roots)
            for r in roots:
                assert any(
                    rem.real == r.real and rem.imag == -r.imag for rem in remaining
                )

    def test_reexpansion_10k_seeded(self):
        # product of (x - r_i) scaled by c4 must reproduce the coefficients
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(10_000):
            coeffs = rng.uniform(-2.0, 2.0, size=5)
            if abs(coeffs[0]) < 1e-3:
                continue  # near-degenerate leading term changes the degree
            roots = solve_quartic(*coeffs)
            prod = np.array([1.0 + 0j])
            for r in roots:
                prod = np.convolve(prod, np.array([1.0, -r]))
            rebuilt = coeffs[0] * prod
            err = np.max(np.abs(rebuilt.real - coeffs)) + np.max(np.abs(rebuilt.imag))
            worst = max(worst, err / np.max(np.abs(coeffs)))
        assert worst < 1e-6

    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
    )
    def test_monic_reexpansion_property(self, c3, c2, c1, c0):
        coeffs = (1.0, c3, c2, c1, c0)
        roots = solve_quartic(*coeffs)
        prod = np.array([1.0 + 0j])
        for r in roots:
            prod = np.convolve(prod, np.array([1.0, -r]))
        scale = max(1.0, max(abs(c) for c in coeffs))
        assert np.max(np.abs(prod - np.array(coeffs, dtype=complex))) < 1e-6 * scale
