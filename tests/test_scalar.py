import cmath
import math

import pytest
from hypothesis import given, strategies as st

from cycle4 import Tolerance, ZeroArgument, principal_arg


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
            {"boundary_band": float("inf")},
            {"eigen_residual": True},
            {"max_iter": True},
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
