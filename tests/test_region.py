import math

import numpy as np
import pytest
from conftest import off_left_curve
from hypothesis import given, strategies as st

from cycle4 import (
    ArgumentOutOfRange,
    CycleMatrix4,
    SpectrumFailure,
    Status,
    eigen_residual,
    left_boundary_form,
    left_branch_root,
    membership,
    modulus_threshold,
    trace_left_curve,
    trace_right_segment,
)
from cycle4 import region


class TestForms:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.5, 1.25)],
    )
    def test_left_boundary_form(self, a, b, expected):
        assert left_boundary_form(a, b) == pytest.approx(expected, abs=1e-15)

    def test_left_boundary_even_in_b(self):
        assert left_boundary_form(0.3, 0.4) == left_boundary_form(0.3, -0.4)

    @pytest.mark.parametrize(
        "a,b,expected",
        [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (0.05, 0.1, 0.001)],
    )
    def test_modulus_threshold(self, a, b, expected):
        assert modulus_threshold(a, b) == pytest.approx(expected, abs=1e-15)

    def test_modulus_threshold_overflow_raises_nothing(self):
        # a float cube past the range gives inf, as the left form's products
        # do; a**3 raised OverflowError
        assert np.isnan(modulus_threshold(1e200, 0.0))  # inf - inf
        assert modulus_threshold(-1e103, 1.0) == -np.inf


class TestMembership:
    def test_interior_point(self):
        v = membership(0.2 + 0.3j)
        assert v.status is Status.INSIDE_NONREAL
        assert v.right_check == pytest.approx(0.5)
        assert v.g_check == pytest.approx(0.0989, abs=1e-10)

    def test_imaginary_axis_gap(self):
        # between 0 and i the axis is outside: the left form is negative there
        v = membership(0.05j)
        assert v.status is Status.OUTSIDE
        assert v.g_check < 0.0
        assert v.g_check == pytest.approx(0.05**2 * (0.05**2 - 1.0), abs=1e-15)

    def test_right_segment_point(self):
        assert membership(0.5 + 0.5j).status is Status.BOUNDARY_CR

    def test_real_interior(self):
        assert membership(0.7 + 0j).status is Status.INSIDE_REAL_INTERVAL

    def test_real_endpoints(self):
        assert membership(1.0 + 0j).status is Status.BOUNDARY_REAL_ENDPOINT
        assert membership(-1.0 + 0j).status is Status.BOUNDARY_REAL_ENDPOINT

    def test_real_outside(self):
        assert membership(1.5 + 0j).status is Status.OUTSIDE
        assert membership(-1.0000001 + 0j).status is Status.OUTSIDE

    def test_left_curve_point(self):
        lam = left_branch_root(0.5)
        assert membership(lam).status is Status.BOUNDARY_CL

    def test_corner_i_prefers_right_segment(self):
        assert membership(1j).status is Status.BOUNDARY_CR

    def test_outside_carries_violated_constraint(self):
        for lam in (0.05j, 1.2 + 0.3j, -0.2 + 0.4j, 0.8 + 0.5j):
            v = membership(lam)
            assert v.status is Status.OUTSIDE
            violated = (
                v.a_check < 0.0
                or v.a_check >= 1.0
                or v.right_check < 0.0
                or v.g_check < 0.0
            )
            assert violated

    def test_band_widening_promotes_boundary(self):
        near_cr = complex(0.5 + 3e-8, 0.5)
        assert membership(near_cr).status is Status.OUTSIDE
        assert membership(near_cr, 1e-7).status is Status.BOUNDARY_CR

    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
    )
    def test_conjugation_invariance(self, a, b):
        lam = complex(a, b)
        assert membership(lam).status is membership(lam.conjugate()).status

    @pytest.mark.parametrize(
        "lam, expected",
        [
            (complex(0.3, 1e-9), Status.INSIDE_NONREAL),  # b == band is nonreal
            (complex(0.3, 0.999e-9), Status.INSIDE_REAL_INTERVAL),
            (complex(1.0 + 5e-10, 5e-10), Status.BOUNDARY_REAL_ENDPOINT),
            (complex(-1.0 - 5e-10, 0.0), Status.BOUNDARY_REAL_ENDPOINT),
            (complex(1.0 + 2e-9, 0.0), Status.OUTSIDE),
            (complex(1.0 - 2e-9, 0.0), Status.INSIDE_REAL_INTERVAL),
            (complex(0.5, 0.5 + 5e-10), Status.BOUNDARY_CR),
            (complex(0.5, 0.5 - 5e-10), Status.BOUNDARY_CR),
            (complex(0.5, 0.5 + 2e-9), Status.OUTSIDE),
            (complex(0.0, 1.0 + 5e-10), Status.BOUNDARY_CR),
            (complex(0.0, 1.0 - 3e-10), Status.BOUNDARY_CR),  # left form -6e-10 near i
            (complex(1.0, 1e-9), Status.OUTSIDE),  # a == 1 is excluded
            (complex(0.0, 0.3), Status.OUTSIDE),
        ],
    )
    def test_band_edges(self, lam, expected):
        assert membership(lam).status is expected
        assert membership(lam.conjugate()).status is expected

    @pytest.mark.parametrize(
        "shift, expected",
        [
            (-5e-10, Status.BOUNDARY_CL),
            (5e-10, Status.BOUNDARY_CL),
            (-2e-9, Status.OUTSIDE),
            (2e-9, Status.INSIDE_NONREAL),
        ],
    )
    def test_left_curve_band_edges(self, shift, expected):
        assert membership(off_left_curve(left_branch_root(0.37), shift)).status is expected

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            membership(complex(float("nan"), 0.0))


class TestTraceRightSegment:
    def test_two_points(self):
        points = [p.point for p in trace_right_segment(2)]
        assert points == [1 + 0j, 1j]

    def test_three_points(self):
        points = [p.point for p in trace_right_segment(3)]
        assert points == [1 + 0j, 0.5 + 0.5j, 1j]

    def test_every_point_on_segment(self):
        for p in trace_right_segment(50):
            status = membership(p.point).status
            if p.point.imag == 0.0:
                assert status is Status.BOUNDARY_REAL_ENDPOINT
            else:
                assert status is Status.BOUNDARY_CR

    def test_needs_two(self):
        for n in (1, 3.0, 2.5, None, "5"):
            with pytest.raises(ArgumentOutOfRange):
                trace_right_segment(n)


class TestTraceLeftCurve:
    def test_starts_at_i(self):
        points = trace_left_curve(100)
        assert points[0].param == 0.0
        assert abs(points[0].point - 1j) < 1e-14

    def test_on_curve_and_in_strip(self):
        points = trace_left_curve(100)
        assert max(abs(p.boundary_form) for p in points) < 1e-9
        for p in points:
            assert -1e-9 <= p.point.real <= 1.0 / 6.0 + 1e-9
            assert p.point.imag > 0.0

    def test_approaches_zero(self):
        points = trace_left_curve(200)
        assert abs(points[-1].point) < abs(points[0].point)
        assert abs(left_branch_root(0.9999)) < 0.05

    def test_no_upper_root_raises(self, monkeypatch):
        # a spectrum of four reals leaves no root with positive Im
        monkeypatch.setattr(region, "spectrum", lambda m: (0j, 0.25 + 0j, 0.5 + 0j, 1 + 0j))
        with pytest.raises(SpectrumFailure, match="no upper-half-plane root"):
            left_branch_root(0.5)

    def test_off_curve_root_raises(self, monkeypatch):
        # 0.1 + 0.5i is inside the strip but its left form is -0.1004
        root = 0.1 + 0.5j
        form = left_boundary_form(root.real, root.imag)
        assert form == pytest.approx(-0.1004, abs=1e-15)
        monkeypatch.setattr(region, "left_branch_root", lambda alpha: root)
        with pytest.raises(SpectrumFailure) as err:
            trace_left_curve(2)
        assert str(err.value) == f"traced point {root!r} misses the curve: form={form}"

    def test_root_outside_strip_raises(self, monkeypatch):
        # a cube root of 1: the left form is exactly 0 but Re = -1/2
        root = complex(-0.5, math.sqrt(0.75))
        assert left_boundary_form(root.real, root.imag) == 0.0
        monkeypatch.setattr(region, "left_branch_root", lambda alpha: root)
        with pytest.raises(SpectrumFailure) as err:
            trace_left_curve(2)
        assert str(err.value) == f"traced point {root!r} outside the left strip"

    @pytest.mark.parametrize("anchor", [None, "0.5", 0.5j, [0.5], True, 1.0, float("nan")])
    def test_matrix_checks_anchor_weight(self, anchor):
        # the weight check is CycleMatrix4's: non-numbers raise its error too
        with pytest.raises(ArgumentOutOfRange) as err:
            left_branch_root(anchor)
        assert str(err.value) == f"parameter 1 = {anchor!r} is outside [0, 1)"

    def test_mid_anchor_is_eigenvalue(self):
        lam = left_branch_root(0.5)
        assert eigen_residual(CycleMatrix4((0.5, 0, 0, 0)), lam) < 1e-12

    def test_anchor_grid_covers_interval(self):
        points = trace_left_curve(100)
        params = [p.param for p in points]
        assert params[0] == 0.0
        assert params[-1] == pytest.approx(0.99)

    def test_needs_two(self):
        for n in (1, 2.5, 3.0, None, "5"):
            with pytest.raises(ArgumentOutOfRange):
                trace_left_curve(n)
        assert trace_left_curve(np.int64(5)) == trace_left_curve(5)
