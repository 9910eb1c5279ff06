import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    angle_sum,
    interior_grid,
    log_ratio,
    oracle_roots,
    sample_feasible_angles,
    sample_inside_nonreal,
    sample_tight,
    weight,
)
from cycle4 import (
    AlphaOutOfRange,
    ArgumentOutOfRange,
    Cycle4Error,
    Method,
    OutsideRegion,
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
)
from cycle4 import synthesis
from cycle4.criterion import Regime

TWO_PI = 2.0 * math.pi


class TestMakeContext:
    def test_unbounded_example(self):
        ctx = make_context(0.2 + 0.3j)
        assert ctx.lower_arg == pytest.approx(math.atan2(0.3, 0.2), abs=0)
        assert ctx.upper_arg == pytest.approx(math.atan2(0.3, -0.8), abs=0)
        assert 3 * ctx.lower_arg + ctx.upper_arg < TWO_PI
        assert ctx.regime is Regime.UNBOUNDED
        assert ctx.peak_arg is None

    def test_tight_example(self):
        ctx = make_context(0.05 + 0.1j)
        assert 3 * ctx.lower_arg + ctx.upper_arg > TWO_PI
        assert ctx.regime is Regime.TIGHT
        assert ctx.peak_arg == pytest.approx(TWO_PI - 3 * math.atan2(0.1, 0.05), abs=1e-14)
        assert ctx.lower_arg <= ctx.peak_arg < ctx.upper_arg

    def test_axis_point(self):
        ctx = make_context(1j)
        assert ctx.lower_arg == pytest.approx(math.pi / 2, abs=0)
        assert ctx.upper_arg == pytest.approx(3 * math.pi / 4, abs=1e-15)
        assert ctx.regime is Regime.TIGHT
        assert ctx.peak_arg == pytest.approx(math.pi / 2, abs=1e-14)

    def test_angle_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.uniform(0, 1), rng.uniform(1e-6, 2)
            ctx = make_context(complex(min(a, 0.999), b))
            assert 0.0 < ctx.lower_arg < ctx.upper_arg < math.pi

    def test_regime_exact_beside_the_threshold_curve(self):
        # the regime must follow the angle sum of the floats' binary values,
        # and an empty feasible set (4 Arg(lam) > 2*pi) must raise: at the
        # two float neighbours in a of T(a, b) = 0 on 0 < a < 1/2, where the
        # sum crosses 2*pi (the float angle sum misjudges 89 of these 200
        # points), beside the lines Arg(lam) = pi/6 and 2*pi/3, and at
        # random points with log-uniform b
        points = []
        for k in range(1, 101):
            b = k / 50
            lo, hi = 0.0, 0.5  # T(0, b) = b^2 > 0 > T(1/2, b) = -1/4 - b^2
            while (mid := (lo + hi) / 2) not in (lo, hi):
                if modulus_threshold(Fraction(mid), Fraction(b)) > 0:
                    lo = mid
                else:
                    hi = mid
            points += [(lo, b), (hi, b)]
        rng = np.random.default_rng(47)
        for a in 10.0 ** rng.uniform(-12, 0, 100):
            # b = a/sqrt(3) for a > 0 and b = -sqrt(3) a for a < 0
            for aa, b in ((a, a / math.sqrt(3)), (-a, a * math.sqrt(3))):
                points += [(aa, math.nextafter(b, 0.0)), (aa, b), (aa, math.nextafter(b, math.inf))]
        points += zip(rng.uniform(-1, 1, 300), 10.0 ** rng.uniform(-12, 2, 300))
        wrong = []
        for a, b in points:
            with mpmath.workdps(60):
                lower = mpmath.atan2(b, a)
                empty = 4 * lower > 2 * mpmath.pi
                tight = 3 * lower + mpmath.atan2(b, mpmath.mpf(a) - 1) > 2 * mpmath.pi
            try:
                regime = make_context(complex(a, b)).regime
            except ArgumentOutOfRange:
                regime = None
            if regime is not (None if empty else Regime.TIGHT if tight else Regime.UNBOUNDED):
                wrong.append((a, b))
        assert wrong == []

    def test_exact_zero_of_the_threshold_is_unbounded(self):
        # T(3/16, 9/16) = 0: the angle sum is 2*pi exactly, which is not
        # tight, and the supremum is infinite rather than a division by 0
        ctx = make_context(0.1875 + 0.5625j)
        assert modulus_threshold(Fraction(3, 16), Fraction(9, 16)) == 0
        assert ctx.regime is Regime.UNBOUNDED
        assert ctx.max_psi == math.inf

    def test_sign_of_the_angle_sum_is_the_threshold_in_sympy(self):
        # the sign test on T: Im(lam^3 (lam - 1)) = b T(a, b)
        sympy = pytest.importorskip("sympy")
        a, b = sympy.symbols("a b", real=True)
        lam = a + sympy.I * b
        im = sympy.im(sympy.expand(lam**3 * (lam - 1)))
        assert sympy.expand(im - b * modulus_threshold(a, b)) == 0

    def test_errors(self):
        with pytest.raises(ArgumentOutOfRange, match="lower half-plane"):
            make_context(0.2 - 0.3j)
        with pytest.raises(ArgumentOutOfRange, match="is real"):
            make_context(0.5 + 0j)
        with pytest.raises(ArgumentOutOfRange, match="real part"):
            make_context(1.2 + 0.3j)

    def test_threshold_evaluated_at_most_once(self, monkeypatch):
        # the regime and the supremum share one exact T
        calls = []
        monkeypatch.setattr("cycle4.criterion.modulus_threshold",
                            lambda a, b: calls.append((a, b)) or modulus_threshold(a, b))
        for lam in (0.05 + 0.1j, 0.2 + 0.3j, 0.5j, 0.9 + 0.01j):
            calls.clear()
            make_context(lam)
            assert len(calls) <= 1
        assert calls == []  # 3 b^2 < a^2 at 0.9 + 0.01i: no T at all

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(0.0, 1.0, exclude_max=True), b=st.floats(5e-324, 1e300))
    @example(a=0.1875, b=0.5625)  # T = 0 exactly: unbounded
    @example(a=0.0, b=5e-324)  # a subnormal supremum
    @example(a=0.2425372141788141, b=2.0)  # tight where the float angle sum says unbounded
    def test_regime_peak_and_supremum_agree(self, a, b):
        ctx = make_context(complex(a, b))
        tight = ctx.regime is Regime.TIGHT
        assert tight == (ctx.peak_arg is not None) == math.isfinite(ctx.max_psi)


class TestShiftAngleMaps:
    """The weight map t(u) = y cot u - x of the angle parametrisation, on
    the angle box ``make_context`` reports."""

    def test_shift_at_lower_arg_is_one(self):
        for lam in (0.2 + 0.3j, 0.7 + 0.2j, 0.05 + 0.9j):
            ctx = make_context(lam)
            assert weight(lam - 1, ctx.lower_arg) == pytest.approx(1.0, abs=1e-12)

    def test_axis_point_half_pi(self):
        lam = 1j
        assert weight(lam - 1, math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_half_pi_gives_one_minus_a(self):
        lam = 0.2 + 0.3j
        assert weight(lam - 1, math.pi / 2) == pytest.approx(0.8, abs=1e-15)

    def test_shift_vanishes_toward_upper_arg(self):
        lam = 0.2 + 0.3j
        ctx = make_context(lam)
        previous = 1.0
        for frac in (0.5, 0.9, 0.99, 0.9999):
            u = ctx.lower_arg + frac * (ctx.upper_arg - ctx.lower_arg)
            t = weight(lam - 1, u)
            assert 0.0 < t < previous
            previous = t
        assert previous < 1e-3

    def test_angle_for_shift_inverse(self):
        # the angle of shift t is arg(z + t); the weight map inverts it
        lam = 0.2 + 0.3j
        ctx = make_context(lam)
        # (a - 1) + 1 recombines to a only up to one ulp
        assert angle_for_shift(lam, 1.0) == pytest.approx(ctx.lower_arg, abs=1e-14)
        u = angle_for_shift(lam, 0.37)
        assert weight(lam - 1, u) == pytest.approx(0.37, abs=1e-12)

    def test_angle_increases_as_shift_shrinks(self):
        lam = 0.3 + 0.4j
        ctx = make_context(lam)
        angles = [angle_for_shift(lam, t) for t in (1.0, 0.5, 0.1, 0.01, 1e-6)]
        assert all(x < y for x, y in zip(angles, angles[1:]))
        assert angles[-1] < ctx.upper_arg
        shifts = [weight(lam - 1, u) for u in angles]
        assert all(x > y for x, y in zip(shifts, shifts[1:]))


class TestLogModulusRatio:
    """F(u) = log|z + t(u)| - log t(u), the paper's convex summand."""

    def test_two_formulas_agree(self):
        # direct log|z + t| versus the cosecant form log(y csc u) - log t
        for lam in (0.2 + 0.3j, 0.6 + 0.35j, 0.05 + 0.95j):
            ctx = make_context(lam)
            for frac in np.linspace(0.0, 0.999, 40):
                u = ctx.lower_arg + frac * (ctx.upper_arg - ctx.lower_arg)
                t = weight(lam - 1, u)
                cosecant = math.log((lam - 1).imag / math.sin(u)) - math.log(t)
                assert log_ratio(lam - 1, t) == pytest.approx(cosecant, abs=1e-12)

    def test_value_at_lower_arg(self):
        lam = 0.2 + 0.3j
        ctx = make_context(lam)
        assert F(lam, ctx.lower_arg) == pytest.approx(math.log(abs(0.2 + 0.3j)), abs=1e-12)

    def test_value_at_half_pi(self):
        lam = 0.2 + 0.3j
        assert F(lam, math.pi / 2) == pytest.approx(math.log(0.3 / 0.8), abs=1e-12)

    def test_blows_up_toward_upper_arg(self):
        lam = 0.2 + 0.3j
        ctx = make_context(lam)
        values = [F(lam, ctx.upper_arg - gap) for gap in (1e-2, 1e-4, 1e-8)]
        assert values[0] < values[1] < values[2]
        assert values[2] > 15.0

    def test_convexity_second_difference_positive(self):
        rng = np.random.default_rng(8)
        for lam in sample_inside_nonreal(rng, 10, min_b=0.05, max_sum=0.98):
            ctx = make_context(lam)
            h = 1e-4 * (ctx.upper_arg - ctx.lower_arg)
            for frac in np.linspace(0.05, 0.9, 20):
                u = ctx.lower_arg + frac * (ctx.upper_arg - ctx.lower_arg)
                assert F(lam, u + h) - 2 * F(lam, u) + F(lam, u - h) > 0.0


class TestCriterionSum:
    def test_barycenter_value(self):
        lam = 0.2 + 0.3j
        barycenter = (math.pi / 2,) * 4
        assert angle_sum(lam - 1, barycenter) == pytest.approx(4 * math.log(0.375), abs=1e-12)

    def test_tight_peak_matches_maximum(self):
        lam = 0.05 + 0.1j
        ctx = make_context(lam)
        peak = (ctx.peak_arg, ctx.lower_arg, ctx.lower_arg, ctx.lower_arg)
        assert angle_sum(lam - 1, peak) == pytest.approx(ctx.max_psi, abs=1e-10)


class TestCriterionMax:
    def test_unbounded(self):
        assert make_context(0.2 + 0.3j).max_psi == math.inf

    def test_tight_closed_form(self):
        lam = 0.05 + 0.1j
        ctx = make_context(lam)
        expected = math.log(abs(lam) ** 6 / modulus_threshold(lam.real, lam.imag))
        assert ctx.max_psi == pytest.approx(expected, abs=1e-9)
        assert ctx.max_psi < 0.0  # not realizable: beyond the left curve

    def test_axis_boundary_value(self):
        # at i the peak coincides with the barycenter and the maximum is 0
        assert make_context(1j).max_psi == pytest.approx(0.0, abs=1e-12)

    def test_left_of_axis_names_empty_feasible_set(self):
        # 4 Arg(lam) > 2*pi: the error names the empty set, not an angle,
        # and no context, tight or otherwise, is returned
        with pytest.raises(ArgumentOutOfRange) as err:
            make_context(-0.5 + 0.1j)
        assert str(err.value) == "feasible angle set of (-0.5+0.1j) is empty: Re(lam) < 0"

    @pytest.mark.parametrize("lam", [-1e-15 + 0.5j, -5e-324 + 0.5j])
    def test_empty_feasible_set_just_left_of_the_axis(self, lam):
        # 4 Arg(lam) exceeds 2*pi by less than any float slack: decided by
        # the sign of Re(lam)
        with pytest.raises(ArgumentOutOfRange) as err:
            make_context(lam)
        assert str(err.value) == f"feasible angle set of {lam!r} is empty: Re(lam) < 0"

    def test_on_the_axis_the_set_is_one_point(self):
        # a = 0: |lam|^6 / T = b^6 / b^2 = 1/16
        assert make_context(0.5j).max_psi == math.log(0.0625)

    def test_closed_form_on_random_tight_points(self):
        rng = np.random.default_rng(21)
        for lam in sample_tight(rng, 100):
            ctx = make_context(lam)
            n_val = modulus_threshold(lam.real, lam.imag)
            assert n_val > 0.0
            expected = math.log(abs(lam) ** 6 / n_val)
            assert ctx.max_psi == pytest.approx(expected, abs=1e-9)


def oracle_max_psi(lam: complex, dps: int = 60):
    """3 F(lower) + F(peak) in dps-digit arithmetic on the binary values of
    lam, or None where the peak angle reaches upper: its weight is not
    positive there and the supremum is infinite.  The terms are of order
    log|lam| and cancel near the left curve, so a value below 10^(20 - dps)
    is evaluated again at twice the digits, up to 480."""
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(lam.real), mpmath.mpf(lam.imag)
        lower, upper = mpmath.atan2(b, a), mpmath.atan2(b, a - 1)
        peak = 2 * mpmath.pi - 3 * lower
        if peak >= upper:
            return None
        t = b * mpmath.cot(peak) - (a - 1)
        value = 3 * mpmath.log(mpmath.hypot(a, b)) + mpmath.log(b / mpmath.sin(peak) / t)
    if dps >= 480 or abs(value) > mpmath.mpf(10) ** (20 - dps):
        return value
    return oracle_max_psi(lam, 2 * dps)


def check_max_psi(lam: complex) -> float:
    """max_psi at lam, checked: infinite where the regime is unbounded, else
    within 4e-16 relative of the oracle, or within the spacing 5e-324 of
    the subnormal floats."""
    ctx = make_context(lam)
    value = ctx.max_psi
    if ctx.regime is Regime.UNBOUNDED:
        assert value == math.inf
        return value
    oracle = oracle_max_psi(lam)
    assert oracle is not None and math.isfinite(value)
    assert abs(value - oracle) <= 4e-16 * abs(oracle) + 5e-324, (lam, value, oracle)
    return value


def left_curve_point(alpha: float, k: int, sign: int) -> complex:
    """The left-curve point of anchor weight alpha, moved 10^-k along Im."""
    return left_branch_root(alpha) + sign * 10.0**-k * 1j


class TestCriterionMaxAccuracy:
    """``max_psi`` against a 60-digit oracle of the angle form."""

    @pytest.mark.parametrize("d", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_below_the_left_curve(self, d):
        # the maximum tends to 0 on the curve, where the angle form cancels
        finite = 0
        for p in trace_left_curve(200):
            if p.point.imag > d:
                finite += math.isfinite(check_max_psi(p.point - d * 1j))
        assert finite >= 190

    @settings(max_examples=300, deadline=None)
    @given(lam=st.one_of(
        st.builds(complex, st.floats(-1e10, 1.0, exclude_max=True),
                  st.floats(5e-324, 1e10)),
        st.builds(left_curve_point, st.floats(0.0, 0.999), st.integers(3, 15),
                  st.sampled_from((-1, 1))),
    ))
    @example(lam=1j)
    @example(lam=1e-100j)  # |lam|^6 / T = b^4 underflows a float
    @example(lam=1e-200j)
    # tight by atan2, but the exact T is -1.09e-16: the regime is unbounded
    @example(lam=0.2351677941765864 + 1.3855041382024993j)
    @example(lam=8.918241265765223e-209 + 1j)  # a maximum of 3.6e-208, below 60 digits
    @example(lam=5e-324 + 1j)  # a subnormal maximum
    @example(lam=0.0789222787846143 + 0.15644616023896302j)
    def test_matches_the_oracle(self, lam):
        try:
            check_max_psi(lam)
        except ArgumentOutOfRange:  # real, or an empty feasible set
            pass


def oracle_closed_max(lam: complex) -> mpmath.mpf:
    """log(|lam|^6 / T(a, b)) in 60-digit arithmetic on the binary values of
    lam: the closed form, for targets whose angles 60 digits cannot resolve."""
    with mpmath.workdps(60):
        a, b = mpmath.mpf(lam.real), mpmath.mpf(lam.imag)
        return mpmath.log((a * a + b * b) ** 3 / (4 * a**3 - 3 * a * a - 4 * a * b * b + b * b))


class TestLogBranches:
    """``criterion._log`` outside its common path, against the closed form."""

    def test_scaled_ratio_above_two_to_the_thousand(self):
        # |lam|^6 / T ~ b^4 / 0.6 leaves the floats: log of a scaled mantissa
        value = make_context(0.1 + 1e200j).max_psi
        assert value == 1842.5789000190023
        assert abs(value - oracle_closed_max(0.1 + 1e200j)) <= 4e-16 * value

    def test_ratio_just_below_one(self):
        # just past the left curve (form -1.5e-11): log1p of the exact ratio - 1
        lam = 0.05 + 0.09355095214853487j
        value, oracle = make_context(lam).max_psi, oracle_closed_max(lam)
        assert -1e-5 < value < 0.0
        assert abs(value - oracle) <= 4e-16 * abs(oracle)


class TestBounds:
    def test_jensen_lower_bound(self):
        rng = np.random.default_rng(31)
        for lam in sample_inside_nonreal(rng, 5):
            ctx = make_context(lam)
            floor = 4.0 * F(lam, math.pi / 2)
            for u in sample_feasible_angles(rng, ctx, 200):
                assert angle_sum(lam - 1, u) >= floor - 1e-9

    def test_tight_upper_bound(self):
        rng = np.random.default_rng(32)
        for lam in sample_tight(rng, 5):
            ctx = make_context(lam)
            ceiling = ctx.max_psi
            for u in sample_feasible_angles(rng, ctx, 200):
                assert angle_sum(lam - 1, u) <= ceiling + 1e-9

    def test_negative_form_implies_tight(self):
        rng = np.random.default_rng(33)
        found = 0
        while found < 500:
            a, b = rng.random(2)
            if b == 0.0:
                continue
            s = b * b + a * a + a
            if s * s + 2 * a * a - b * b > 0.0:
                continue
            assert make_context(complex(a, b)).regime is Regime.TIGHT
            found += 1


class TestSolveCriterion:
    """The criterion route: ``realize_via_criterion`` on the targets the
    criterion decides."""

    def test_interior_point(self):
        lam = 0.2 + 0.3j
        result = realize_via_criterion(lam)
        assert result.method is Method.CRITERION_SOLVER
        assert all(0.0 < 1.0 - a <= 1.0 for a in result.matrix.alpha)
        assert min(abs(r - lam) for r in spectrum(result.matrix)) < 1e-6
        assert eigen_residual(result.matrix, lam) < 1e-8

    def test_right_segment_barycenter(self):
        # on a + b = 1 the barycenter is the zero: equal shifts t = 1 - a
        assert realize_via_criterion(0.5 + 0.5j).matrix.alpha == (0.5, 0.5, 0.5, 0.5)

    def test_not_realizable_beyond_left_curve(self):
        assert make_context(0.05 + 0.1j).max_psi < 0.0
        with pytest.raises(OutsideRegion):
            realize_via_criterion(0.05 + 0.1j)

    def test_not_realizable_beyond_right_segment(self):
        with pytest.raises(OutsideRegion):
            realize_via_criterion(0.7 + 0.5j)

    def test_feasibility_violation_negative_a(self):
        # four angles of at least arg(lam) > pi/2 cannot sum to 2*pi
        assert 4.0 * math.atan2(0.5, -0.1) > TWO_PI
        with pytest.raises(OutsideRegion):
            realize_via_criterion(-0.1 + 0.5j)

    def test_round_trip_constraints(self):
        # mapped back to angles, the weights sit on the hyperplane, and
        # their log-modulus ratios sum to zero
        rng = np.random.default_rng(44)
        for lam in sample_inside_nonreal(rng, 20):
            shifts = [1.0 - a for a in realize_via_criterion(lam).matrix.alpha]
            angles = [angle_for_shift(lam, t) for t in shifts]
            assert abs(sum(angles) - TWO_PI) < 1e-9
            assert abs(sum(log_ratio(lam - 1, t) for t in shifts)) < 1e-9

    def test_grid_weights_solve_the_criterion(self):
        # the paper's criterion on every interior grid matrix: the angles
        # arg(z + t_k) of the hop weights sum to 2*pi and zero the sum of
        # log-modulus ratios
        worst_sum = worst_criterion = 0.0
        for lam in interior_grid():
            shifts = [1.0 - a for a in realize_via_criterion(lam).matrix.alpha]
            angles = [angle_for_shift(lam, t) for t in shifts]
            worst_sum = max(worst_sum, abs(math.fsum(angles) - TWO_PI))
            criterion = math.fsum(log_ratio(lam - 1, t) for t in shifts)
            worst_criterion = max(worst_criterion, abs(criterion))
        assert worst_sum <= 1e-9
        assert worst_criterion <= 1e-8


def angle_for_shift(lam: complex, t: float) -> float:
    """Arg(z + t), the angle whose shift is t."""
    return math.atan2((lam - 1).imag, (lam - 1).real + t)


def F(lam: complex, u: float) -> float:
    """The log-modulus ratio at the angle u."""
    return log_ratio(lam - 1, weight(lam - 1, u))


def relative_defect(lam: complex, shifts) -> float:
    """|prod(z + t_k) / prod(t_k) - 1| of the multiplicative identity."""
    left, right = 1.0 + 0.0j, 1.0
    for t in shifts:
        left *= (lam - 1) + t
        right *= t
    return abs(left / right - 1.0)


def oracle_gap(alpha, lam: complex) -> float:
    """Distance from lam to the nearest 60-digit root of the characteristic
    polynomial."""
    with mpmath.workdps(60):
        return float(min(abs(r - mpmath.mpc(lam.real, lam.imag)) for r in oracle_roots(alpha)))


class TestCriterionPath:
    @pytest.mark.parametrize(
        "lam", [0.1421350694010412 + 0.7450175416053759j, 0.0789222787846143 + 0.15644616023896302j]
    )
    def test_left_curve_points_inside_band(self, lam):
        # rounding puts these left-curve points a hair beyond the curve;
        # membership accepts them within the band, so the solver must too
        assert membership(lam).status is Status.BOUNDARY_CL
        assert left_boundary_form(lam.real, lam.imag) < 0.0
        assert realize_via_criterion(lam).residual < 1e-8

    @pytest.mark.parametrize("b", [1e-2, 1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
    def test_near_axis(self, a, b):
        lam = complex(a, b)
        # the solver's own weights; storing them as alpha = 1 - t rounds
        _, l, tau, _ = synthesis._left_hit(lam)
        assert relative_defect(lam, (l, l, l, l * tau)) <= 1e-8
        result = realize_via_criterion(lam)
        assert result.residual <= 1e-8
        assert oracle_gap(result.matrix.alpha, lam) <= b / 100

    def test_collapse_onto_axis_raises_alpha_out_of_range(self):
        # the criterion route raises what realize raises
        for route in (realize, realize_via_criterion):
            with pytest.raises(Cycle4Error) as err:
                route(0.55 + 1e-8j)
            assert type(err.value) is AlphaOutOfRange
