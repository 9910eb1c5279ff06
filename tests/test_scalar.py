import math

import pytest

from cycle4 import Tolerance
from cycle4.scalar import bracketed_zero


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.eigen_residual == 1e-8
        assert tol.boundary_band == 1e-9
        assert Tolerance._fields == ("eigen_residual", "boundary_band")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eigen_residual": 0.0},
            {"boundary_band": -1e-9},
            {"eigen_residual": float("nan")},
            {"boundary_band": "1e-9"},
            {"boundary_band": float("inf")},
            {"eigen_residual": True},
            {"boundary_band": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)

    def test_make_and_replace_validate(self):
        with pytest.raises(ValueError):
            Tolerance()._replace(boundary_band=0)
        with pytest.raises(ValueError):
            Tolerance._make((0.0, 1e-9))
        tol = Tolerance._make((1e-6, 1e-7))._replace(boundary_band=1e-5)
        assert type(tol) is Tolerance and tol == Tolerance(1e-6, 1e-5)


def bisection_count(f, lo, hi, stop):
    """Evaluations plain bisection makes on [lo, hi] under the same stop rules."""
    f_lo, count = f(lo), 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return count
        value = f(mid)
        count += 1
        if abs(value) <= stop:
            return count
        if (value > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, value
        else:
            hi = mid


def search(f, lo, hi, stop, max_iter=10_000):
    """bracketed_zero on [lo, hi] for a scalar f; returns (x, f(x)) and the
    points it evaluated."""
    seen = []

    def g(x):
        seen.append(x)
        return (f(x), 10.0 * x)

    ends = [(lo, (f(lo), 10.0 * lo)), (hi, (f(hi), 10.0 * hi))]
    (x_neg, r_neg), (x_pos, r_pos) = sorted(ends, key=lambda e: e[1][0] > 0.0)
    return bracketed_zero(g, x_neg, r_neg, x_pos, r_pos, stop, max_iter), seen


class TestBracketedZero:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_either_orientation(self, sign):
        (x, (value, payload)), seen = search(lambda x: sign * (x**3 - 2.0), 0.0, 3.0, 1e-14)
        assert abs(value) <= 1e-14
        assert x == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
        assert payload == 10.0 * x
        assert len(seen) <= 12

    @pytest.mark.parametrize("stop", [1e-12, 0.0])
    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda x: math.expm1(40.0 * x), -1.0, 2.0),
            (lambda x: -math.expm1(40.0 * x), -1.0, 2.0),
            (lambda x: math.exp(700.0 * x) - 2.0, -1.0, 1.0),
            (lambda x: x**9 - 0.3, 0.0, 1.7),
        ],
        ids=["expm1", "neg_expm1", "exp700", "x9"],
    )
    def test_stalling_false_position_stays_within_twice_bisection(self, f, lo, hi, stop):
        # one end's value dwarfs the other's, so plain false position creeps
        # from the small end (exp700 takes about 1,000 Illinois steps alone)
        (x, (value, _)), seen = search(f, lo, hi, stop)
        assert len(seen) <= 2 * bisection_count(f, lo, hi, stop)
        assert all(lo < p < hi for p in seen)
        assert abs(value) <= stop or math.nextafter(x, hi) in seen or math.nextafter(x, lo) in seen

    def test_adjacent_floats_stop(self):
        # sqrt(2) is no float, so no evaluation reaches |value| <= 0
        (x, (value, _)), seen = search(lambda x: x * x - 2.0, 1.0, 2.0, 0.0)
        assert value != 0.0
        assert abs(x - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
        assert len(seen) < 100

    def test_returns_best_evaluation_with_its_payload(self):
        def f(x):
            return (math.atan(50.0 * (x - 0.3)), f"at {x!r}")

        seen = []

        def g(x):
            seen.append(f(x))
            return seen[-1]

        x, r = bracketed_zero(g, -1.0, f(-1.0), 3.0, f(3.0), 1e-9, 5)
        assert len(seen) == 5  # the stop is out of reach in five steps
        assert r == min(seen, key=lambda e: abs(e[0]))
        assert r == f(x)

    def test_end_within_stop_needs_no_evaluation(self):
        (x, (value, payload)), seen = search(lambda x: x - 1e-13, 0.0, 1.0, 1e-12)
        assert seen == []
        assert (x, value, payload) == (0.0, -1e-13, 0.0)
