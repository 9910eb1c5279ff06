import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import interior_grid, off_left_curve, oracle_roots, sample_inside_nonreal
from cycle4 import (
    AlphaOutOfRange,
    Cycle4Error,
    CycleMatrix4,
    Method,
    NoConvergence,
    OutsideRegion,
    SpectrumFailure,
    Status,
    eigen_residual,
    left_boundary_form,
    left_branch_root,
    membership,
    realize,
    realize_via_criterion,
    spectrum,
    trace_left_curve,
    trace_right_segment,
)
from cycle4 import matrix, region, synthesis


ROUTES = [realize, realize_via_criterion]


class TestLeftAnchorWeight:
    """A left-curve target is realized by its anchor (alpha, 0, 0, 0), alpha
    the curve parameter; both routes return that matrix."""

    def test_at_i(self):
        # the anchor hop at i is 1: weight 0, the plain cycle
        assert synthesis._anchor_hop(1j) == 1.0
        for route in ROUTES:
            assert route(1j).matrix.alpha == (0.0, 0.0, 0.0, 0.0)

    def test_round_trip_through_root(self):
        for route in ROUTES:
            result = route(left_branch_root(0.5))
            assert result.method is Method.BOUNDARY_CL
            assert result.matrix.alpha[0] == pytest.approx(0.5, abs=1e-8)
            assert result.matrix.alpha[1:] == (0.0, 0.0, 0.0)

    def test_round_trip_along_curve(self):
        for p in trace_left_curve(50)[1:]:
            direct = realize(p.point)
            assert direct.method is Method.BOUNDARY_CL
            assert direct.matrix.alpha[0] == pytest.approx(p.param, abs=1e-8)
            assert realize_via_criterion(p.point) == direct

    @pytest.mark.parametrize("route", ROUTES)
    def test_wide_band_certified_or_no_convergence(self, route):
        # the certificate is the one check: a target in a wide band, off the
        # curve, gets the anchor of its hop's real part or NoConvergence
        band = 1e-5
        outcomes = {"certified": 0, "missed": 0}
        for p in trace_left_curve(200)[1:]:
            for g in (-9e-6, -1e-6, -1e-8, 1e-8, 1e-6, 9e-6):
                lam = off_left_curve(p.point, g)
                if membership(lam, band).status is not Status.BOUNDARY_CL:
                    continue
                try:
                    result = route(lam, band)
                except NoConvergence:
                    outcomes["missed"] += 1
                    continue
                assert result.method is Method.BOUNDARY_CL
                assert result.residual == eigen_residual(result.matrix, lam) <= 1e-8
                outcomes["certified"] += 1
        assert min(outcomes.values()) > 0


def relative_form(mu: complex) -> float:
    return left_boundary_form(mu.real, mu.imag) / abs(mu) ** 2


class TestRayToLeftBoundary:
    """``synthesis._left_hit``: the ray from 1 through an interior target
    meets the left curve at mu, with lam = (1 - l) + l mu."""

    def interior_solves(self, monkeypatch) -> list:
        calls = []
        solve = synthesis._left_hit
        monkeypatch.setattr(synthesis, "_left_hit", lambda lam: calls.append(lam) or solve(lam))
        return calls

    def test_right_segment_point_not_interior(self, monkeypatch):
        calls = self.interior_solves(monkeypatch)
        assert realize(0.5 + 0.5j).method is Method.BOUNDARY_CR  # a + b = 1: on the segment
        assert calls == []

    def test_outside_not_interior(self, monkeypatch):
        calls = self.interior_solves(monkeypatch)
        with pytest.raises(OutsideRegion):
            realize_via_criterion(0.05 + 0.1j)  # beyond the left curve
        assert calls == []

    def test_interior_example(self):
        mu, l, tau, _ = synthesis._left_hit(0.2 + 0.3j)
        assert 0.8 < l < 1.0
        assert abs(relative_form(mu)) < 1e-12
        assert 0.0 < mu.real <= 1.0 / 6.0 + 1e-9
        assert mu.imag > 0.0
        # the anchor with hop tau has mu in its spectrum, so tau is real there
        assert abs(synthesis._anchor_hop(mu).imag) < 1e-12
        assert eigen_residual(CycleMatrix4((1.0 - tau, 0, 0, 0)), mu) < 1e-12

    def test_near_one_example(self):
        mu, l, _, _ = synthesis._left_hit(0.9 + 0.05j)
        assert 0.1 < l < 1.0
        assert abs(relative_form(mu)) < 1e-12

    def test_hit_point_is_on_ray(self):
        rng = np.random.default_rng(6)
        for lam in sample_inside_nonreal(rng, 40):
            mu, l, tau, _ = synthesis._left_hit(lam)
            assert abs(mu - (1.0 + (lam - 1.0) / l)) < 1e-12
            assert 0.0 < l <= 1.0 and 0.0 < tau <= 1.0


class TestShrink:
    """``_shrunk_alpha(l, tau)`` is (1-l) I + l A for the anchor with hop
    weights (tau, 1, 1, 1), the one shrink every construction uses."""

    def test_identity_factor(self):
        # l = 1 leaves the anchor: the left curve's weights come back bit for bit
        for p in trace_left_curve(400):
            tau = synthesis._anchor_hop(p.point).real
            assert synthesis._shrunk_alpha(1.0, tau) == (1.0 - tau, 0.0, 0.0, 0.0)

    def test_permutation_to_half(self):
        alpha = synthesis._shrunk_alpha(0.5, 1.0)
        assert alpha == (0.5, 0.5, 0.5, 0.5)
        assert min(abs(r - (0.5 + 0.5j)) for r in spectrum(CycleMatrix4(alpha))) < 1e-10

    def test_spectrum_maps_affinely(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            tau = rng.uniform(0.0, 1.0)
            l = rng.uniform(0.05, 1.0)
            shrunk = CycleMatrix4(synthesis._shrunk_alpha(l, tau))
            mapped = sorted(
                ((1.0 - l) + l * r for r in spectrum(CycleMatrix4((1.0 - tau, 0, 0, 0)))),
                key=lambda z: (z.real, z.imag),
            )
            for got, want in zip(spectrum(shrunk), mapped):
                assert abs(got - want) < 1e-8

    def test_accepts_int_factor(self):
        assert synthesis._shrunk_alpha(1, 0.63) == synthesis._shrunk_alpha(1.0, 0.63)


class TestRealize:
    def test_minus_one(self):
        r = realize(-1 + 0j)
        assert r.method is Method.REAL_INTERVAL
        assert r.matrix.alpha == (0.0, 0.0, 0.0, 0.0)
        assert r.residual == 0.0

    def test_plus_one_uses_permutation(self):
        r = realize(1 + 0j)
        assert r.matrix.alpha == (0.0, 0.0, 0.0, 0.0)
        assert eigen_residual(r.matrix, 1.0) == 0.0

    @pytest.mark.parametrize("r", [-1.0000000005, 1.0000000005])
    def test_real_endpoint_just_past_band(self, r):
        # membership accepts these inside the boundary band; the plain cycle
        # has both +-1 in its spectrum
        assert membership(complex(r, 0.0)).status is Status.BOUNDARY_REAL_ENDPOINT
        result = realize(complex(r, 0.0))
        assert result.method is Method.REAL_INTERVAL
        assert result.matrix.alpha == (0.0, 0.0, 0.0, 0.0)
        assert result.residual < 1e-8

    @pytest.mark.parametrize("lam", [1.0000000005j, 1e-10 + 1.0000000004j])
    def test_past_i_inside_band_gets_plain_cycle(self, lam):
        # BoundaryCR inside the band: the weight 1 - |b| is clamped at 0
        result = realize(lam)
        assert result.method is Method.BOUNDARY_CR
        assert result.matrix.alpha == (0.0, 0.0, 0.0, 0.0)
        assert result.residual < 1e-8

    @pytest.mark.parametrize("r", [1.0 - 1e-12 / 2, 1.0 - 2.0**-52, 1.0 - 2.0**-53])
    def test_real_target_just_below_one(self, r):
        # the plain cycle serves only where the shrunk weight 1 - l rounds
        # onto 1; closer to 1 than 1e-12 the target stays an eigenvalue
        direct = realize(complex(r, 0.0))
        assert realize_via_criterion(complex(r, 0.0)) == direct
        assert direct.method is Method.REAL_INTERVAL
        gap = min(abs(root - r) for root in oracle_roots(direct.matrix.alpha))
        assert gap <= 2.0**-53

    def test_real_interior(self):
        r = realize(0.7 + 0j)
        assert r.method is Method.REAL_INTERVAL
        assert r.matrix.alpha == (0.85, 0.85, 0.85, 0.85)
        assert min(abs(v - 0.7) for v in spectrum(r.matrix)) < 1e-10

    def test_at_i_both_constructions_coincide(self):
        r = realize(1j)
        assert r.method is Method.BOUNDARY_CR
        assert r.matrix.alpha == (0.0, 0.0, 0.0, 0.0)

    def test_right_segment(self):
        r = realize(0.5 + 0.5j)
        assert r.method is Method.BOUNDARY_CR
        assert r.matrix.alpha == (0.5, 0.5, 0.5, 0.5)

    def test_left_curve(self):
        lam = left_branch_root(0.37)
        r = realize(lam)
        assert r.method is Method.BOUNDARY_CL
        assert r.matrix.alpha[1:] == (0.0, 0.0, 0.0)
        assert r.matrix.alpha[0] == pytest.approx(0.37, abs=1e-8)
        assert r.residual < 1e-8

    def test_interior_shrink(self):
        lam = 0.2 + 0.3j
        r = realize(lam)
        assert r.method is Method.INTERIOR_SHRINK
        assert r.residual < 1e-8
        assert r.mu is not None and r.shrink_l is not None
        assert abs((1.0 - r.shrink_l) + r.shrink_l * r.mu - lam) < 1e-10
        assert abs(left_boundary_form(r.mu.real, r.mu.imag)) < 1e-9

    def test_lower_half_plane_conjugate(self):
        upper = realize(0.2 + 0.3j)
        lower = realize(0.2 - 0.3j)
        assert lower.matrix == upper.matrix
        assert lower.residual < 1e-8

    def test_outside_rejected(self):
        with pytest.raises(OutsideRegion):
            realize(0.05 + 0.1j)
        with pytest.raises(OutsideRegion):
            realize(2.0 + 0j)

    def test_residual_miss_raises_no_convergence(self, monkeypatch):
        # 0.2+0.3j is interior; only a bound below its defect is out of reach
        monkeypatch.setattr(matrix, "_GUARD", 1e-17)
        with pytest.raises(NoConvergence, match="missed the residual contract"):
            realize(0.2 + 0.3j)

    def test_one_bound_guards_spectra_and_certifies_constructions(self, monkeypatch):
        # matrix._GUARD is read at call time by both: one patch below the
        # defects 5.6e-17 of this construction and 3.9e-18 of this pair
        # refuses both
        monkeypatch.setattr(matrix, "_GUARD", 1e-18)
        with pytest.raises(NoConvergence, match="missed the residual contract"):
            realize(0.2 + 0.3j)
        with pytest.raises(SpectrumFailure, match="violates the residual contract"):
            spectrum(CycleMatrix4((0.3, 0.7, 0.1, 0.9)))

    def test_json_shape(self):
        data = realize(0.2 + 0.3j).to_dict()
        assert set(data) == {"alpha", "method", "mu", "l", "residual"}
        data = realize(0.5 + 0.5j).to_dict()
        assert set(data) == {"alpha", "method", "residual"}

    @pytest.mark.parametrize("lam", [0.85 + 1e-6j, 0.8 + 1e-6j])
    def test_near_axis_leaks_no_parameter_error(self, lam):
        # both leaked CycleMatrix4's weight error once: a shrunk weight
        # (1 - l) + l*alpha rounded onto 1
        try:
            realize(lam)
        except Cycle4Error as err:
            assert type(err) is AlphaOutOfRange

    def test_near_axis_raises_only_alpha_out_of_range(self):
        messages = {}
        for b in (2e-6, 1e-6, 1e-7):
            for k in range(1, 100):
                try:
                    realize(complex(k / 100, b))
                except Cycle4Error as err:
                    messages.setdefault(type(err), []).append(str(err))
        assert set(messages) == {AlphaOutOfRange}
        # the anchor weight rounds onto 1, and so does some shrunk weight
        assert any("shrunk weight" in m for m in messages[AlphaOutOfRange])

    def test_boundary_completeness(self):
        for p in trace_right_segment(21):
            r = realize(p.point)
            assert r.residual < 1e-8
        for p in trace_left_curve(21):
            r = realize(p.point)
            assert r.residual < 1e-8
            assert r.method in (Method.BOUNDARY_CL, Method.BOUNDARY_CR)


class TestRefusal:
    """A construction whose shrunk weight collapses onto 1 is refused by the
    weights' own range test, before any matrix is built."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("lam, band", [
        (0.35 + 1e-8j, region._BAND),
        # tau = -0.0, so 1 - l tau is exactly 1.0
        ((1 - 2**-53) + 1e-200j, 1e-300),
    ])
    def test_refusal_builds_no_matrix(self, monkeypatch, route, lam, band):
        built = []

        def recording(alpha):
            built.append(alpha)
            return CycleMatrix4(alpha)

        monkeypatch.setattr(synthesis, "CycleMatrix4", recording)
        with pytest.raises(AlphaOutOfRange) as err:
            route(lam, band)
        assert str(err.value) == f"shrunk weight for {lam!r} collapses onto 1"
        assert built == []

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        b_exp=st.floats(-300.0, -4.0),
        band_exp=st.floats(-300.0, -9.0),
        route=st.sampled_from(ROUTES),
    )
    def test_refused_exactly_when_a_weight_leaves_the_range(self, a, b_exp, band_exp, route):
        # a route makes one weight tuple unless it raises first; any error
        # not named below, ArgumentOutOfRange among them, fails the test
        made, shrunk_alpha = [], synthesis._shrunk_alpha

        def recording(l, tau):
            made.append(shrunk_alpha(l, tau))
            return made[-1]

        with mock.patch.object(synthesis, "_shrunk_alpha", recording):
            try:
                result = route(complex(a, 10.0**b_exp), 10.0**band_exp)
            except AlphaOutOfRange:
                assert not all(0.0 <= w < 1.0 for w in made[0])
                return
            except (OutsideRegion, NoConvergence, ValueError):
                assert all(0.0 <= w < 1.0 for alpha in made for w in alpha)
                return
        assert all(0.0 <= w < 1.0 for w in made[0])
        assert all(0.0 <= w < 1.0 for w in result.matrix.alpha)


class TestCrossConstruction:
    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75])
    def test_both_routes_realize_right_segment_band(self, a):
        # just past a + b = 1, inside the band membership applies
        lam = complex(a, 1.0 - a + region._BAND / 2)
        assert membership(lam).status is Status.BOUNDARY_CR
        direct = realize(lam)
        via = realize_via_criterion(lam)
        assert direct.method is Method.BOUNDARY_CR
        assert direct.residual < 1e-8 and via.residual < 1e-8

    def test_both_routes_realize_real_by_band(self):
        # |b| < band is real to membership; the criterion's weights would
        # round onto 1 there, and b = 0 has no criterion at all
        rng = np.random.default_rng(29)
        for a in [*rng.uniform(0.0, 1.0, 100), -0.5]:
            for lam in (complex(a, 5e-10), complex(a, -5e-10), complex(a, 0.0)):
                assert membership(lam).status is Status.INSIDE_REAL_INTERVAL
                via = realize_via_criterion(lam)
                assert via.method is Method.REAL_INTERVAL
                assert via == realize(lam)
                assert via.residual < 1e-8

    def test_two_routes_realize_same_point(self):
        rng = np.random.default_rng(13)
        for lam in sample_inside_nonreal(rng, 30):
            direct = realize(lam)
            via = realize_via_criterion(lam)
            assert direct.residual < 1e-8
            assert via.residual < 1e-8
            assert via.method is Method.CRITERION_SOLVER
            assert min(abs(r - lam) for r in spectrum(direct.matrix)) < 1e-5
            assert min(abs(r - lam) for r in spectrum(via.matrix)) < 1e-5
            # one solver serves both routes: the criterion weights
            # (w, w, w, w4) are realize's (w4, w, w, w) bit for bit
            assert via.matrix.alpha == direct.matrix.alpha[1:] + direct.matrix.alpha[:1]

    def test_criterion_route_realizes_band_beyond_left_curve(self):
        # the left form is negative here but inside the band: membership says
        # BoundaryCL, and both routes build the left-curve anchor
        points = trace_left_curve(400)[1:]
        for g in (-1e-11, -5e-10, -9e-10):
            for p in points:
                lam = off_left_curve(p.point, g)
                via = realize_via_criterion(lam)
                assert via.method is Method.BOUNDARY_CL
                assert via.residual <= 1e-8
                assert via == realize(lam)

    def test_criterion_route_rejects_outside(self):
        with pytest.raises(OutsideRegion):
            realize_via_criterion(0.05 + 0.1j)

    @pytest.mark.parametrize("route", [realize, realize_via_criterion])
    @pytest.mark.parametrize("lam", [0.3 + 9e-8j, 0.5 + 0.5000000005j])
    def test_defect_equal_to_tolerance_accepted(self, monkeypatch, route, lam):
        # ``matrix._GUARD`` is the largest accepted defect
        band = 1e-7
        monkeypatch.setattr(matrix, "_GUARD", 1.0)
        defect = route(lam, band).residual
        assert defect > 0.0
        monkeypatch.setattr(matrix, "_GUARD", defect)
        found = route(lam, band)
        assert found.residual == defect

    def test_interior_points_have_positive_real_part(self):
        # on the imaginary axis the left form is negative below i, so no
        # axis point is classified interior
        for b in np.linspace(0.01, 1.5, 80):
            assert membership(complex(0.0, b)).status is not Status.INSIDE_NONREAL


class TestSearchCost:
    """Newton evaluations of the one interior solve, as the fourth value of
    ``synthesis._left_hit``, which evaluates Q once per step."""

    @staticmethod
    def evaluations(monkeypatch) -> list:
        """Wrap ``_left_hit`` to record the count of each solve."""
        counts = []
        solve = synthesis._left_hit

        def counting(lam):
            hit = solve(lam)
            counts.append(hit[3])
            return hit

        monkeypatch.setattr(synthesis, "_left_hit", counting)
        return counts

    @staticmethod
    def evaluations_over_grid(counts, route, method) -> tuple[int, int]:
        fewest, worst = 8, 0
        for lam in interior_grid():
            counts.clear()
            assert route(lam).method is method
            (n,) = counts  # one solve per interior target
            fewest, worst = min(fewest, n), max(worst, n)
        return fewest, worst

    def test_path_evaluations_per_solve(self, monkeypatch):
        counts = self.evaluations(monkeypatch)
        fewest, worst = self.evaluations_over_grid(counts, realize_via_criterion,
                                                   Method.CRITERION_SOLVER)
        assert 1 <= fewest and worst <= 8  # an uncounted evaluation would read 0

    def test_form_calls_per_interior_realize(self, monkeypatch):
        counts = self.evaluations(monkeypatch)
        fewest, worst = self.evaluations_over_grid(counts, realize, Method.INTERIOR_SHRINK)
        assert 1 <= fewest and worst <= 8

    def test_edge_targets(self):
        # strictly interior, though the default band may class some as
        # boundary: 1e-15 under the right segment, b = 1e-200, next to i
        targets = [complex(a, 1.0 - a - 1e-15) for a in np.linspace(0.05, 0.95, 19)]
        targets += [complex(a, 1e-200) for a in np.linspace(0.05, 0.95, 19)]
        targets += [complex(a, 1.0 - a - a * a / 4.0) for a in (1e-2, 1e-3, 1e-4)]
        for lam in targets:
            mu, l, tau, n = synthesis._left_hit(lam)
            assert 1 <= n <= 8
            assert 0.0 < l <= 1.0 and mu.imag > 0.0 and 0.0 <= tau <= 1.0

    @staticmethod
    def route_step_bound(monkeypatch, route):
        counts = TestSearchCost.evaluations(monkeypatch)
        for lam, bound in ((0.2 + 0.3j, 6), (0.9 + 0.05j, 7)):
            counts.clear()
            result = route(lam)
            assert result.residual == eigen_residual(result.matrix, lam) <= 1e-8
            (n,) = counts
            assert 1 <= n <= bound

    def test_ray_obeys_iteration_cap(self, monkeypatch):
        self.route_step_bound(monkeypatch, realize)

    def test_criterion_path_obeys_iteration_cap(self, monkeypatch):
        self.route_step_bound(monkeypatch, realize_via_criterion)


class TestQuartic:
    """The interior equation is the left form on the ray, as a quartic in
    c = cot(arg mu)."""

    @staticmethod
    def defect(coefficients):
        sympy = pytest.importorskip("sympy")
        x, y, c = sympy.symbols("x y c")
        l = y * c - x
        q4, q3, q2, q0 = coefficients(x, y)
        quartic = q4 * c**4 + q3 * c**3 + q2 * c**2 + q0
        return sympy.cancel(left_boundary_form(y * c / l, y / l) * l**4 - y**2 * quartic)

    def test_left_form_on_the_ray(self):
        assert self.defect(synthesis._quartic) == 0

    def test_mutated_coefficient_detected(self):
        def mutated(x, y):
            q4, q3, _, q0 = synthesis._quartic(x, y)
            return q4, q3, 2 * (x * x + y * y), q0

        assert self.defect(mutated) != 0

    def test_one_sign_change_inside(self):
        rng = np.random.default_rng(17)
        for lam in sample_inside_nonreal(rng, 200):
            q4, q3, q2, q0 = synthesis._quartic(lam.real - 1.0, lam.imag)
            assert min(q4, q3, q2) > 0.0 > q0


class TestRobustness:
    @settings(max_examples=300, deadline=None)
    @given(
        band=st.floats(5e-324, 1e-3),
        a=st.floats(0.0, 1.0, exclude_max=True),
        kind=st.sampled_from(["any", "axis", "segment"]),
        b=st.floats(5e-324, 1.0),
        ulps=st.integers(1, 4),
        route=st.sampled_from([realize, realize_via_criterion]),
    )
    def test_certified_or_documented_error(self, band, a, kind, b, ulps, route):
        # targets from b = 5e-324 up, and down to one ulp under the right
        # segment; a ZeroDivisionError or any other type fails the test
        if kind == "axis":
            b = min(b, 1e-3)
        elif kind == "segment":
            b = 1.0 - a - ulps * math.ulp(1.0 - a)
        lam = complex(a, b)
        try:
            result = route(lam, band)
        except (Cycle4Error, ValueError):
            return
        assert result.residual == eigen_residual(result.matrix, lam) <= matrix._GUARD
