import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cycle4 import (
    left_boundary_form,
    modulus_threshold,
    region,
    verify_identity_suite,
)
from cycle4.identities import GRID, IDENTITIES, grid_witness

RESIDUALS = [(f"{ident}.{k}", residual) for ident, _, residuals in IDENTITIES
             for k, residual in enumerate(residuals)]

# rational lines (a0 + k da, b0 + k db) for the finite-difference guard
LINES = [
    (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(-3, 7), Fraction(2, 5), Fraction(3, 11), Fraction(-5, 13)),
    (Fraction(5, 3), Fraction(-7, 2), Fraction(-2, 9), Fraction(1, 4)),
]


def finite_difference(residual, order, line):
    """``order``-th forward difference of ``residual`` along ``line`` at
    k = 0; zero exactly when the restriction has degree below ``order``."""
    a0, b0, da, db = line
    return sum((-1) ** (order - k) * math.comb(order, k) * residual(a0 + k * da, b0 + k * db)
               for k in range(order + 1))


class TestIdentitySuite:
    def test_all_zero_under_one_second(self):
        start = time.perf_counter()
        results = verify_identity_suite()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert [r.ident for r in results] == [f"I{k}" for k in range(1, 9)]
        for r in results:
            assert r.ok, f"{r.ident}: {r.status}"
            assert r.witness is None
            assert r.status == "ZeroPolynomial"

    def test_grid_is_13_by_13(self):
        assert len(GRID) == 169
        assert {a for a, _ in GRID} == {b for _, b in GRID} == set(range(-6, 7))

    def test_degrees_bounded(self):
        # the 13th difference vanishing bounds the degree by 12, the premise
        # that makes the 13 x 13 grid a proof; the true degree is at most 7
        for name, residual in RESIDUALS:
            for line in LINES:
                assert finite_difference(residual, 13, line) == 0, (name, line)
                assert finite_difference(residual, 8, line) == 0, (name, line)

    def test_degree_guard_rejects_non_polynomials(self):
        def kinked(a, b):
            return abs(a) - a

        # these two vanish on the whole grid, so only the guard tells them
        # from a proved identity
        def rounding(a, b):
            return a - round(a)

        def degree_13(a, b):
            return math.prod(a - k for k in range(-6, 7))

        assert grid_witness((kinked,)) == (-6, -6, 12)
        assert grid_witness((rounding, degree_13)) is None
        line = (Fraction(-1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(1, 11))
        for residual in (kinked, rounding, degree_13):
            assert finite_difference(residual, 13, line) != 0

    def test_residuals_expand_to_zero_in_sympy(self):
        sympy = pytest.importorskip("sympy")
        a, b = sympy.symbols("a b")
        for name, residual in RESIDUALS:
            assert sympy.expand(residual(a, b)) == 0, name

    def test_mutation_in_factorization_detected(self):
        # replacing the left form by form + 1 must leave exactly the
        # cofactor -((a-1)^2 + b^2) behind; equality on the grid is
        # polynomial equality, both sides having degree <= 6 in each variable
        def mutated(a, b):
            g = left_boundary_form(a, b) + 1
            return (a**2 + b**2) ** 3 - modulus_threshold(a, b) - ((a - 1) ** 2 + b**2) * g

        assert grid_witness((mutated,)) is not None
        assert all(mutated(a, b) == -((a - 1) ** 2 + b**2) for a, b in GRID)

    def test_mutations_detected_everywhere(self, monkeypatch):
        # bump one coefficient of each building block; no identity that
        # uses it may stay zero
        form, threshold = region.left_boundary_form, region.modulus_threshold
        monkeypatch.setattr(region, "left_boundary_form", lambda a, b: form(a, b) + a * b)
        failed = {r.ident for r in verify_identity_suite() if not r.ok}
        assert failed == {"I1", "I5"}
        monkeypatch.setattr(region, "left_boundary_form", form)
        monkeypatch.setattr(region, "modulus_threshold", lambda a, b: threshold(a, b) + a * b)
        failed = {r.ident for r in verify_identity_suite() if not r.ok}
        assert failed == {"I5", "I6"}

    def test_discriminant_hand_expansion(self):
        # (2a^2+2a-1)^2 = 4a^4+8a^3-4a+1; 4((a^2+a)^2+2a^2) = 4a^4+8a^3+12a^2;
        # difference -12a^2-4a+1 = -(2a+1)(6a-1); degree 4 in a, checked on
        # 13 integers
        for a in range(-6, 7):
            linear = 2 * a**2 + 2 * a - 1
            assert linear**2 == 4 * a**4 + 8 * a**3 - 4 * a + 1
            diff = linear**2 - 4 * ((a**2 + a) ** 2 + 2 * a**2)
            assert diff == -((2 * a + 1) * (6 * a - 1))


class TestBivarPoly:
    """The region's left boundary form, a bivariate polynomial in (a, b),
    evaluates exactly on fractions."""

    def test_eval_left_form_at_half(self):
        assert left_boundary_form(Fraction(1, 2), Fraction(1, 2)) == Fraction(5, 4)

    def test_eval_is_exact(self):
        a, b = Fraction(3, 7), Fraction(5, 11)
        s = b * b + a * a + a
        assert left_boundary_form(a, b) == s * s + 2 * a * a - b * b


class TestCrossValidation:
    def test_exact_forms_match_floating_forms(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            a = Fraction(int(rng.integers(-200, 200)), 100)
            b = Fraction(int(rng.integers(-200, 200)), 100)
            assert float(left_boundary_form(a, b)) == pytest.approx(
                left_boundary_form(float(a), float(b)), rel=1e-12, abs=1e-12
            )
            assert float(modulus_threshold(a, b)) == pytest.approx(
                modulus_threshold(float(a), float(b)), rel=1e-12, abs=1e-12
            )

    def test_identity_sides_agree_at_random_rationals(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = Fraction(int(rng.integers(-300, 300)), 150)
            b = Fraction(int(rng.integers(-300, 300)), 150)
            lhs = (a * a + b * b) ** 3 - modulus_threshold(a, b)
            rhs = ((a - 1) ** 2 + b * b) * left_boundary_form(a, b)
            assert lhs == rhs

    def test_root_order_sign_checks(self):
        # the two strict inequalities behind the left-strip argument, at
        # exact rational points a = k/100 inside (0, 1/6)
        for k in range(1, 17):
            a = Fraction(k, 100)
            disc = (2 * a + 1) * (1 - 6 * a)
            assert disc > 0
            lhs1 = 1 - 2 * a - 8 * a * a
            assert lhs1 > 0
            # smaller root above 3a^2: squared comparison plus margin 32a^3 + 64a^4
            assert lhs1 * lhs1 - disc == 32 * a**3 + 64 * a**4
            assert lhs1 * lhs1 > disc
            lhs2 = 1 - 6 * a + 16 * a**3
            assert lhs2 > 0
            # smaller root above the threshold zero: margin is exactly 256a^6
            assert lhs2 * lhs2 - (1 - 4 * a) ** 2 * disc == 256 * a**6
            assert lhs2 * lhs2 > (1 - 4 * a) ** 2 * disc
