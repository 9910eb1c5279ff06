"""Exact verification of the algebraic identities behind the region math.

Floating-point code elsewhere evaluates the boundary forms and bounds; this
module proves the algebra itself, as zero-polynomial identities over the
integers, using a small two-variable polynomial engine with arbitrary
precision coefficients.  Nothing here is approximate: an identity either
reduces to the zero polynomial or the nonzero residual is reported.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Mapping

_VARS = ("a", "b")


class BivarPoly:
    """Polynomial in the two variables ``a`` and ``b`` with exact integer
    coefficients.

    Stored as a mapping from exponent pairs to coefficients with zero
    coefficients dropped, so structural equality is polynomial equality.
    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if not (isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0):
                    raise ValueError(f"bad exponent pair {(i, j)!r}")
                c = int(c)
                if c != 0:
                    clean[(i, j)] = clean.get((i, j), 0) + c
                    if clean[(i, j)] == 0:
                        del clean[(i, j)]
        self._coeffs = clean

    @classmethod
    def constant(cls, c: int) -> "BivarPoly":
        return cls({(0, 0): int(c)})

    @classmethod
    def variable(cls, name: str) -> "BivarPoly":
        if name == "a":
            return cls({(1, 0): 1})
        if name == "b":
            return cls({(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}; engine knows {_VARS}")

    @property
    def coeffs(self) -> dict[tuple[int, int], int]:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        if not self._coeffs:
            return 0
        return max(i + j for i, j in self._coeffs)

    @staticmethod
    def _coerce(other) -> "BivarPoly":
        if isinstance(other, BivarPoly):
            return other
        if isinstance(other, int):
            return BivarPoly.constant(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "BivarPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            out[key] = out.get(key, 0) + c
        return BivarPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({key: -c for key, c in self._coeffs.items()})

    def __sub__(self, other) -> "BivarPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BivarPoly":
        return (-self) + other

    def __mul__(self, other) -> "BivarPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._coeffs.items():
            for (i2, j2), c2 in other._coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return BivarPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BivarPoly":
        if not (isinstance(exponent, int) and exponent >= 0):
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = BivarPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def substitute(self, name: str, replacement: "BivarPoly") -> "BivarPoly":
        """Replace the named variable by a polynomial (e.g. b by b^2)."""
        if name not in _VARS:
            raise ValueError(f"unknown variable {name!r}")
        out = BivarPoly()
        for (i, j), c in sorted(self._coeffs.items()):
            if name == "a":
                term = BivarPoly.constant(c) * replacement**i * BivarPoly({(0, j): 1})
            else:
                term = BivarPoly.constant(c) * BivarPoly({(i, 0): 1}) * replacement**j
            out = out + term
        return out

    def evaluate(self, a: Fraction, b: Fraction) -> Fraction:
        """Exact value at a rational point."""
        a = Fraction(a)
        b = Fraction(b)
        total = Fraction(0)
        for (i, j), c in self._coeffs.items():
            total += c * a**i * b**j
        return total

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for (i, j), c in sorted(self._coeffs.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(_VARS, (i, j))
                if e
            )
            parts.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(parts)


_A = BivarPoly.variable("a")
_B = BivarPoly.variable("b")


def left_boundary_poly() -> BivarPoly:
    """(b^2 + a^2 + a)^2 + 2a^2 - b^2 as an exact polynomial."""
    return (_B**2 + _A**2 + _A) ** 2 + 2 * _A**2 - _B**2


def modulus_threshold_poly() -> BivarPoly:
    """4a^3 - 3a^2 - 4ab^2 + b^2 as an exact polynomial."""
    return 4 * _A**3 - 3 * _A**2 - 4 * _A * _B**2 + _B**2


def complex_powers(k: int) -> list[tuple[BivarPoly, BivarPoly]]:
    """Real/imaginary parts of (a + ib)^0 .. (a + ib)^k as polynomial pairs."""
    powers = [(BivarPoly.constant(1), BivarPoly())]
    for _ in range(k):
        re, im = powers[-1]
        powers.append((re * _A - im * _B, re * _B + im * _A))
    return powers


class IdentityResult(namedtuple("IdentityResult", "ident description residuals")):
    """Outcome of one identity check: a tuple of ``BivarPoly`` residuals,
    all zero when the identity holds."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(r.is_zero() for r in self.residuals)

    @property
    def status(self) -> str:
        if self.ok:
            return "ZeroPolynomial"
        bad = next(r for r in self.residuals if not r.is_zero())
        return f"Failed({bad!r})"


def _quadratic_in_s_residual() -> BivarPoly:
    # Left boundary form rewritten with s = b^2 in the b-slot, then
    # substituted back.
    s = _B
    quadratic = s**2 + s * (2 * _A**2 + 2 * _A - 1) + (_A**2 + _A) ** 2 + 2 * _A**2
    return left_boundary_poly() - quadratic.substitute("b", _B**2)


def _discriminant_residual() -> BivarPoly:
    linear = 2 * _A**2 + 2 * _A - 1
    constant = (_A**2 + _A) ** 2 + 2 * _A**2
    return linear**2 - 4 * constant + (2 * _A + 1) * (6 * _A - 1)


def _root_above_3a2_residual() -> BivarPoly:
    return (1 - 2 * _A - 8 * _A**2) ** 2 - (2 * _A + 1) * (1 - 6 * _A) - 32 * _A**3 - 64 * _A**4


def _root_above_threshold_residual() -> BivarPoly:
    lhs = (1 - 6 * _A + 16 * _A**3) ** 2
    rhs = (1 - 4 * _A) ** 2 * (2 * _A + 1) * (1 - 6 * _A)
    return lhs - rhs - 256 * _A**6


def _factorization_residual() -> BivarPoly:
    modulus6 = (_A**2 + _B**2) ** 3
    return modulus6 - modulus_threshold_poly() - ((_A - 1) ** 2 + _B**2) * left_boundary_poly()


def _imaginary_part_residual() -> BivarPoly:
    powers = complex_powers(4)
    re3, im3 = powers[3]
    re4, im4 = powers[4]
    # Im((lam^4 - 1)(conj(lam)^3 - 1)) with lam = a + ib.
    imag = im4 * (re3 - 1) - (re4 - 1) * im3
    modulus6 = (_A**2 + _B**2) ** 3
    return imag - _B * (modulus6 - modulus_threshold_poly())


def _triple_angle_tangent_residual() -> BivarPoly:
    return (3 * _A**2 * _B - _B**3) * (3 * _B**2 - _A**2) - _B * (_B**2 - 3 * _A**2) * (
        _A**2 - 3 * _B**2
    )


def _triple_angle_sine_cosine_residuals() -> tuple[BivarPoly, BivarPoly]:
    sine = 3 * _B * (_A**2 + _B**2) - 4 * _B**3 - _B * (3 * _A**2 - _B**2)
    cosine = 4 * _A**3 - 3 * _A * (_A**2 + _B**2) - _A * (_A**2 - 3 * _B**2)
    return sine, cosine


def verify_identity_suite() -> list[IdentityResult]:
    """Check all eight identities; failures are reported, never raised."""
    checks: Iterable[tuple[str, str, tuple[BivarPoly, ...]]] = (
        (
            "I1",
            "left boundary form as a quadratic in s = b^2",
            (_quadratic_in_s_residual(),),
        ),
        (
            "I2",
            "discriminant of the quadratic in s",
            (_discriminant_residual(),),
        ),
        (
            "I3",
            "smaller quadratic root exceeds 3a^2 (squared comparison)",
            (_root_above_3a2_residual(),),
        ),
        (
            "I4",
            "smaller quadratic root exceeds the threshold zero (squared comparison)",
            (_root_above_threshold_residual(),),
        ),
        (
            "I5",
            "|lam|^6 - threshold factors through the left boundary form",
            (_factorization_residual(),),
        ),
        (
            "I6",
            "imaginary part of (lam^4 - 1)(conj(lam)^3 - 1)",
            (_imaginary_part_residual(),),
        ),
        (
            "I7",
            "triple-angle tangent, cross-multiplied",
            (_triple_angle_tangent_residual(),),
        ),
        (
            "I8",
            "triple-angle sine and cosine expansions",
            _triple_angle_sine_cosine_residuals(),
        ),
    )
    return [IdentityResult(ident, desc, residuals) for ident, desc, residuals in checks]
