"""Exact scalar arithmetic: Gaussian rationals and roots of unity.

Rational numbers are plain :class:`fractions.Fraction` values (always
reduced, denominator >= 1).  A Gaussian rational is a pair of Fractions
re + im*i; equality is componentwise and all arithmetic is exact.  Roots
of unity are stored as reduced fractions k/order of a full turn, never as
floating point, so divisibility questions about them are integer tests.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ParseError

_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(value) -> Fraction:
    """Parse an exact rational from a JSON scalar: an int, "p" or "p/q".

    Floating-point input is rejected; exactness is the whole point.
    """
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ParseError(f"not an exact rational literal: {value!r}")
        num, _, den = text.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError as exc:  # only digits get here: over the digit limit
            raise ParseError(f"integer literal: {exc}") from exc
        if den == 0:
            raise ParseError(f"zero denominator: {value!r}")
        return Fraction(num, den)
    raise ParseError(f"expected an integer or 'p/q' string, got {value!r}")


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q(i) with exact Fraction components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_json(self):
        """COEF wire form: a rational string, or {"re":..., "im":...}."""
        if self.im == 0:
            return str(self.re)
        return {"im": str(self.im), "re": str(self.re)}


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))


def parse_coefficient(value) -> GaussianRational:
    """Parse a COEF: an exact rational scalar or {"re": RAT, "im": RAT}."""
    if isinstance(value, dict):
        unknown = set(value) - {"re", "im"}
        if unknown:
            raise ParseError(f"unknown coefficient keys: {sorted(unknown)}")
        return GaussianRational(
            parse_rational(value.get("re", 0)),
            parse_rational(value.get("im", 0)),
        )
    return GaussianRational(parse_rational(value))


@dataclass(frozen=True)
class RootOfUnity:
    """exp(2*pi*i * k/order), stored with k/order in lowest terms.

    Invariants after construction: 0 <= k < order, gcd(k, order) = 1 for
    order > 1, and k = 0 forces order = 1.
    """

    k: int
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        k = self.k % self.order
        g = gcd(k, self.order)
        object.__setattr__(self, "k", k // g)
        object.__setattr__(self, "order", self.order // g)

    @property
    def is_one(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        return f"exp(2*pi*i*{self.k}/{self.order})"

    def to_json(self) -> dict:
        return {"k": self.k, "order": self.order}


UNITY = RootOfUnity(0, 1)
