"""Exact scalars: rational literals, Gaussian rationals, roots of unity.

A rational literal parses to integers (numerator, denominator), and the
parser builds lines from those.  A Gaussian rational re + im*i, a pair of
Fractions, is a value and display type only: what a coefficient or a
coordinate reads as and is written out as.  Roots of unity are stored as
reduced fractions k/order of a full turn, never as floating point, so
divisibility questions about them are integer tests.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ParseError

_RATIONAL_RE = _re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def parse_rational(value) -> tuple[int, int]:
    """Parse an exact rational from a JSON scalar: an int, "p" or "p/q".

    Returns (numerator, denominator), denominator >= 1.  Floating-point
    input is rejected; exactness is the whole point.
    """
    if type(value) is int:
        return value, 1
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
        return num, den
    raise ParseError(f"expected an integer or 'p/q' string, got {value!r}")


def parse_coefficient(value) -> tuple[tuple[int, int], tuple[int, int]]:
    """Parse a COEF, an exact rational scalar or {"re": RAT, "im": RAT}, into its two parts."""
    if isinstance(value, dict):
        unknown = set(value) - {"re", "im"}
        if unknown:
            raise ParseError(f"unknown coefficient keys: {sorted(unknown)}")
        return parse_rational(value.get("re", 0)), parse_rational(value.get("im", 0))
    return parse_rational(value), (0, 1)


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q(i) with exact Fraction components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

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

    def to_json(self) -> dict:
        return {"k": self.k, "order": self.order}
