"""Exact scalars: rational literals and Gaussian rationals.

A rational literal parses to integers (numerator, denominator), and the
parser builds lines from those.  Every exact number the package writes
out, a coefficient or a coordinate (re + im i)/n, is kept as integers
and written straight from them: `rational_text` writes p/n in lowest
terms as `str(Fraction(p, n))` would, and `gaussian_text` and
`gaussian_json` write (re, im, n) as text and in COEF wire form.
"""

from __future__ import annotations

import re as _re
from math import gcd

from .errors import ParseError

_RATIONAL_RE = _re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(value) -> tuple[int, int]:
    """Parse an exact rational from a JSON scalar: an int, "p" or "p/q".

    Returns (numerator, denominator), denominator >= 1.  Floating-point
    input is rejected; exactness is the whole point.
    """
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ParseError(f"not an exact rational literal: {value!r}")
        num, _, den = value.partition("/")
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


def rational_text(p: int, n: int) -> str:
    """p/n in lowest terms, written as `str(Fraction(p, n))` writes it; n > 0."""
    g = gcd(p, n)
    p, n = p // g, n // g
    return str(p) if n == 1 else f"{p}/{n}"


def gaussian_text(re: int, im: int, n: int) -> str:
    """(re + im i)/n as text: "1/2", "-1/2i" or "1/2+1/3i"; n > 0."""
    if im == 0:
        return rational_text(re, n)
    if re == 0:
        return f"{rational_text(im, n)}i"
    sign = "+" if im > 0 else "-"
    return f"{rational_text(re, n)}{sign}{rational_text(abs(im), n)}i"


def gaussian_json(re: int, im: int, n: int):
    """(re + im i)/n in COEF wire form: "p/q", or {"im": ..., "re": ...}; n > 0."""
    if im == 0:
        return rational_text(re, n)
    return {"im": rational_text(im, n), "re": rational_text(re, n)}

