"""Exact algebra of products of (t^m - 1) factors.

Every characteristic polynomial and zeta function in this package is a
finite product prod_m (t^m - 1)^{c_m} with integer exponents c_m, stored
sparsely as a map {m: c_m}.  Negative exponents are first class: zeta
functions are rational functions.  Because t^m - 1 = prod_{N | m} Phi_N(t)
(Phi_N the N-th cyclotomic polynomial), refactoring over the cyclotomic
basis turns root-multiplicity questions into exact integer divisor sums,
which is how all multiplicity counting is done here.

Dense expansion never builds a cyclotomic polynomial: each positive factor
is one shift-subtract, then each negative one an exact division by the
recurrence q[k] = q[k-m] - p[k].  D+ = sum_{c>0} m*c bounds every list
length and S+ = sum_{c>0} c counts the steps and bounds the coefficient
bits (each factor has l1-norm 2), so EXPAND_LIMIT caps D+ * S+.

Dense polynomials, where they appear, are ascending integer coefficient
lists: [c0, c1, ...] means c0 + c1*t + ...
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from operator import sub

from .errors import BadOrder, ExpandTooLarge, IndexTooLarge, NegativeExponent, NotPolynomial

EXPAND_LIMIT = 10**7
"""Largest D+ * S+ that FactoredUnityPoly.expand accepts (see the module doc)."""

INDEX_LIMIT = 10**12
"""Largest n whose divisors are enumerated: trial division up to sqrt(n)."""


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending; IndexTooLarge above INDEX_LIMIT."""
    if n > INDEX_LIMIT:
        raise IndexTooLarge(f"index {n} is above INDEX_LIMIT = {INDEX_LIMIT}")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def require_order(order: int) -> None:
    """BadOrder unless `order` is an int >= 1, the order of a root of unity."""
    if type(order) is not int or order < 1:
        raise BadOrder(f"order must be a positive integer, got {order!r}")


def _divide_exact(p: list[int], m: int) -> list[int] | None:
    """p / (t^m - 1), or None when that is not a polynomial.

    Runs q[k] = q[k-m] - p[k] over all of p, one block of m at a time; the
    division is exact if and only if the top m entries of q vanish.
    """
    cut = len(p) - m
    if cut < 1:
        return None
    q = [-x for x in p[:m]]
    for start in range(m, len(p), m):
        q += map(sub, q[start - m : start], p[start : start + m])
    return None if any(q[cut:]) else q[:cut]


class _ExponentMap:
    """An immutable sparse map {index >= 1: exponent}; repeats summed, zeros dropped."""

    __slots__ = ("_items",)
    _INDEX = "factor"  # how a ValueError names the index

    def __init__(self, pairs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = pairs.items() if isinstance(pairs, Mapping) else pairs
        merged: dict[int, int] = {}
        for m, c in pairs:
            if m < 1:
                raise ValueError(f"{self._INDEX} index must be >= 1, got {m}")
            merged[m] = merged.get(m, 0) + c
        self._items = tuple(sorted((m, c) for m, c in merged.items() if c != 0))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self._items)!r})"


class FactoredUnityPoly(_ExponentMap):
    """A product prod_m (t^m - 1)^{c_m}, exponents possibly negative.

    Values are immutable; all operations return new objects.  The degree
    sum(m * c_m) may be negative for proper rational functions.
    """

    __slots__ = ()

    @property
    def factors(self) -> dict[int, int]:
        return dict(self._items)

    @property
    def is_one(self) -> bool:
        return not self._items

    def __mul__(self, other: "FactoredUnityPoly") -> "FactoredUnityPoly":
        return FactoredUnityPoly(list(self._items) + list(other._items))

    def __pow__(self, exponent: int) -> "FactoredUnityPoly":
        return FactoredUnityPoly((m, c * exponent) for m, c in self._items)

    def degree(self) -> int:
        """sum(m * c_m); the polynomial degree when all exponents are >= 0."""
        return sum(m * c for m, c in self._items)

    def has_negative_exponent(self) -> bool:
        return any(c < 0 for _, c in self._items)

    def has_pole(self) -> bool:
        """Whether some cyclotomic exponent eps_N = sum_{N | m} c_m is negative.

        eps_N < 0 needs some c_m < 0 with N | m, so only the divisors of
        indices with a negative exponent are tried, and a value with no
        negative exponent enumerates no divisors at all.
        """
        for m, c in self._items:
            if c < 0:
                for n in divisors(m):
                    if sum(c2 for m2, c2 in self._items if m2 % n == 0) < 0:
                        return True
        return False

    def to_cyclotomic(self) -> "CyclotomicExponents":
        """Refactor over the cyclotomic basis: t^m - 1 = prod_{N|m} Phi_N.

        Raises IndexTooLarge when an index is above INDEX_LIMIT.
        """
        eps: dict[int, int] = {}
        for m, c in self._items:
            for n in divisors(m):
                eps[n] = eps.get(n, 0) + c
        return CyclotomicExponents(eps)

    def root_multiplicity(self, order: int) -> int:
        """Multiplicity of a primitive order-th root of unity, as a divisor sum.

        Equals the actual root multiplicity whenever all exponents are
        nonnegative; for rational functions it is the order of vanishing
        (negative at poles).
        """
        require_order(order)
        return sum(c for m, c in self._items if m % order == 0)

    def expand(self) -> list[int]:
        """Dense ascending integer coefficients of the expanded product.

        Requires the value to be an honest polynomial: every cyclotomic
        exponent must be nonnegative (individual factor exponents may
        still be negative, e.g. {2: 1, 1: -1} expands to t + 1).  Raises
        ExpandTooLarge, before any coefficient list is built, when
        D+ * S+ exceeds EXPAND_LIMIT, and NotPolynomial when a division
        leaves a remainder or would give a negative degree.  The message
        shows the cyclotomic form, or the factored form when an index is
        above INDEX_LIMIT.
        """
        positive = [(m, c) for m, c in self._items if c > 0]
        degree = sum(m * c for m, c in positive)
        steps = sum(c for _, c in positive)
        if degree * steps > EXPAND_LIMIT:
            raise ExpandTooLarge(
                f"expansion needs D+ * S+ = {degree} * {steps} > EXPAND_LIMIT = {EXPAND_LIMIT}"
            )
        out = [1]
        for m, c in positive:
            pad = [0] * m
            for _ in range(c):
                out = list(map(sub, pad + out, out + pad))
        for m, c in self._items:
            for _ in range(-c):
                out = _divide_exact(out, m)
                if out is None:
                    shown = self if self._items[-1][0] > INDEX_LIMIT else self.to_cyclotomic()
                    raise NotPolynomial(f"{shown} has a pole; cannot expand")
        return out

    def __str__(self) -> str:
        if not self._items:
            return "1"
        parts = []
        for m, c in self._items:
            base = "(t-1)" if m == 1 else f"(t^{m}-1)"
            parts.append(base if c == 1 else f"{base}^{c}")
        return "".join(parts)

    def to_json(self) -> dict[str, int]:
        return {str(m): c for m, c in self._items}


class CyclotomicExponents(_ExponentMap):
    """A product prod_N Phi_N(t)^{eps_N} over cyclotomic polynomials."""

    __slots__ = ()
    _INDEX = "cyclotomic"

    @property
    def exponents(self) -> dict[int, int]:
        return dict(self._items)

    def multiplicity(self, order: int) -> int:
        """Exponent of Phi_order, whose roots are the primitive order-th roots of unity."""
        require_order(order)
        return dict(self._items).get(order, 0)

    def __str__(self) -> str:
        if not self._items:
            return "1"
        return "".join(
            f"Phi_{n}" + (f"^{e}" if e != 1 else "") for n, e in self._items
        )


def gcd_factored(a: FactoredUnityPoly, b: FactoredUnityPoly) -> CyclotomicExponents:
    """Greatest common divisor of two factored polynomials.

    Both inputs must have nonnegative factor exponents; the gcd is the
    entrywise minimum of their cyclotomic exponent vectors.
    """
    if a.has_negative_exponent() or b.has_negative_exponent():
        raise NegativeExponent("gcd requires nonnegative exponents")
    ea = a.to_cyclotomic().exponents
    eb = b.to_cyclotomic().exponents
    return CyclotomicExponents(
        {n: min(ea[n], eb[n]) for n in ea.keys() & eb.keys()}
    )
