"""Canonical lines and their integer keys against Fraction oracles.

`Line.canonical` divides a real scale out componentwise and uses the
general Gaussian quotient only for a non-real scale.  Each line carries
its lcm-scaled Gaussian-integer triple and its primitive direction key,
and `WeightedArrangement.build` decides duplicate lines and essentiality
on those integer tuples.  These tests compare all of it with the
Fraction-pair quotient of `_oracles.py` and with Fraction equality, on
real scales other than +-1, negative scales, non-real scales and a = 0.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemono import (
    DuplicateLine,
    GaussianRational,
    Line,
    NotEssential,
    ParseError,
    WeightedArrangement,
    parse_arrangement,
)

from _oracles import cdiv, cmul

ZERO = (Fraction(0), Fraction(0))

rationals = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.fractions(-5, 5, max_denominator=1000),
)
gaussians = st.one_of(
    st.tuples(rationals, st.just(Fraction(0))),
    st.tuples(rationals, rationals),
)
nonzero_rationals = rationals.filter(bool)
scales = st.one_of(
    st.just((Fraction(1), Fraction(0))),
    st.just((Fraction(-1), Fraction(0))),
    st.tuples(nonzero_rationals.filter(lambda q: abs(q) != 1), st.just(Fraction(0))),
    st.tuples(rationals, nonzero_rationals),  # non-real
)


@st.composite
def raw_lines(draw):
    """(a, b, c) as (re, im) Fraction pairs; the scale is a, or b when a = 0."""
    scale = draw(scales)
    if draw(st.booleans()):
        return (ZERO, scale, draw(gaussians))
    return (scale, draw(gaussians), draw(gaussians))


def gaussian(pair):
    return GaussianRational(*pair)


def pair(g):
    return (g.re, g.im)


def line_of(raw):
    return Line.canonical(*(gaussian(z) for z in raw))


def oracle_canonical(raw):
    a, b, c = raw
    scale = a if a != ZERO else b
    return tuple(cdiv(z, scale) for z in raw)


def flat(canon):
    return tuple(q for z in canon for q in z)


def oracle_triple(canon):
    parts = flat(canon)
    scale = lcm(*(q.denominator for q in parts))
    return tuple(int(q * scale) for q in parts)


class TestCanonicalForm:
    @given(raw_lines())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_general_quotient(self, raw):
        line = line_of(raw)
        canon = oracle_canonical(raw)
        assert (pair(line.a), pair(line.b), pair(line.c)) == canon
        assert str(line) == str(Line(*(gaussian(z) for z in canon)))

    @given(raw_lines())
    @settings(max_examples=150, deadline=None)
    def test_triple_and_direction_key(self, raw):
        line = line_of(raw)
        canon = oracle_canonical(raw)
        assert line.triple == oracle_triple(canon)
        # Primitive, and a positive multiple of the canonical coefficients.
        assert gcd(*line.triple) == 1
        parts = flat(canon)
        unit = 0 if canon[0] != ZERO else 2  # the entry scaled to 1
        assert line.triple[unit] > 0
        assert all(k == q * line.triple[unit] for k, q in zip(line.triple, parts))
        g = gcd(*line.triple[:4])
        assert line.direction_key == tuple(k // g for k in line.triple[:4])
        assert gcd(*line.direction_key) == 1 and line.direction_key[unit] > 0

    def test_keys_take_no_part_in_equality_or_repr(self):
        one, half = GaussianRational.of(1), GaussianRational.of(Fraction(1, 2))
        line = Line.canonical(GaussianRational.of(2), one, one)
        assert line == Line(one, half, half)
        assert hash(line) == hash(Line(one, half, half))
        assert line.triple == (2, 0, 1, 0, 1, 0)
        assert line.direction_key == (2, 0, 1, 0)
        assert "triple" not in repr(line) and "direction_key" not in repr(line)
        assert str(line) == "(1)x + (1/2)y + (1/2) = 0"


def oracle_build(raws):
    """(error type, message) that build must raise, or (None, None), by Fraction equality."""
    canon = [oracle_canonical(raw) for raw in raws]
    for j in range(len(canon)):
        for i in range(j):
            if canon[i] == canon[j]:
                shown = Line(*(gaussian(z) for z in canon[j]))
                return DuplicateLine, f"lines {i} and {j} canonicalize to {shown}"
    if len(canon) < 2 or len({(a, b) for a, b, _ in canon}) < 2:
        return NotEssential, "need at least two non-parallel lines"
    return None, None


@st.composite
def line_lists(draw):
    """Lines with forced duplicates (Gaussian multiples) and parallels (new c)."""
    raws = draw(st.lists(raw_lines(), min_size=1, max_size=5))
    for raw in list(raws):
        factor = draw(st.one_of(st.none(), gaussians.filter(lambda z: z != ZERO)))
        if factor is not None:
            a, b, c = (cmul(factor, z) for z in raw)
            raws.append((a, b, draw(st.one_of(st.just(c), gaussians))))
    return draw(st.permutations(raws))


class TestBuildDecisions:
    @given(line_lists())
    @settings(max_examples=150, deadline=None)
    def test_duplicate_and_essential_against_fraction_equality(self, raws):
        expected, message = oracle_build(raws)
        lines = [line_of(raw) for raw in raws]
        if expected is None:
            arr = WeightedArrangement.build(lines, [1] * len(lines))
            assert arr.lines == tuple(lines)
        else:
            with pytest.raises(expected) as info:
                WeightedArrangement.build(lines, [1] * len(lines))
            assert str(info.value) == message

    def test_duplicate_message(self):
        one, two = GaussianRational.of(1), GaussianRational.of(2)
        zero = GaussianRational.of(0)
        lines = [
            Line.canonical(one, zero, zero),
            Line.canonical(zero, one, zero),
            Line.canonical(two, zero, zero),
        ]
        with pytest.raises(DuplicateLine) as info:
            WeightedArrangement.build(lines, [1, 1, 1])
        assert str(info.value) == "lines 0 and 2 canonicalize to (1)x + (0)y + (0) = 0"

    def test_messages_with_a_coefficient_too_long_to_write(self):
        big = 10**4199 + 7  # 4200 digits; the canonical b = big * (big + 1) has about 8400
        line = {"a": f"1/{big}", "b": str(big + 1), "c": 0}
        with pytest.raises(DuplicateLine) as info:
            parse_arrangement({"lines": [line, {"a": 0, "b": 1, "c": 0}, line]})
        assert str(info.value) == (
            "lines 0 and 2 canonicalize to a line with a coefficient too long to write out"
        )
        one, zero = GaussianRational.of(1), GaussianRational.of(0)
        unscaled = Line(GaussianRational.of(big), GaussianRational.of(big * big), zero)
        with pytest.raises(ParseError) as info:
            WeightedArrangement.build([unscaled, Line(zero, one, zero)], [1, 1])
        assert str(info.value) == (
            "line 0 is not canonical: a line with a coefficient too long to write out;"
            " use Line.canonical"
        )

    def test_non_canonical_line_rejected(self):
        # Unscaled, Line(2, 0, 0) is x = 0 again; accepted, it would pass the
        # duplicate test and break the identities downstream.
        one, two, zero = GaussianRational.of(1), GaussianRational.of(2), GaussianRational.of(0)
        lines = [Line(two, zero, zero), Line(one, zero, zero), Line(zero, one, zero)]
        with pytest.raises(ParseError) as info:
            WeightedArrangement.build(lines, [1, 1, 1])
        assert str(info.value) == (
            "line 0 is not canonical: (2)x + (0)y + (0) = 0; use Line.canonical"
        )
        for lead in (GaussianRational.of(0, 1), GaussianRational.of(-1), zero):
            with pytest.raises(ParseError, match="line 1 is not canonical"):
                WeightedArrangement.build([lines[1], Line(zero, lead, one)], [1, 1])

    @given(raw_lines())
    @settings(max_examples=150, deadline=None)
    def test_only_canonical_lines_accepted(self, raw):
        line = Line(*(gaussian(z) for z in raw))
        canonical = line == line_of(raw)
        with pytest.raises(NotEssential if canonical else ParseError):
            WeightedArrangement.build([line], [1])
