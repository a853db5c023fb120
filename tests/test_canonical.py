"""Canonical lines and their integer keys against Fraction oracles.

A line is its primitive Gaussian-integer triple, computed from COEF
values by `Line.canonical`, the one route that the parser also takes;
`Line` refuses any other triple, and the canonical coefficients (read
here through `_oracles.key_coefficients`) and the direction key are
derived from the triple.
`WeightedArrangement.build` decides duplicate lines and essentiality on
the integer tuples.  These tests compare all of it with the Fraction-pair
quotient of `_oracles.py` and with Fraction equality, on real scales
other than +-1, negative scales, non-real scales and a = 0, through
`Line.canonical` and through JSON documents alike.  Integer a, b, c take
a shorter route in `Line.canonical`, checked against the rational one.
"""

import dataclasses
import inspect
import json
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linemono import (
    DuplicateLine,
    Line,
    NotEssential,
    ParseError,
    WeightedArrangement,
    parse_arrangement,
)
from linemono.cli import main

from _oracles import cdiv, cmul, gaussian_coef, key_coefficients

ZERO = (Fraction(0), Fraction(0))
NOT_CANONICAL = (
    "not a canonical line triple (six integers with gcd 1 whose lead,"
    " A or else B, is real and positive); use Line.canonical"
)

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
    return gaussian_coef(*pair)


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
        assert key_coefficients(line.triple) == canon
        assert str(line) == str(Line.canonical(*(gaussian(z) for z in canon)))

    @given(raw_lines(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_triple_and_direction_key(self, raw, data):
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
        key = tuple(k // g for k in line.triple[:4])
        assert line.direction_key == key
        assert gcd(*line.direction_key) == 1 and line.direction_key[unit] > 0
        # Set by the check that accepts the triple, on every route to a Line.
        direct = Line(line.triple)
        replaced = dataclasses.replace(Line((1, 0, 1, 0, 0, 0)), triple=line.triple)
        for same in (direct, replaced):
            assert same.direction_key == key
            assert same == line and hash(same) == hash(line)
        # Not a constructor argument.
        assert "direction_key" not in inspect.signature(Line).parameters
        with pytest.raises(TypeError):
            Line(line.triple, key)
        with pytest.raises(TypeError):
            Line(triple=line.triple, direction_key=key)
        with pytest.raises(ValueError):
            dataclasses.replace(line, direction_key=key)
        # The parser's integer route gives the same triple.
        entry = dict(zip("abc", (coefficient(data.draw, z) for z in raw)))
        assert parsed_triple(entry, canon) == oracle_triple(canon)

    def test_parser_route_with_coefficients_at_the_digit_limit(self):
        """4300-digit parts, a non-real lead: products far over the limit, none turned into text."""
        big = 10**4299 + 3
        raw = (
            (Fraction(big), Fraction(-(big - 7))),
            (Fraction(1, big), Fraction(big - 1)),
            (Fraction(big - 2, big - 5), Fraction(0)),
        )
        entry = {
            "a": {"re": str(big), "im": str(-(big - 7))},
            "b": {"re": f"1/{big}", "im": big - 1},
            "c": f"{big - 2}/{big - 5}",
        }
        canon = oracle_canonical(raw)
        triple = parsed_triple(entry, canon)
        assert triple == oracle_triple(canon) == line_of(raw).triple
        assert min(abs(k) for k in triple if k) > 10**12000  # each entry far over 4300 digits

    def test_keys_take_no_part_in_equality_or_repr(self):
        one, half = 1, "1/2"
        line = Line.canonical(2, one, one)
        assert line == Line.canonical(one, half, half)
        assert hash(line) == hash(Line.canonical(one, half, half))
        assert line.triple == (2, 0, 1, 0, 1, 0)
        assert line.direction_key == (2, 0, 1, 0)
        assert repr(line) == "Line(triple=(2, 0, 1, 0, 1, 0))"
        assert "direction_key" not in repr(line)
        assert str(line) == "(1)x + (1/2)y + (1/2) = 0"


def literal(draw, q):
    """q as an int, "p", "p/q", or "p/q" times a common factor."""
    forms = [str(q), f"{q.numerator * 3}/{q.denominator * 3}"]
    if q.denominator == 1:
        forms.append(q.numerator)
    return draw(st.sampled_from(forms))


def coefficient(draw, z):
    """A COEF for the (re, im) pair z: a scalar when real, or an object."""
    re, im = z
    if im == 0 and draw(st.booleans()):
        return literal(draw, re)
    return {"re": literal(draw, re), "im": literal(draw, im)}


def parsed_triple(entry, canon):
    """The triple of `entry` parsed from a JSON document beside a line of another class."""
    other = {"a": 1, "b": 0, "c": 0} if canon[0] == ZERO else {"a": 0, "b": 1, "c": 0}
    arr = parse_arrangement(json.dumps({"lines": [entry, other]}))
    return arr.lines[0].triple


def oracle_build(raws):
    """(error type, message) that build must raise, or (None, None), by Fraction equality."""
    canon = [oracle_canonical(raw) for raw in raws]
    for j in range(len(canon)):
        for i in range(j):
            if canon[i] == canon[j]:
                shown = Line.canonical(*(gaussian(z) for z in canon[j]))
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
        one, two, zero = 1, 2, 0
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
        with pytest.raises(ParseError) as info:
            Line((big, 0, big * big, 0, 0, 0))
        assert str(info.value) == NOT_CANONICAL

    def test_non_canonical_line_rejected(self):
        # Unscaled, 2x = 0 is x = 0 again; accepted, it would pass the
        # duplicate test and break the identities downstream.
        assert Line((1, 0, 0, 0, 0, 0)) == Line.canonical(1, 0, 0)
        with pytest.raises(ParseError) as info:
            Line((2, 0, 0, 0, 0, 0))
        assert str(info.value) == NOT_CANONICAL
        for lead in ((0, 1), (-1, 0), (0, 0)):  # b = i, b = -1, b = 0; a = 0 and c = 1
            with pytest.raises(ParseError, match="not a canonical line triple"):
                Line((0, 0, *lead, 1, 0))

    @given(raw_lines())
    @settings(max_examples=150, deadline=None)
    def test_only_canonical_lines_accepted(self, raw):
        unscaled = oracle_triple(raw)  # raw over its common denominator, no lead scaled out
        canonical = unscaled == line_of(raw).triple
        if canonical:
            with pytest.raises(NotEssential):
                WeightedArrangement.build([Line(unscaled)], [1])
        else:
            with pytest.raises(ParseError):
                Line(unscaled)


# Integer parts: zero, small, and up to the 4300-digit literal limit; a common
# factor and a sign are applied on top, and products over the limit are dropped.
integer_parts = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**4299), 10**4299))
common_factors = st.one_of(st.just(1), st.integers(2, 12), st.integers(10**4000, 10**4290))


class TestIntegerRoute:
    """Integer a, b, c take `Line.canonical`'s integer route; the rest take the rational one."""

    @given(integer_parts, integer_parts, integer_parts, common_factors, st.sampled_from([1, -1]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_rational_route(self, a, b, c, factor, sign):
        a, b, c = (k * factor * sign for k in (a, b, c))
        assume((a or b) and max(abs(a), abs(b), abs(c)) < 10**4300)
        line = Line.canonical(a, b, c)
        assert line == Line.canonical(str(a), str(b), str(c))
        assert line.triple[1::2] == (0, 0, 0) and gcd(*line.triple) == 1

    def test_lead_signs_and_common_factors(self):
        assert Line.canonical(-6, 4, -2).triple == (3, 0, -2, 0, 1, 0)
        assert Line.canonical(0, -6, 9).triple == (0, 0, 2, 0, -3, 0)
        assert Line.canonical(0, 5, 0).triple == (0, 0, 1, 0, 0, 0)

    @pytest.mark.parametrize(
        "entry",
        [{"a": True, "b": 1, "c": 0}, {"a": 1, "b": 0, "c": False}, {"a": 0, "b": 0, "c": 5}],
        ids=["true-lead", "false-offset", "no-direction"],
    )
    def test_other_inputs_still_refused(self, capsys, tmp_path, entry):
        """A JSON boolean is no integer, and (0, 0, c) no line: exit 1 with `ParseError`."""
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"lines": [entry, {"a": 1, "b": 1, "c": 1}]}))
        assert main(["info", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "ParseError"
        with pytest.raises(ParseError):
            Line.canonical(entry["a"], entry["b"], entry["c"])
