"""Parsing, canonical forms, and the combinatorial summary."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemono import (
    BadGcd,
    BadWeight,
    DuplicateLine,
    Line,
    NotEssential,
    ParseError,
    WeightedArrangement,
    compute_combinatorics,
    parse_arrangement,
)
from linemono.arrangement import LINE_LIMIT
from linemono.errors import TooManyLines

from _oracles import (
    as_complex, brute_combinatorics, cadd, cmul, gaussian_coef, key_coefficients, key_point,
)
from conftest import EIGHT_NORMAL_CROSSING


# Arabic-Indic one and three, fullwidth 1/2: Unicode decimal digits, not ASCII.
NON_ASCII_DIGITS = [
    '{"lines": [{"a": "\u0661", "b": 0, "c": 0}, {"a": 0, "b": "\uff11/\uff12", "c": "\u0663"}]}',
    '{"lines": [{"a": 1, "b": 0, "c": "1/\u0663"}, {"a": 0, "b": 1, "c": 0}]}',
    '{"lines": [{"a": 1, "b": 0, "c": {"im": "\uff12"}}, {"a": 0, "b": 1, "c": 0}]}',
]

# Surrounding whitespace, Unicode or ASCII, is not part of the literal grammar.
WHITESPACE_LITERALS = [" 2 ", "\t1/2", "\u30001", "1\n", "1/2\n", "\n-1"]
WHITESPACE_DOCUMENTS = [
    json.dumps({"lines": [{"a": 1, "b": 0, "c": literal}, {"a": 0, "b": 1, "c": 0}]})
    for literal in WHITESPACE_LITERALS
]


class TestParsing:
    def test_triangle_document(self, triangle):
        assert triangle.d == 3
        assert triangle.weights == (1, 1, 1)

    def test_weights_default_to_one(self, weighted_triangle):
        assert weighted_triangle.weights == (1, 1, 2)

    def test_rational_and_complex_coefficients(self):
        arr = parse_arrangement(
            json.dumps(
                {
                    "lines": [
                        {"a": "2", "b": "4/6", "c": "-1/2"},
                        {"a": {"re": "0"}, "b": {"re": "1", "im": "1"}, "c": 3},
                    ]
                }
            )
        )
        # canonical: first nonzero coefficient scaled to 1
        a, b, c = key_coefficients(arr.lines[0].triple)
        assert a == (1, 0)
        assert b == (Fraction(1, 3), 0)
        assert c == (Fraction(-1, 4), 0)
        assert key_coefficients(arr.lines[1].triple)[1] == (1, 0)

    def test_duplicate_after_canonicalization(self):
        with pytest.raises(DuplicateLine):
            parse_arrangement(
                json.dumps(
                    {
                        "lines": [
                            {"a": 1, "b": 0, "c": 0},
                            {"a": 2, "b": 0, "c": 0},
                            {"a": 0, "b": 1, "c": 0},
                        ]
                    }
                )
            )

    def test_all_parallel_rejected(self):
        with pytest.raises(NotEssential):
            parse_arrangement(
                json.dumps(
                    {"lines": [{"a": 1, "b": 0, "c": 0}, {"a": 1, "b": 0, "c": -1}]}
                )
            )

    def test_single_line_rejected(self):
        with pytest.raises(NotEssential):
            parse_arrangement(json.dumps({"lines": [{"a": 1, "b": 0, "c": 0}]}))

    def test_bad_weight(self):
        bad = {"lines": [{"a": 1, "b": 0, "c": 0, "e": 0}, {"a": 0, "b": 1, "c": 0}]}
        with pytest.raises(BadWeight):
            parse_arrangement(json.dumps(bad))
        bad["lines"][0]["e"] = True
        with pytest.raises(BadWeight):
            parse_arrangement(bad)

    def test_bad_gcd(self):
        with pytest.raises(BadGcd):
            parse_arrangement(
                json.dumps(
                    {
                        "lines": [
                            {"a": 1, "b": 0, "c": 0, "e": 2},
                            {"a": 0, "b": 1, "c": 0, "e": 4},
                        ]
                    }
                )
            )

    @pytest.mark.parametrize(
        "document",
        [
            "not json",
            "[]",
            "{}",
            '{"lines": []}',
            '{"lines": [{"a": 1, "b": 0}]}',
            '{"lines": [{"a": 1, "b": 0, "c": 0, "x": 1}, {"a": 0, "b": 1, "c": 0}]}',
            '{"lines": [{"a": 1.5, "b": 0, "c": 0}, {"a": 0, "b": 1, "c": 0}]}',
            '{"lines": [{"a": "1.5", "b": 0, "c": 0}, {"a": 0, "b": 1, "c": 0}]}',
            '{"lines": [{"a": "1/0", "b": 0, "c": 0}, {"a": 0, "b": 1, "c": 0}]}',
            '{"lines": [{"a": 0, "b": 0, "c": 1}, {"a": 0, "b": 1, "c": 0}]}',
            '{"lines": [{"a": {"re": 1, "imag": 0}, "b": 0, "c": 0}, {"a": 0, "b": 1, "c": 0}]}',
            '{"lines": 3}',
            '{"lines": [{"a": 1, "b": 0, "c": 0}], "extra": 1}',
            *NON_ASCII_DIGITS,
            *WHITESPACE_DOCUMENTS,
        ],
    )
    def test_parse_errors(self, document):
        with pytest.raises(ParseError):
            parse_arrangement(document)

    @pytest.mark.parametrize("literal", WHITESPACE_LITERALS)
    def test_whitespace_is_not_a_literal(self, literal):
        for coefficient in (literal, {"re": literal}, {"re": 0, "im": literal}):
            document = {"lines": [{"a": 1, "b": 0, "c": coefficient}, {"a": 0, "b": 1, "c": 0}]}
            with pytest.raises(ParseError) as info:
                parse_arrangement(document)
            assert str(info.value) == f"not an exact rational literal: {literal!r}"

    @pytest.mark.parametrize(
        "document",
        [
            '{"lines": [{"a": 1, "b": 0, "c": 0}, {"a": 0, "b": 1, "c": 0}],'
            ' "lines": [{"a": 1, "b": 0, "c": 0}, {"a": 0, "b": 1, "c": 1}]}',
            '{"lines": [{"a": 1, "b": 0, "c": 0, "c": 5}, {"a": 0, "b": 1, "c": 0}]}',
            '{"lines": [{"a": {"re": 1, "re": 2}, "b": 0, "c": 0}, {"a": 0, "b": 1, "c": 0}]}',
        ],
    )
    def test_duplicate_keys_rejected(self, document):
        with pytest.raises(ParseError, match="duplicate key"):
            parse_arrangement(document)

    def test_line_limit_boundary(self):
        """LINE_LIMIT lines build; one more is refused before any line is checked or paired."""
        assert LINE_LIMIT == 500
        pencil = [Line.canonical(1, k, 0) for k in range(LINE_LIMIT + 1)]
        assert WeightedArrangement.build(pencil[:-1], [1] * LINE_LIMIT).d == LINE_LIMIT
        with pytest.raises(TooManyLines, match="501 lines > LINE_LIMIT = 500"):
            WeightedArrangement.build(pencil, [1] * (LINE_LIMIT + 1))
        with pytest.raises(TooManyLines):  # not DuplicateLine: the count comes first
            WeightedArrangement.build(pencil[:1] * (LINE_LIMIT + 1), [1] * (LINE_LIMIT + 1))

    def test_line_limit_before_parsing(self, monkeypatch):
        """A document over LINE_LIMIT is refused before any coefficient is parsed."""

        def refused(value):
            raise AssertionError("parse_coefficient called on an over-limit document")

        monkeypatch.setattr("linemono.arrangement.parse_coefficient", refused)
        entries = [{"a": 1, "b": k, "c": 0} for k in range(LINE_LIMIT + 1)]
        with pytest.raises(TooManyLines, match="501 lines > LINE_LIMIT = 500"):
            parse_arrangement({"lines": entries})
        with pytest.raises(TooManyLines):
            parse_arrangement(json.dumps({"lines": entries}))

    @pytest.mark.parametrize("literal", ['"1%s"', '1%s', '"1/1%s"', '{"im": "-1%s"}'])
    def test_literal_over_digit_limit(self, literal):
        big = literal % ("0" * 5000)
        document = '{"lines": [{"a": 1, "b": 0, "c": %s}, {"a": 0, "b": 1, "c": 0}]}' % big
        with pytest.raises(ParseError, match="digits"):
            parse_arrangement(document)


class TestCombinatorics:
    def test_triangle_against_brute_force(self, triangle):
        cs = compute_combinatorics(triangle)
        oracle = brute_combinatorics([(1, 0, 0), (0, 1, 0), (1, 1, -1)])
        assert cs.d == oracle["d"] == 3
        assert cs.p == oracle["p"] == 3
        assert [g.count for g in cs.directions] == [1, 1, 1]
        assert cs.histogram == oracle["histogram"] == {2: 3}
        assert list(cs.line_vertex_counts) == oracle["line_vertex_counts"]

    def test_two_axes(self, two_axes):
        cs = compute_combinatorics(two_axes)
        assert cs.d == 2 and cs.p == 2
        assert cs.histogram == {2: 1}
        assert cs.line_vertex_counts == (1, 1)
        assert cs.keys == () and cs.double_points == 1
        keys, incidences, multiplicities = cs.vertex_table
        assert [key_point(key) for key in keys] == [((0, 0), (0, 0))]
        assert incidences == (frozenset({0, 1}),) and multiplicities == (2,)

    def test_eight_line_fixture_against_brute_force(self, eight_normal_crossing):
        cs = compute_combinatorics(eight_normal_crossing)
        raw = [
            (entry["a"], entry["b"], entry["c"])
            for entry in EIGHT_NORMAL_CROSSING["lines"]
        ]
        oracle = brute_combinatorics(raw)
        # 28 pairs, 4 of them parallel, and all 24 points distinct doubles.
        assert len(oracle["vertices"]) == 24
        assert cs.histogram == oracle["histogram"] == {2: 24}
        assert cs.p == 4
        assert sorted(g.count for g in cs.directions) == [2, 2, 2, 2]
        assert all(v == 6 for v in cs.line_vertex_counts)

    def test_concurrent_four(self, concurrent_four):
        cs = compute_combinatorics(concurrent_four)
        oracle = brute_combinatorics([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, -1)])
        assert cs.histogram == oracle["histogram"] == {2: 2, 3: 1}
        assert cs.p == 3

    def test_weight_sums(self, weighted_triangle):
        cs = compute_combinatorics(weighted_triangle)
        assert sum(cs.weights) == 4
        assert cs.incidences == () and cs.double_points == 3
        incidences = cs.vertex_table[1]
        sums = [sum(cs.weights[i] for i in incident) for incident in incidences]
        assert sorted(sums) == [2, 3, 3]
        assert cs.vertex_sums(cs.weights, incidences) == sums
        info = cs.to_json()
        assert info["dE"] == 4
        assert sorted(v["weightSum"] for v in info["vertices"]) == [2, 3, 3]

    def test_complex_coefficients(self):
        # x + iy, x - iy, x - 1/2, y + 2i: three direction classes,
        # checked against the independent complex-pair oracle.
        raw = [
            (1, (0, 1), 0),
            (1, (0, -1), 0),
            (1, 0, (Fraction(-1, 2), 0)),
            (0, 1, (0, 2)),
        ]
        arr = parse_arrangement(
            json.dumps(
                {
                    "lines": [
                        {"a": 1, "b": {"im": "1"}, "c": 0},
                        {"a": 1, "b": {"im": "-1"}, "c": 0},
                        {"a": 1, "b": 0, "c": "-1/2"},
                        {"a": 0, "b": 1, "c": {"im": "2"}},
                    ]
                }
            )
        )
        cs = compute_combinatorics(arr)
        oracle = brute_combinatorics(raw)
        assert cs.p == oracle["p"] == 4
        assert cs.histogram == oracle["histogram"]
        assert list(cs.line_vertex_counts) == oracle["line_vertex_counts"]

    def test_vertices_sorted_lexicographically(self, triangle):
        cs = compute_combinatorics(triangle)
        keys = [(*x, *y) for x, y in map(key_point, cs.vertex_table[0])]
        assert len(keys) == 3 and keys == sorted(keys)


DIRECTION_POOL = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, 3)]

line_spec = st.tuples(
    st.integers(min_value=0, max_value=len(DIRECTION_POOL) - 1),
    st.integers(min_value=-6, max_value=6),
)


def build_arrangement(specs):
    lines = []
    for idx, offset in specs:
        a, b = DIRECTION_POOL[idx]
        lines.append({"a": a, "b": b, "c": offset})
    return parse_arrangement({"lines": lines})


arrangement_specs = (
    st.lists(line_spec, min_size=3, max_size=6, unique=True)
    .filter(lambda specs: len({idx for idx, _ in specs}) >= 2)
)


class TestInvarianceProperties:
    @given(arrangement_specs)
    @settings(max_examples=60, deadline=None)
    def test_incidence_double_count(self, specs):
        cs = compute_combinatorics(build_arrangement(specs))
        total = sum(cs.vertex_table[2])
        assert sum(cs.multiplicities) + 2 * cs.double_points == total
        assert sum(cs.line_vertex_counts) == total
        assert sum(m * n for m, n in cs.histogram.items()) == total

    @given(arrangement_specs)
    @settings(max_examples=60, deadline=None)
    def test_direction_partition(self, specs):
        cs = compute_combinatorics(build_arrangement(specs))
        members = sorted(i for g in cs.directions for i in g.members)
        assert members == list(range(cs.d))
        assert sum(g.count for g in cs.directions) == cs.d
        class_sums = [sum(cs.weights[i] for i in g.members) for g in cs.directions]
        assert sum(class_sums) == sum(cs.weights)
        info = cs.to_json()
        assert [g["weightSum"] for g in info["directions"]] == class_sums
        assert sum(class_sums) == info["dE"]

    @given(arrangement_specs, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, specs, rng):
        original = compute_combinatorics(build_arrangement(specs))
        shuffled = list(specs)
        rng.shuffle(shuffled)
        permuted = compute_combinatorics(build_arrangement(shuffled))
        assert original.histogram == permuted.histogram
        assert sorted(original.line_vertex_counts) == sorted(permuted.line_vertex_counts)
        assert original.keys == permuted.keys
        assert original.vertex_table[0] == permuted.vertex_table[0]
        assert sorted(g.count for g in original.directions) == sorted(
            g.count for g in permuted.directions
        )

    @given(
        arrangement_specs,
        st.tuples(
            st.integers(-2, 2), st.integers(-2, 2),
            st.integers(-2, 2), st.integers(-2, 2),
            st.integers(-3, 3), st.integers(-3, 3),
        ).filter(lambda m: m[0] * m[3] - m[1] * m[2] != 0),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_map_invariance(self, specs, affine):
        base = build_arrangement(specs)
        # substitute (x, y) -> (al x + be y + s_, ga x + de y + u_)
        al, be, ga, de, s_, u_ = map(as_complex, affine)
        mapped_lines = []
        for line, e in zip(base.lines, base.weights):
            a, b, c = key_coefficients(line.triple)
            coefficients = (
                cadd(cmul(a, al), cmul(b, ga)),
                cadd(cmul(a, be), cmul(b, de)),
                cadd(cadd(cmul(a, s_), cmul(b, u_)), c),
            )
            mapped_lines.append(Line.canonical(*(gaussian_coef(*z) for z in coefficients)))
        from linemono import WeightedArrangement

        mapped = WeightedArrangement.build(mapped_lines, list(base.weights))
        before = compute_combinatorics(base)
        after = compute_combinatorics(mapped)
        assert before.histogram == after.histogram
        assert before.p == after.p
        assert sorted(g.count for g in before.directions) == sorted(
            g.count for g in after.directions
        )
