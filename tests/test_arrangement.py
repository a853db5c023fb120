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
    GaussianRational,
    Line,
    NotEssential,
    ParseError,
    compute_combinatorics,
    parse_arrangement,
)

from _oracles import brute_combinatorics
from conftest import EIGHT_NORMAL_CROSSING


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
        assert arr.lines[0].a == GaussianRational.of(1)
        assert arr.lines[0].b == GaussianRational.of(Fraction(1, 3))
        assert arr.lines[0].c == GaussianRational.of(Fraction(-1, 4))
        assert arr.lines[1].b == GaussianRational.of(1)

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
        ],
    )
    def test_parse_errors(self, document):
        with pytest.raises(ParseError):
            parse_arrangement(document)

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
        assert cs.vertices[0].point == (GaussianRational.of(0), GaussianRational.of(0))

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
        assert cs.d_e == 4
        assert sorted(v.weight_sum for v in cs.vertices) == [2, 3, 3]

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
        keys = [(*v.point[0].sort_key(), *v.point[1].sort_key()) for v in cs.vertices]
        assert keys == sorted(keys)


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
        total = sum(v.multiplicity for v in cs.vertices)
        assert sum(cs.line_vertex_counts) == total
        assert sum(m * n for m, n in cs.histogram.items()) == total

    @given(arrangement_specs)
    @settings(max_examples=60, deadline=None)
    def test_direction_partition(self, specs):
        cs = compute_combinatorics(build_arrangement(specs))
        members = sorted(i for g in cs.directions for i in g.members)
        assert members == list(range(cs.d))
        assert sum(g.count for g in cs.directions) == cs.d
        assert sum(g.weight_sum for g in cs.directions) == cs.d_e

    @given(arrangement_specs, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, specs, rng):
        original = compute_combinatorics(build_arrangement(specs))
        shuffled = list(specs)
        rng.shuffle(shuffled)
        permuted = compute_combinatorics(build_arrangement(shuffled))
        assert original.histogram == permuted.histogram
        assert sorted(original.line_vertex_counts) == sorted(permuted.line_vertex_counts)
        assert [v.point for v in original.vertices] == [v.point for v in permuted.vertices]
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
        alpha, beta, gamma, delta, s, u = affine
        base = build_arrangement(specs)
        # substitute (x, y) -> (alpha x + beta y + s, gamma x + delta y + u)
        mapped_lines = []
        for line, e in zip(base.lines, base.weights):
            a, b, c = line.a, line.b, line.c
            ga = GaussianRational.of
            mapped_lines.append(
                Line.canonical(
                    a * ga(alpha) + b * ga(gamma),
                    a * ga(beta) + b * ga(delta),
                    a * ga(s) + b * ga(u) + c,
                )
            )
        from linemono import WeightedArrangement

        mapped = WeightedArrangement.build(mapped_lines, list(base.weights))
        before = compute_combinatorics(base)
        after = compute_combinatorics(mapped)
        assert before.histogram == after.histogram
        assert before.p == after.p
        assert sorted(g.count for g in before.directions) == sorted(
            g.count for g in after.directions
        )
