"""Vertex grouping on Gaussian-rational lines against independent oracles.

`compute_combinatorics` intersects lines through integer cross products;
these tests compare it with the Fraction-pair oracle in `_oracles.py` on
lines whose coefficients are Gaussian rationals with denominators up to
10^6, including lines with a = 0, non-real directions, parallel classes
and forced concurrent pencils, and with sympy on random small inputs.
The weight sums over vertices and classes, and both characteristic
polynomials, are also checked over a residue-like weight vector.
A vertex keeps its integer key; the point `to_json` writes from it is
checked against the Fraction construction from that key, and the
grouping itself is checked to build no rational.
"""

import random
import tracemalloc
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linemono import (
    FactoredUnityPoly,
    Line,
    WeightedArrangement,
    charpoly_infinity,
    charpoly_zero_closed,
    compute_combinatorics,
)

from _oracles import (
    brute_combinatorics, cadd, cmul, gaussian_coef, key_coefficients, key_point,
)

MAX_DENOMINATOR = 10**6
ZERO = (Fraction(0), Fraction(0))
MINUS_ONE = (Fraction(-1), Fraction(0))

rationals = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.fractions(-5, 5, max_denominator=MAX_DENOMINATOR),
)
gaussians = st.one_of(
    st.tuples(rationals, st.just(Fraction(0))),
    st.tuples(rationals, rationals),
)
nonzero = gaussians.filter(lambda g: g != ZERO)
directions = st.one_of(
    st.tuples(st.just(ZERO), nonzero),  # a = 0
    st.tuples(nonzero, gaussians),
)


@st.composite
def gaussian_arrangements(draw):
    """Raw (a, b, c) triples of (re, im) Fraction pairs."""
    raw = []
    for _ in range(draw(st.integers(0, 2))):  # pencils through a common point
        x0, y0 = draw(gaussians), draw(gaussians)
        for a, b in draw(st.lists(directions, min_size=2, max_size=4)):
            raw.append((a, b, cmul(MINUS_ONE, cadd(cmul(a, x0), cmul(b, y0)))))
    for a, b in draw(st.lists(directions, min_size=1, max_size=3)):  # parallel classes
        for c in draw(st.lists(gaussians, min_size=1, max_size=3)):
            raw.append((a, b, c))
    return raw


def _gaussian(pair):
    return gaussian_coef(Fraction(pair[0]), Fraction(pair[1]))


def _build(raw, weights=None):
    """Distinct lines of `raw` as (oracle input, arrangement), or None if all parallel."""
    kept, lines = [], []
    for a, b, c in raw:
        line = Line.canonical(_gaussian(a), _gaussian(b), _gaussian(c))
        if line not in lines:
            kept.append((a, b, c))
            lines.append(line)
    if len({line.direction_key for line in lines}) < 2:
        return None
    weights = [1, *(weights or [])][: len(lines)]  # a leading 1 keeps the gcd 1
    weights += [1] * (len(lines) - len(weights))
    return kept, WeightedArrangement.build(lines, weights)


def _sort_key(key):
    x, y = key_point(key)
    return (*x, *y)


def _assert_vertices_match_oracle(cs, oracle):
    """Every vertex of `vertex_table`, and the multiple points of the columns, against the oracle.

    The table holds every vertex in coordinate order; the columns hold the
    multiple points (m >= 3) in the same order; `double_points`, the
    histogram (ascending in m) and the per-line counts cover every vertex.
    """
    keys, incidences, multiplicities = cs.vertex_table
    assert {
        key_point(key): sorted(incident) for key, incident in zip(keys, incidences)
    } == oracle["vertices"]
    assert list(multiplicities) == list(map(len, incidences))
    order = [_sort_key(key) for key in keys]
    assert order == sorted(order) and len(set(order)) == len(order)
    assert cs.keys == tuple(key for key, m in zip(keys, multiplicities) if m > 2)
    assert cs.incidences == tuple(i for i, m in zip(incidences, multiplicities) if m > 2)
    assert cs.multiplicities == tuple(m for m in multiplicities if m > 2)
    assert cs.double_points == multiplicities.count(2) == oracle["histogram"].get(2, 0)
    assert cs.histogram == oracle["histogram"]
    assert list(cs.histogram) == sorted(cs.histogram)
    assert list(cs.line_vertex_counts) == oracle["line_vertex_counts"]


def _assert_sums_match_oracle(cs, oracle, weights):
    """vertex_sums, class_sums and both charpolys over `weights` against the oracle's sums."""
    by_point = oracle["vertex_weight_sums"]
    assert cs.vertex_sums(weights) == [by_point[key_point(key)] for key in cs.keys]
    keys, incidences, _ = cs.vertex_table
    assert cs.vertex_sums(weights, incidences) == [by_point[key_point(key)] for key in keys]
    by_direction = oracle["class_weights"]
    assert cs.class_sums(weights) == [
        by_direction[key_coefficients(g.key)] for g in cs.directions
    ]
    d_e = oracle["d_e"]
    zero = [(1, 1)]
    zero += [(e, count - 1) for e, count in zip(weights, oracle["line_vertex_counts"])]
    zero += [(by_point[point], len(lines) - 2) for point, lines in oracle["vertices"].items()]
    assert charpoly_zero_closed(cs, weights) == FactoredUnityPoly(zero)
    infinity = [(1, 1), (d_e, oracle["p"] - 2)]
    infinity += [
        (d_e - by_direction[direction], len(members) - 1)
        for direction, members in oracle["class_members"].items()
    ]
    assert charpoly_infinity(cs, weights) == FactoredUnityPoly(infinity)


def _assert_points_from_keys(cs):
    """`to_json` writes each point as the Fraction rules write the point built from its key."""
    assert [row["point"] for row in cs.to_json()["vertices"]] == [
        [gaussian_coef(*z) for z in key_point(key)] for key in cs.vertex_table[0]
    ]


# Residue-like weight vectors: positive, possibly all sharing a factor, no gcd condition.
residue_vectors = st.tuples(
    st.integers(1, 3), st.lists(st.integers(1, 9), min_size=20, max_size=20)
).map(lambda drawn: [drawn[0] * r for r in drawn[1]])


class TestAgainstOracle:
    @given(
        gaussian_arrangements(), st.lists(st.integers(1, 9), max_size=16), residue_vectors
    )
    @settings(max_examples=100, deadline=None)
    def test_grouping_matches_brute_force(self, raw, weights, residues):
        built = _build(raw, weights)
        assume(built is not None)
        kept, arr = built
        cs = compute_combinatorics(arr)
        oracle = brute_combinatorics(kept, arr.weights)
        residues = residues[: cs.d]
        _assert_sums_match_oracle(cs, brute_combinatorics(kept, residues), residues)

        _assert_vertices_match_oracle(cs, oracle)
        assert all(m == len(incident) for incident, m in zip(cs.incidences, cs.multiplicities))
        _assert_points_from_keys(cs)
        assert cs.p == oracle["p"]
        assert {
            key_coefficients(g.key): sorted(g.members) for g in cs.directions
        } == oracle["class_members"]
        info = cs.to_json()
        keys = cs.vertex_table[0]
        assert {
            key_point(key): row["weightSum"] for key, row in zip(keys, info["vertices"])
        } == oracle["vertex_weight_sums"]
        assert [row["point"] for row in info["vertices"]] == [
            [gaussian_coef(*z) for z in key_point(key)] for key in keys
        ]
        assert info["dE"] == oracle["d_e"]

    @given(gaussian_arrangements())
    @settings(max_examples=40, deadline=None)
    def test_pencil_points_are_single_vertices(self, raw):
        """Lines built through one point meet there in one vertex, whatever the denominators."""
        built = _build(raw)
        assume(built is not None)
        _, arr = built
        cs = compute_combinatorics(arr)
        for key, incident in zip(*cs.vertex_table[:2]):
            x, y = key_point(key)
            through = [
                i
                for i, (line_a, line_b, line_c) in enumerate(
                    key_coefficients(line.triple) for line in arr.lines
                )
                if cadd(cadd(cmul(line_a, x), cmul(line_b, y)), line_c) == ZERO
            ]
            assert through == sorted(incident)


class TestGenericLargeDenominators:
    def test_farey_neighbour_directions_sort_apart(self):
        """Directions b = 1/1001 and b = 1/1000 sort apart, though the only vertex is the origin."""
        equations = [(1000, 1, 0), (1001, 1, 0), (1, 0, 0)]
        lines = [Line.canonical(a, b, c) for a, b, c in equations]
        cs = compute_combinatorics(WeightedArrangement.build(lines, [1] * 3))
        assert cs.keys == ((0, 0, 0, 0, 1),)
        assert [key_coefficients(g.key)[1][0] for g in cs.directions] == [
            0, Fraction(1, 1001), Fraction(1, 1000)
        ]

    def test_farey_neighbours_sort_apart(self):
        """x = 1/1001 and x = 1/1000 differ by 1/(1000 * 1001): still ordered by x first."""
        equations = [(1001, 0, -1), (1000, 0, -1), (0, 1, 0), (0, 1, -1)]
        lines = [Line.canonical(a, b, c) for a, b, c in equations]
        cs = compute_combinatorics(WeightedArrangement.build(lines, [1] * 4))
        left, right = Fraction(1, 1001), Fraction(1, 1000)
        assert cs.keys == () and cs.double_points == 4
        assert [(x[0], y[0]) for x, y in map(key_point, cs.vertex_table[0])] == [
            (left, 0), (left, 1), (right, 0), (right, 1)
        ]

    def test_forty_generic_lines(self):
        """Many distinct large denominators: every pair is its own vertex, in order."""
        rng = random.Random(5)
        raw = [
            ((Fraction(1), Fraction(0)),) + tuple(_random_gaussian(rng, 10**6) for _ in range(2))
            for _ in range(40)
        ]
        kept, arr = _build(raw)
        cs = compute_combinatorics(arr)
        oracle = brute_combinatorics(kept)
        _assert_vertices_match_oracle(cs, oracle)
        assert cs.keys == () and cs.double_points == 40 * 39 // 2
        _assert_points_from_keys(cs)


def _c(re, im=0):
    return (Fraction(re), Fraction(im))


def _lines(directions, offsets):
    return [(a, b, c) for a, b in directions for c in offsets]


def _scales(arr):
    """g_i: each line's (A, B) over its class's direction key."""
    return {gcd(*line.triple[:4]) for line in arr.lines}


# (raw lines, a condition on the arrangement that makes the case what its id says)
CLASS_PAIR_CASES = {
    "non-real-directions": (
        _lines(
            [(_c(1), _c(0, 1)), (_c(1), _c(0, -1)), (_c(1), _c(1, 2)), (_c(0), _c(1))],
            [_c(0), _c(1), _c(0, 1), _c(Fraction(1, 2), Fraction(1, 3)), _c(-2)],
        ),
        lambda arr: any(line.direction_key[1] or line.direction_key[3] for line in arr.lines),
    ),
    "fractional-offsets": (
        _lines(
            [(_c(1), _c(0)), (_c(0), _c(1)), (_c(1), _c(1)), (_c(1), _c(-1)),
             (_c(1), _c(Fraction(1, 2)))],
            [_c(0), _c(1), _c(Fraction(1, 2)), _c(Fraction(-3, 4)), _c(Fraction(1, 3)),
             _c(Fraction(1, 2), Fraction(1, 5))],
        ),
        lambda arr: len(_scales(arr)) > 3,
    ),
    "two-classes": (
        _lines([(_c(1), _c(0)), (_c(1), _c(1, 1))], [_c(Fraction(k, 3)) for k in range(-7, 8)]),
        lambda arr: compute_combinatorics(arr).p == 2,
    ),
    "singleton-classes": (
        _lines([(_c(1), _c(0)), (_c(0), _c(1))], [_c(k) for k in range(-2, 3)])
        + [(_c(1), _c(1), _c(0)), (_c(1), _c(-1), _c(1)),
           (_c(1), _c(0, 1), _c(Fraction(1, 2), -1))],
        lambda arr: [g.count for g in compute_combinatorics(arr).directions].count(1) == 3,
    ),
}


class TestClassPairs:
    """Pairs are intersected per pair of exact-(A, B) groups, of which a class may hold several.

    A line's triple is (g_i (class key), C_i), so lines of one class with
    different g_i fall into different groups, which meet at Z = 0 and are
    skipped; the gcd is taken only for a group pair with |Z|^2 != 1.
    """

    @pytest.mark.parametrize("raw, condition", CLASS_PAIR_CASES.values(), ids=CLASS_PAIR_CASES)
    def test_matches_brute_force(self, raw, condition):
        kept, arr = _build(raw, [2, 3, 5, 7])
        assert len(kept) == len(raw) and condition(arr)
        cs = compute_combinatorics(arr)
        oracle = brute_combinatorics(kept, arr.weights)
        _assert_vertices_match_oracle(cs, oracle)
        _assert_sums_match_oracle(cs, oracle, arr.weights)


class TestWeightSums:
    @given(gaussian_arrangements(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sums_over_the_columns(self, raw, data):
        """All ones takes the multiplicity shortcut; other positive vectors sum per vertex."""
        built = _build(raw)
        assume(built is not None)
        cs = compute_combinatorics(built[1])
        drawn = data.draw(st.lists(st.integers(1, 9), min_size=cs.d, max_size=cs.d))
        for weights in ([1] * cs.d, (1,) * cs.d, drawn):
            assert cs.vertex_sums(weights) == [
                sum(weights[i] for i in incident) for incident in cs.incidences
            ]
            assert cs.class_sums(weights) == [
                sum(weights[i] for i in g.members) for g in cs.directions
            ]


class TestPointOnDemand:
    def test_grouping_builds_no_gaussian_rational(self):
        """The summary holds integer keys only; no `Fraction` is built, not even to write it out.

        The input is a 40-line 4-direction grid; every fourth offset is a
        Gaussian rational.
        """
        offsets = [k if k % 4 else {"re": f"{k}/3", "im": "1/7"} for k in range(10)]
        lines = [
            Line.canonical(a, b, c)
            for a, b in ((1, 0), (0, 1), (1, 1), (1, -1))
            for c in offsets
        ]
        arr = WeightedArrangement.build(lines, [1] * len(lines))
        built = []
        original = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        with mock.patch.object(Fraction, "__new__", counting_new):
            cs = compute_combinatorics(arr)
            assert cs.to_json()["vertices"][-1]["point"]
            assert built == []
            assert key_point(cs.keys[-1])
            assert len(built) == 4  # the patch does count
        assert len(cs.vertex_table[0]) > 300
        assert max(cs.histogram) >= 3

    def test_peak_memory_of_generic_lines(self):
        """A double point is only counted, and kept as its pair: no set, sorted key or frozenset.

        120 generic lines give 7140 vertices, all double points.  The peak
        traced during the grouping measured 1.94 MiB with each double point
        kept as its pair (i, j) (3.03 MiB with a set per vertex and only the
        multiple points kept as columns, 4.8 MiB with every vertex sorted and
        frozen into the columns, 5.3 MiB with a `Vertex` object per vertex,
        10.4 MiB when every vertex also built its point with Fractions); the
        bound is that measurement plus 30%.
        """
        rng = random.Random(120)
        triples = set()
        while len(triples) < 120:
            a, b, c = (rng.randint(-999, 999) for _ in range(3))
            if a and b:
                triples.add((a, b, c))
        lines = [Line.canonical(a, b, c) for a, b, c in sorted(triples)]
        arr = WeightedArrangement.build(lines, [1] * len(lines))
        tracemalloc.start()
        try:
            cs = compute_combinatorics(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cs.keys == () and cs.double_points == 7140
        assert peak < 1.3 * 1.94 * 2**20


def _random_gaussian(rng, max_den):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, max_den))
    im = Fraction(rng.randint(-9, 9), rng.randint(1, max_den)) if rng.random() < 0.5 else 0
    return (Fraction(re), Fraction(im))


class TestAgainstSympy:
    @pytest.mark.parametrize("seed", range(12))
    def test_exact_intersection_points(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        raw = []
        x0, y0 = _random_gaussian(rng, 50), _random_gaussian(rng, 50)
        for _ in range(3):  # a pencil through (x0, y0)
            a, b = _random_gaussian(rng, 50), _random_gaussian(rng, 50)
            raw.append((a, b, cmul(MINUS_ONE, cadd(cmul(a, x0), cmul(b, y0)))))
        for _ in range(rng.randint(1, 3)):
            raw.append(tuple(_random_gaussian(rng, 1000) for _ in range(3)))
        built = _build(raw)
        assert built is not None
        kept, arr = built

        def to_sympy(pair):
            re, im = (sympy.Rational(q.numerator, q.denominator) for q in pair)
            return re + sympy.I * im

        def to_pair(value):
            re, im = sympy.re(value), sympy.im(value)
            return (Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))

        x, y = sympy.symbols("x y")
        expected: dict = {}
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                equations = [
                    to_sympy(a) * x + to_sympy(b) * y + to_sympy(c)
                    for a, b, c in (kept[i], kept[j])
                ]
                solution = sympy.solve(equations, [x, y], dict=True)
                if not solution:
                    continue  # parallel
                point = tuple(to_pair(sympy.expand(solution[0][s])) for s in (x, y))
                expected.setdefault(point, set()).update((i, j))

        cs = compute_combinatorics(arr)
        keys, incidences, _ = cs.vertex_table
        points = [key_point(key) for key in keys]
        assert {point: set(incident) for point, incident in zip(points, incidences)} == expected
        _assert_points_from_keys(cs)
        assert points == sorted(expected, key=lambda p: (*p[0], *p[1]))
        assert any(m >= 3 for m in cs.multiplicities)
