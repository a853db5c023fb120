"""Local systems, eigenvalue counting at vertices, and the twisted bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemono import (
    BadOrder,
    BadResidues,
    LengthMismatch,
    LocalSystem,
    TrivialMonodromy,
    bound_from_summary,
    charpoly_infinity,
    charpoly_zero_closed,
    compute_combinatorics,
    delta_f,
)
from linemono.invariants import betti1_general_fiber
from _oracles import vertex_mult_infinity, vertex_mult_zero
from test_arrangement import arrangement_specs, build_arrangement


class TestLocalSystem:
    def test_create_reduces_to_minimal_order(self):
        ls = LocalSystem.create(6, [2, 4])
        assert ls.order == 3
        assert ls.residues == (1, 2)
        # a factor shared by the residues but not the order stays
        ls = LocalSystem.create(3, [2, 2])
        assert ls.order == 3
        assert ls.residues == (2, 2)
        assert ls.residues_gcd == 2

    @pytest.mark.parametrize("order", [0, -3])
    def test_bad_order_is_typed(self, order):
        assert issubclass(BadOrder, ValueError)
        with pytest.raises(BadOrder):
            LocalSystem.create(order, [1, 1])
        with pytest.raises(BadOrder):
            LocalSystem(order, (1, 1))

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            LocalSystem(6, (2, 4))  # gcd 2: not minimal
        with pytest.raises(ValueError):
            LocalSystem(4, (1, 5))  # out of range


class TestTypedErrors:
    """Bad residues raise InputErrors that stay ValueErrors."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LocalSystem.create(3, []),
            lambda: LocalSystem.create(3, [1.5]),
            lambda: LocalSystem.create(3, ["1"]),
            lambda: LocalSystem(3, ()),
            lambda: LocalSystem(4, (1, 5)),
            lambda: LocalSystem(4, (1, -1)),
            lambda: LocalSystem(6, (2, 4)),
        ],
    )
    def test_bad_residues(self, build):
        with pytest.raises(BadResidues) as info:
            build()
        assert isinstance(info.value, ValueError)
        assert info.value.code == "BadResidues"


class TestVertexMultZero:
    def test_eight_line_order_three(self, eight_normal_crossing):
        cs = compute_combinatorics(eight_normal_crossing)
        assert vertex_mult_zero(cs, LocalSystem.create(3, [1] * 8)) == 0

    def test_weighted_triangle_order_four(self, weighted_triangle):
        cs = compute_combinatorics(weighted_triangle)
        ls = LocalSystem.create(4, [1, 1, 2])
        # vertex weight sums 2, 3, 3: none divisible by 4
        assert vertex_mult_zero(cs, ls) == 0

    def test_concurrent_triple_point(self):
        arr = build_arrangement([(0, 0), (1, 0), (2, 0)])  # x, y, x+y through origin
        cs = compute_combinatorics(arr)
        assert vertex_mult_zero(cs, LocalSystem.create(3, [1] * 3)) == 1

    def test_trivial_rejected(self, triangle):
        cs = compute_combinatorics(triangle)
        with pytest.raises(TrivialMonodromy):
            bound_from_summary(cs, LocalSystem.create(3, [3, 1, 1]))

    def test_length_mismatch(self, triangle):
        cs = compute_combinatorics(triangle)
        with pytest.raises(LengthMismatch):
            bound_from_summary(cs, LocalSystem.create(3, [1] * 4))


class TestVertexMultInfinity:
    def test_eight_line_order_three(self, eight_normal_crossing):
        cs = compute_combinatorics(eight_normal_crossing)
        # d_e = 8, d_e - d_j = 6 for all four directions, each k_j - 1 = 1
        assert vertex_mult_infinity(cs, LocalSystem.create(3, [1] * 8)) == 4

    def test_triangle_order_two(self, triangle):
        cs = compute_combinatorics(triangle)
        # 2 | 3 - 1 for every direction but every k_j - 1 = 0
        assert vertex_mult_infinity(cs, LocalSystem.create(2, [1] * 3)) == 0

    def test_order_dividing_total_weight(self, weighted_triangle):
        cs = compute_combinatorics(weighted_triangle)
        ls = LocalSystem.create(4, [1, 1, 2])
        assert vertex_mult_infinity(cs, ls) is None


class TestUpperBound:
    def test_eight_line_order_three(self, eight_normal_crossing):
        cs = compute_combinatorics(eight_normal_crossing)
        report = bound_from_summary(cs, LocalSystem.create(3, [1] * 8))
        assert report.n0 == 0
        assert report.n_infinity == 4
        assert report.bound == 0
        assert report.vertex_sum_zero == 0
        assert report.vertex_sum_infinity == 4
        assert report.normal_crossing_shortcut
        assert report.to_json()["allLambdaNontrivial"] is True
        assert report.order == 3

    def test_weighted_residues_order_four(self, triangle):
        # bound uses the residues as weights, whatever the file weights are
        cs = compute_combinatorics(triangle)
        report = bound_from_summary(cs, LocalSystem.create(4, [1, 1, 2]))
        assert report.n0 == 0
        assert report.n_infinity == 1  # the (t^4 - 1) factor
        assert report.bound == 0
        assert report.vertex_sum_infinity is None  # 4 divides d_e = 4

    def test_concurrent_four_order_three(self, concurrent_four):
        cs = compute_combinatorics(concurrent_four)
        report = bound_from_summary(cs, LocalSystem.create(3, [1] * 4))
        assert report.n0 == 1
        assert report.n_infinity == 0
        assert report.bound == 0
        assert not report.normal_crossing_shortcut

    def test_trivial_monodromy_rejected(self, triangle):
        cs = compute_combinatorics(triangle)
        with pytest.raises(TrivialMonodromy):
            bound_from_summary(cs, LocalSystem.create(3, [1, 1, 3]))
        with pytest.raises(TrivialMonodromy):
            bound_from_summary(cs, LocalSystem.create(1, [0, 0, 0]))

    def test_length_mismatch_rejected(self, triangle):
        with pytest.raises(LengthMismatch):
            bound_from_summary(compute_combinatorics(triangle), LocalSystem.create(3, [1] * 5))

    def test_json_shape(self, eight_normal_crossing):
        cs = compute_combinatorics(eight_normal_crossing)
        payload = bound_from_summary(cs, LocalSystem.create(3, [1] * 8)).to_json()
        assert payload == {
            "N0": 0,
            "NInfinity": 4,
            "a": {"k": 1, "order": 3},
            "allLambdaNontrivial": True,
            "bound": 0,
            "normalCrossingShortcut": True,
            "vertexSumInfinity": 4,
            "vertexSumZero": 0,
        }


class TestDeltaF:
    def test_triangle(self, triangle):
        assert delta_f(compute_combinatorics(triangle)).exponents == {1: 2}

    def test_two_axes(self, two_axes):
        assert delta_f(compute_combinatorics(two_axes)).exponents == {1: 1}

    def test_eight_line_cube_root_multiplicity(self, eight_normal_crossing):
        value = delta_f(compute_combinatorics(eight_normal_crossing))
        assert value.multiplicity(3) == 0  # min(0, 4)

    @given(arrangement_specs, st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_multiplicity_is_min_of_sides(self, specs, order):
        cs = compute_combinatorics(build_arrangement(specs))
        expected = min(
            charpoly_zero_closed(cs).root_multiplicity(order),
            charpoly_infinity(cs).root_multiplicity(order),
        )
        assert delta_f(cs).multiplicity(order) == expected


class TestAgreementProperties:
    @given(arrangement_specs, st.integers(2, 12), st.lists(st.integers(1, 6), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_vertex_sum_equals_polynomial_multiplicity(self, specs, order, raw):
        arr = build_arrangement(specs)
        residues = [r % order for r in raw[: arr.d]]
        if any(r == 0 for r in residues):
            residues = [max(r, 1) for r in residues]
        ls = LocalSystem.create(order, residues)
        if 0 in ls.residues:
            return
        cs = compute_combinatorics(arr)
        assert vertex_mult_zero(cs, ls) == charpoly_zero_closed(
            cs, ls.residues
        ).root_multiplicity(ls.order)
        if sum(ls.residues) % ls.order != 0:
            assert vertex_mult_infinity(cs, ls) == charpoly_infinity(
                cs, ls.residues
            ).root_multiplicity(ls.order)

    @given(arrangement_specs, st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_equimonodromical_consistency(self, specs, pick):
        """Orders dividing d + 1 compare against projective-side sums."""
        arr = build_arrangement(specs)
        cs = compute_combinatorics(arr)
        divisors_of = [n for n in range(2, cs.d + 2) if (cs.d + 1) % n == 0]
        if not divisors_of:
            return
        order = divisors_of[pick % len(divisors_of)]
        infinity_sum = sum(
            g.count - 1 for g in cs.directions if (g.count + 1) % order == 0
        )
        assert charpoly_infinity(cs).root_multiplicity(order) == infinity_sum
        zero_sum = sum(
            n * (m - 2) for m, n in cs.histogram.items() if m % order == 0
        )
        assert charpoly_zero_closed(cs).root_multiplicity(order) == zero_sum

    @given(arrangement_specs, st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_bound_sanity(self, specs, order):
        arr = build_arrangement(specs)
        cs = compute_combinatorics(arr)
        report = bound_from_summary(cs, LocalSystem.create(order, [1] * cs.d))
        assert report.bound == min(report.n0, report.n_infinity)
        assert report.bound <= charpoly_zero_closed(cs).degree()
        assert report.bound <= betti1_general_fiber(cs)
        if report.normal_crossing_shortcut:
            assert report.n0 == 0
            assert report.bound == 0
