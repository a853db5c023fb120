"""Local systems, eigenvalue counting at vertices, and the twisted bounds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemono import (
    BadMonodromy,
    BadOrder,
    BadResidues,
    LengthMismatch,
    LocalSystem,
    RootOfUnity,
    TrivialMonodromy,
    bound_from_summary,
    canonical_local_system,
    charpoly_infinity,
    charpoly_zero_closed,
    compute_combinatorics,
    delta_f,
    h1_upper_bound,
)
from _oracles import vertex_mult_infinity, vertex_mult_zero
from test_arrangement import arrangement_specs, build_arrangement


class TestCanonicalLocalSystem:
    def test_lcm_and_scaling(self):
        ls = canonical_local_system([Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
        assert ls.order == 4
        assert ls.residues == (1, 1, 2)

    def test_common_factor_in_residues_is_allowed(self):
        ls = canonical_local_system([Fraction(2, 3), Fraction(2, 3)])
        assert ls.order == 3
        assert ls.residues == (2, 2)
        assert ls.residues_gcd == 2

    def test_mixed_denominators(self):
        ls = canonical_local_system([Fraction(1, 2), Fraction(1, 3)])
        assert ls.order == 6
        assert ls.residues == (3, 2)

    def test_strict_mode_rejects_trivial(self):
        with pytest.raises(TrivialMonodromy):
            canonical_local_system([Fraction(0), Fraction(1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            canonical_local_system([Fraction(3, 2)])

    def test_create_reduces_to_minimal_order(self):
        ls = LocalSystem.create(6, [2, 4])
        assert ls.order == 3
        assert ls.residues == (1, 2)

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
    """Bad residues and monodromies raise InputErrors that stay ValueErrors."""

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

    @pytest.mark.parametrize("monodromies", [[], ["3/2"], [Fraction(-1, 3)], [1], ["x"], ["1/0"]])
    def test_bad_monodromy(self, monodromies):
        with pytest.raises(BadMonodromy) as info:
            canonical_local_system(monodromies)
        assert isinstance(info.value, ValueError)
        assert info.value.code == "BadMonodromy"


class TestVertexMultZero:
    def test_eight_line_order_three(self, eight_normal_crossing):
        cs = compute_combinatorics(eight_normal_crossing)
        assert vertex_mult_zero(cs, LocalSystem.equimonodromical(3, 8)) == 0

    def test_weighted_triangle_order_four(self, weighted_triangle):
        cs = compute_combinatorics(weighted_triangle)
        ls = LocalSystem.create(4, [1, 1, 2])
        # vertex weight sums 2, 3, 3: none divisible by 4
        assert vertex_mult_zero(cs, ls) == 0

    def test_concurrent_triple_point(self):
        arr = build_arrangement([(0, 0), (1, 0), (2, 0)])  # x, y, x+y through origin
        cs = compute_combinatorics(arr)
        assert vertex_mult_zero(cs, LocalSystem.equimonodromical(3, 3)) == 1

    def test_trivial_rejected(self, triangle):
        cs = compute_combinatorics(triangle)
        with pytest.raises(TrivialMonodromy):
            bound_from_summary(cs, LocalSystem.create(3, [3, 1, 1]))

    def test_length_mismatch(self, triangle):
        cs = compute_combinatorics(triangle)
        with pytest.raises(LengthMismatch):
            bound_from_summary(cs, LocalSystem.equimonodromical(3, 4))


class TestVertexMultInfinity:
    def test_eight_line_order_three(self, eight_normal_crossing):
        cs = compute_combinatorics(eight_normal_crossing)
        # d_e = 8, d_e - d_j = 6 for all four directions, each k_j - 1 = 1
        assert vertex_mult_infinity(cs, LocalSystem.equimonodromical(3, 8)) == 4

    def test_triangle_order_two(self, triangle):
        cs = compute_combinatorics(triangle)
        # 2 | 3 - 1 for every direction but every k_j - 1 = 0
        assert vertex_mult_infinity(cs, LocalSystem.equimonodromical(2, 3)) == 0

    def test_order_dividing_total_weight(self, weighted_triangle):
        cs = compute_combinatorics(weighted_triangle)
        ls = LocalSystem.create(4, [1, 1, 2])
        assert vertex_mult_infinity(cs, ls) is None


class TestUpperBound:
    def test_eight_line_order_three(self, eight_normal_crossing):
        report = h1_upper_bound(
            eight_normal_crossing, LocalSystem.equimonodromical(3, 8)
        )
        assert report.n0 == 0
        assert report.n_infinity == 4
        assert report.bound == 0
        assert report.vertex_sum_zero == 0
        assert report.vertex_sum_infinity == 4
        assert report.normal_crossing_shortcut
        assert report.all_lambda_nontrivial
        assert report.a == RootOfUnity(1, 3)

    def test_weighted_residues_order_four(self, triangle):
        # bound uses the residues as weights, whatever the file weights are
        report = h1_upper_bound(triangle, LocalSystem.create(4, [1, 1, 2]))
        assert report.n0 == 0
        assert report.n_infinity == 1  # the (t^4 - 1) factor
        assert report.bound == 0
        assert report.vertex_sum_infinity is None  # 4 divides d_e = 4

    def test_concurrent_four_order_three(self, concurrent_four):
        report = h1_upper_bound(concurrent_four, LocalSystem.equimonodromical(3, 4))
        assert report.n0 == 1
        assert report.n_infinity == 0
        assert report.bound == 0
        assert not report.normal_crossing_shortcut

    def test_trivial_monodromy_rejected(self, triangle):
        with pytest.raises(TrivialMonodromy):
            h1_upper_bound(triangle, LocalSystem.create(3, [1, 1, 3]))
        with pytest.raises(TrivialMonodromy):
            h1_upper_bound(triangle, LocalSystem.create(1, [0, 0, 0]))

    def test_length_mismatch_rejected(self, triangle):
        with pytest.raises(LengthMismatch):
            h1_upper_bound(triangle, LocalSystem.equimonodromical(3, 5))

    def test_json_shape(self, eight_normal_crossing):
        payload = h1_upper_bound(
            eight_normal_crossing, LocalSystem.equimonodromical(3, 8)
        ).to_json()
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
        assert value.multiplicity(RootOfUnity(1, 3)) == 0  # min(0, 4)

    @given(arrangement_specs, st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_multiplicity_is_min_of_sides(self, specs, order):
        cs = compute_combinatorics(build_arrangement(specs))
        root = RootOfUnity(1, order)
        expected = min(
            charpoly_zero_closed(cs).root_multiplicity(root),
            charpoly_infinity(cs).root_multiplicity(root),
        )
        assert delta_f(cs).multiplicity(root) == expected


class TestAgreementProperties:
    @given(arrangement_specs, st.integers(2, 12), st.lists(st.integers(1, 6), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_vertex_sum_equals_polynomial_multiplicity(self, specs, order, raw):
        arr = build_arrangement(specs)
        residues = [r % order for r in raw[: arr.d]]
        if any(r == 0 for r in residues):
            residues = [max(r, 1) for r in residues]
        ls = LocalSystem.create(order, residues)
        if ls.has_trivial:
            return
        cs = compute_combinatorics(arr)
        a = RootOfUnity(1, ls.order)
        assert vertex_mult_zero(cs, ls) == charpoly_zero_closed(
            cs, ls.residues
        ).root_multiplicity(a)
        if sum(ls.residues) % ls.order != 0:
            assert vertex_mult_infinity(cs, ls) == charpoly_infinity(
                cs, ls.residues
            ).root_multiplicity(a)

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
        root = RootOfUnity(1, order)
        infinity_sum = sum(
            g.count - 1 for g in cs.directions if (g.count + 1) % order == 0
        )
        assert charpoly_infinity(cs).root_multiplicity(root) == infinity_sum
        zero_sum = sum(
            n * (m - 2) for m, n in cs.histogram.items() if m % order == 0
        )
        assert charpoly_zero_closed(cs).root_multiplicity(root) == zero_sum

    @given(arrangement_specs, st.integers(2, 12))
    @settings(max_examples=60, deadline=None)
    def test_bound_sanity(self, specs, order):
        arr = build_arrangement(specs)
        cs = compute_combinatorics(arr)
        report = h1_upper_bound(arr, LocalSystem.equimonodromical(order, arr.d))
        assert report.bound == min(report.n0, report.n_infinity)
        assert report.bound <= charpoly_zero_closed(cs).degree()
        from linemono import betti1_general_fiber

        assert report.bound <= betti1_general_fiber(cs)
        if report.normal_crossing_shortcut:
            assert report.n0 == 0
            assert report.bound == 0
