"""Closed-form invariants: frozen fixture values and exact identities."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemono import (
    WeightedArrangement,
    WeightedNotSupported,
    betti1_general_fiber,
    compute_combinatorics,
    genus_general_fiber,
    infinity_singularity_mu,
    invariant_report,
    mu_arrangement,
)

from _oracles import key_coefficients
from test_arrangement import arrangement_specs, build_arrangement


class TestMu:
    def test_two_axes_torus_complement(self, two_axes):
        assert mu_arrangement(compute_combinatorics(two_axes)) == 0

    def test_triangle(self, triangle):
        # 1 - 3 + 3*1; cross-checked against 1 - chi(zero fiber) below.
        cs = compute_combinatorics(triangle)
        assert mu_arrangement(cs) == 1

    def test_eight_line(self, eight_normal_crossing):
        assert mu_arrangement(compute_combinatorics(eight_normal_crossing)) == 17

    @given(arrangement_specs)
    @settings(max_examples=60, deadline=None)
    def test_equals_one_minus_euler_of_zero_fiber(self, specs):
        cs = compute_combinatorics(build_arrangement(specs))
        chi_zero_fiber = cs.d - sum(m - 1 for m in cs.vertex_table[2])
        assert mu_arrangement(cs) == 1 - chi_zero_fiber
        assert mu_arrangement(cs) >= 0


class TestBetti1:
    def test_two_axes_fiber_is_punctured_plane(self, two_axes):
        assert betti1_general_fiber(compute_combinatorics(two_axes)) == 1

    def test_triangle_both_formulas(self, triangle):
        cs = compute_combinatorics(triangle)
        assert betti1_general_fiber(cs) == 4
        assert 1 - cs.d + sum(n * (m - 1) * m for m, n in cs.histogram.items()) == 4

    def test_weighted_triangle(self, weighted_triangle):
        assert betti1_general_fiber(compute_combinatorics(weighted_triangle)) == 5

    @given(arrangement_specs, st.integers(0, 5), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_weight_monotonicity(self, specs, which, bump):
        """Bumping one weight changes b1 by (d - 1) - k_j >= 0 per step.

        Strict growth exactly when the bumped line's parallel class is not
        all-but-one of the lines; a class of size d - 1 gives equality.
        """
        arr = build_arrangement(specs)
        cs = compute_combinatorics(arr)
        index = which % arr.d
        weights = list(arr.weights)
        weights[index] += bump
        k_j = next(g.count for g in cs.directions if index in g.members)
        reweighted = replace(cs, weights=tuple(weights))
        delta = betti1_general_fiber(reweighted) - betti1_general_fiber(cs)
        assert delta == bump * ((cs.d - 1) - k_j)
        assert delta >= 0
        if k_j < cs.d - 1:
            assert delta > 0


class TestGenus:
    def test_two_axes_conic_is_rational(self, two_axes):
        assert genus_general_fiber(compute_combinatorics(two_axes)) == 0

    def test_triangle_smooth_cubic(self, triangle):
        assert genus_general_fiber(compute_combinatorics(triangle)) == 1

    def test_eight_line(self, eight_normal_crossing):
        # 7*6/2 - 4*(2*1/2) = 21 - 4
        assert genus_general_fiber(compute_combinatorics(eight_normal_crossing)) == 17

    def test_rejects_weighted(self, weighted_triangle):
        with pytest.raises(WeightedNotSupported):
            genus_general_fiber(compute_combinatorics(weighted_triangle))

    @given(arrangement_specs)
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, specs):
        assert genus_general_fiber(compute_combinatorics(build_arrangement(specs))) >= 0


class TestInfinityMu:
    def test_smooth_point_for_singleton_class(self, triangle):
        cs = compute_combinatorics(triangle)
        assert [infinity_singularity_mu(cs, j) for j in range(cs.p)] == [0, 0, 0]

    def test_eight_line_all_nodes_at_infinity(self, eight_normal_crossing):
        cs = compute_combinatorics(eight_normal_crossing)
        # k_j = 2, d_j = 2, d_e = 8: 8*0 + 2*0 + 1 = (k_j - 1)^2
        assert [infinity_singularity_mu(cs, j) for j in range(cs.p)] == [1, 1, 1, 1]

    def test_weighted_triangle_weight_two_direction(self, weighted_triangle):
        cs = compute_combinatorics(weighted_triangle)
        values = {
            key_coefficients(cs.directions[j].key): infinity_singularity_mu(cs, j)
            for j in range(cs.p)
        }
        by_weight = {
            sum(cs.weights[i] for i in g.members): infinity_singularity_mu(cs, j)
            for j, g in enumerate(cs.directions)
        }
        # the weight-2 line alone in its class: 4*1 + 2*(-1) + 1 = 3
        assert by_weight[2] == 3
        assert by_weight[1] == 0
        assert len(values) == 3


class TestReport:
    def test_triangle(self, triangle):
        report = invariant_report(compute_combinatorics(triangle))
        assert report.mu == 1
        assert report.chi_complement == 1
        assert report.b1_fiber == 4
        assert report.genus == 1
        assert report.dicritics == 3
        assert report.b1_complement == 3
        assert report.kaliman_lhs == report.kaliman_rhs == 2
        assert report.numbers_identity_holds

    def test_two_axes(self, two_axes):
        report = invariant_report(compute_combinatorics(two_axes))
        assert report.mu == 0
        assert report.b1_fiber == 1
        assert report.genus == 0
        assert report.dicritics == 2

    def test_eight_line(self, eight_normal_crossing):
        report = invariant_report(compute_combinatorics(eight_normal_crossing))
        assert report.mu == 17
        assert report.b1_fiber == 41
        # identity sides: 41 = 49 - 8
        assert report.numbers_identity_holds
        assert (report.b1_complement - 1) ** 2 - 8 == 41

    def test_weighted_genus_absent(self, weighted_triangle):
        report = invariant_report(compute_combinatorics(weighted_triangle))
        assert report.genus is None
        assert report.b1_fiber == 5
        assert report.dicritics == 3

    def test_json_shape(self, triangle):
        payload = invariant_report(compute_combinatorics(triangle)).to_json()
        assert payload["mu"] == payload["chiComplement"] == 1
        assert payload["infinityMu"] == [0, 0, 0]
        assert set(payload) == {
            "b1Complement",
            "b1Fiber",
            "chiComplement",
            "dicritics",
            "genus",
            "infinityMu",
            "kalimanLHS",
            "kalimanRHS",
            "mu",
            "numbersIdentityHolds",
        }

    @given(arrangement_specs)
    @settings(max_examples=60, deadline=None)
    def test_numbers_identity_on_random_arrangements(self, specs):
        report = invariant_report(compute_combinatorics(build_arrangement(specs)))
        assert report.numbers_identity_holds
        assert report.dicritics == report.b1_complement

    @given(arrangement_specs, st.lists(st.integers(1, 5), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_weighted_report_consistency(self, specs, raw_weights):
        base = build_arrangement(specs)
        from math import gcd

        weights = raw_weights[: base.d]
        g = gcd(*weights)
        arr = WeightedArrangement.build(list(base.lines), [w // g for w in weights])
        cs = compute_combinatorics(arr)
        report = invariant_report(cs)
        assert report.numbers_identity_holds
        assert report.b1_fiber == betti1_general_fiber(cs)
