"""Characteristic polynomials and the stratified zeta pipeline."""

import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemono import (
    BadWeight,
    CombinatorialSummary,
    FactoredUnityPoly,
    LengthMismatch,
    betti1_general_fiber,
    charpoly_infinity,
    charpoly_zero_closed,
    charpoly_zero_from_zeta,
    compute_combinatorics,
    infinity_singularity_mu,
    local_zeta,
    parse_arrangement,
    strata,
    zeta_at_zero,
)
from linemono.monodromy import StratumDescriptor

from _oracles import brute_combinatorics, expand_factored, root_multiplicity
from test_arrangement import DIRECTION_POOL, arrangement_specs, build_arrangement


class TestCharpolyInfinity:
    def test_triangle(self, triangle):
        poly = charpoly_infinity(compute_combinatorics(triangle))
        assert poly.factors == {1: 1, 3: 1}

    def test_two_axes_all_exponents_vanish(self, two_axes):
        poly = charpoly_infinity(compute_combinatorics(two_axes))
        assert poly.factors == {1: 1}

    def test_eight_line(self, eight_normal_crossing):
        poly = charpoly_infinity(compute_combinatorics(eight_normal_crossing))
        assert poly.factors == {1: 1, 8: 2, 6: 4}
        assert poly.degree() == 41

    def test_weighted_triangle(self, weighted_triangle):
        poly = charpoly_infinity(compute_combinatorics(weighted_triangle))
        assert poly.factors == {1: 1, 4: 1}

    def test_reads_class_sums_only(self, monkeypatch, eight_normal_crossing):
        """The formulas at infinity sum weights over the classes, never over the vertices."""
        cs = compute_combinatorics(eight_normal_crossing)
        class_sums = CombinatorialSummary.class_sums
        calls = []

        def counted(self, weights):
            calls.append(tuple(weights))
            return class_sums(self, weights)

        def refused(self, weights):
            raise AssertionError("a per-vertex weight sum was built")

        monkeypatch.setattr(CombinatorialSummary, "class_sums", counted)
        monkeypatch.setattr(CombinatorialSummary, "vertex_sums", refused)
        assert charpoly_infinity(cs).factors == {1: 1, 8: 2, 6: 4}
        charpoly_infinity(cs, [1, 2] * 4)
        assert betti1_general_fiber(cs) == 41
        assert [infinity_singularity_mu(cs, j) for j in range(cs.p)] == [1] * 4
        assert calls[:2] == [cs.weights, (1, 2) * 4]
        assert len(calls) == 2 + 1 + cs.p


class TestCharpolyZero:
    def test_two_axes_trivial_monodromy_on_h1(self, two_axes):
        poly = charpoly_zero_closed(compute_combinatorics(two_axes))
        assert poly.factors == {1: 1}

    def test_triangle(self, triangle):
        poly = charpoly_zero_closed(compute_combinatorics(triangle))
        assert poly.factors == {1: 4}

    def test_weighted_triangle(self, weighted_triangle):
        poly = charpoly_zero_closed(compute_combinatorics(weighted_triangle))
        assert poly.factors == {1: 3, 2: 1}
        assert poly.degree() == 5

    def test_eight_line(self, eight_normal_crossing):
        poly = charpoly_zero_closed(compute_combinatorics(eight_normal_crossing))
        assert poly.factors == {1: 41}


class TestLocalZeta:
    def test_smooth_reduced_point(self):
        s = StratumDescriptor("open_line_piece", weight_sum=1, multiplicity=1, euler=-1)
        assert local_zeta(s).value.factors == {1: 1}

    def test_node_is_unit(self):
        s = StratumDescriptor("vertex", weight_sum=2, multiplicity=2, euler=1)
        assert local_zeta(s).value.is_one

    def test_ordinary_triple_point(self):
        # Milnor fiber Euler characteristic 3(2-3) = -3, exponent chi/D = -1.
        s = StratumDescriptor("vertex", weight_sum=3, multiplicity=3, euler=1)
        assert local_zeta(s).value.factors == {3: -1}

    def test_weighted_smooth_point(self):
        s = StratumDescriptor("open_line_piece", weight_sum=2, multiplicity=1, euler=0)
        assert local_zeta(s).value.factors == {2: 1}


class TestZetaAtZero:
    def test_two_axes_unit(self, two_axes):
        assert zeta_at_zero(compute_combinatorics(two_axes)).value.is_one

    def test_triangle(self, triangle):
        z = zeta_at_zero(compute_combinatorics(triangle))
        assert z.value.factors == {1: -3}
        assert z.numerator().is_one
        assert z.denominator().factors == {1: 3}

    def test_weighted_triangle(self, weighted_triangle):
        z = zeta_at_zero(compute_combinatorics(weighted_triangle))
        assert z.value.factors == {1: -2, 2: -1}

    def test_strata_inventory(self, triangle):
        cs = compute_combinatorics(triangle)
        descriptors = list(strata(cs))
        vertices = [s for s in descriptors if s.kind == "vertex"]
        pieces = [s for s in descriptors if s.kind == "open_line_piece"]
        assert len(vertices) == 3 and len(pieces) == 3
        assert all(s.euler == 1 for s in vertices)
        assert all(s.euler == -1 for s in pieces)

    def test_json(self, triangle):
        payload = zeta_at_zero(compute_combinatorics(triangle)).to_json()
        assert payload == {"denominator": {"1": 3}, "numerator": {}}


class TestCharpolyFromZeta:
    def test_two_axes(self, two_axes):
        z = zeta_at_zero(compute_combinatorics(two_axes))
        assert charpoly_zero_from_zeta(z).factors == {1: 1}

    def test_triangle(self, triangle):
        z = zeta_at_zero(compute_combinatorics(triangle))
        assert charpoly_zero_from_zeta(z).factors == {1: 4}

    def test_weighted_triangle_cyclotomic_form(self, weighted_triangle):
        z = zeta_at_zero(compute_combinatorics(weighted_triangle))
        value = charpoly_zero_from_zeta(z)
        assert value.to_cyclotomic().exponents == {1: 4, 2: 1}


class TestIdentities:
    @given(arrangement_specs, st.lists(st.integers(1, 5), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_degree_identity_weighted(self, specs, raw_weights):
        from linemono import WeightedArrangement

        base = build_arrangement(specs)
        weights = raw_weights[: base.d]
        g = gcd(*weights)
        arr = WeightedArrangement.build(list(base.lines), [w // g for w in weights])
        cs = compute_combinatorics(arr)
        b1 = betti1_general_fiber(cs)
        assert charpoly_zero_closed(cs).degree() == b1
        assert charpoly_infinity(cs).degree() == b1

    @given(arrangement_specs)
    @settings(max_examples=60, deadline=None)
    def test_root_one_multiplicity_is_d_minus_one(self, specs):
        cs = compute_combinatorics(build_arrangement(specs))
        poly = charpoly_infinity(cs)
        assert poly.root_multiplicity(1) == cs.d - 1

    @given(arrangement_specs, st.lists(st.integers(1, 5), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_zeta_agreement(self, specs, raw_weights):
        from linemono import WeightedArrangement

        base = build_arrangement(specs)
        weights = raw_weights[: base.d]
        g = gcd(*weights)
        arr = WeightedArrangement.build(list(base.lines), [w // g for w in weights])
        cs = compute_combinatorics(arr)
        via_zeta = charpoly_zero_from_zeta(zeta_at_zero(cs))
        assert via_zeta.to_cyclotomic() == charpoly_zero_closed(cs).to_cyclotomic()

    @given(arrangement_specs)
    @settings(max_examples=40, deadline=None)
    def test_unweighted_specialization(self, specs):
        cs = compute_combinatorics(build_arrangement(specs))
        mu = 1 - cs.d + sum(n * (m - 1) for m, n in cs.histogram.items())
        special = FactoredUnityPoly(
            [(1, mu + sum(cs.histogram.values()))]
            + [(m, n * (m - 2)) for m, n in cs.histogram.items()]
        )
        assert special.to_cyclotomic() == charpoly_zero_closed(cs).to_cyclotomic()

    @given(arrangement_specs)
    @settings(max_examples=40, deadline=None)
    def test_exponents_nonnegative(self, specs):
        cs = compute_combinatorics(build_arrangement(specs))
        assert not charpoly_zero_closed(cs).has_negative_exponent()
        assert not charpoly_infinity(cs).has_negative_exponent()


def merged(factors):
    """{m: c} with repeated indices summed and zero exponents dropped."""
    out = {}
    for m, c in factors:
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c != 0}


class TestWeightArgument:
    @given(arrangement_specs, st.lists(st.integers(1, 9), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_closed_formulas_against_brute_force(self, specs, raw_weights):
        """Any positive weights on fixed geometry, gcd not required."""
        cs = compute_combinatorics(build_arrangement(specs))
        weights = raw_weights[: cs.d]
        raw = [(*DIRECTION_POOL[idx], offset) for idx, offset in specs]
        oracle = brute_combinatorics(raw, weights)
        d_e = oracle["d_e"]

        zero = [(1, 1)]
        zero += [(e, v - 1) for e, v in zip(weights, oracle["line_vertex_counts"])]
        zero += [
            (oracle["vertex_weight_sums"][point], len(incident) - 2)
            for point, incident in oracle["vertices"].items()
        ]
        assert charpoly_zero_closed(cs, weights).factors == merged(zero)

        infinity = [(1, 1), (d_e, oracle["p"] - 2)]
        infinity += [
            (d_e - oracle["class_weights"][direction], len(members) - 1)
            for direction, members in oracle["class_members"].items()
        ]
        assert charpoly_infinity(cs, weights).factors == merged(infinity)

    def test_default_is_the_arrangements_own_weights(self, weighted_triangle):
        cs = compute_combinatorics(weighted_triangle)
        assert charpoly_zero_closed(cs, (1, 1, 2)) == charpoly_zero_closed(cs)
        assert charpoly_infinity(cs, [1, 1, 2]) == charpoly_infinity(cs)

    def test_weights_change_only_the_weighted_factors(self, triangle):
        cs = compute_combinatorics(triangle)
        assert charpoly_zero_closed(cs, (1, 1, 2)).factors == {1: 3, 2: 1}
        assert charpoly_infinity(cs, (2, 2, 2)).factors == {1: 1, 6: 1}

    @pytest.mark.parametrize(
        "weights, error",
        [((1, 1), LengthMismatch), ((1, 0, 1), BadWeight), ((1, -2, 1), BadWeight)],
    )
    def test_bad_weight_vectors(self, triangle, weights, error):
        cs = compute_combinatorics(triangle)
        for formula in (charpoly_zero_closed, charpoly_infinity):
            with pytest.raises(error):
                formula(cs, weights)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8])
    def test_eight_line_multiplicities(self, eight_normal_crossing, order):
        cs = compute_combinatorics(eight_normal_crossing)
        poly = charpoly_infinity(cs)
        dense = expand_factored(poly.factors)
        assert poly.root_multiplicity(order) == root_multiplicity(
            dense, order
        )


def weighted_grid(per_direction, seed):
    """A 4-direction grid of 4 * per_direction lines with seeded weights 1..100."""
    rng = random.Random(seed)
    lines, weights = [], []
    for a, b in ((1, 0), (0, 1), (1, 1), (1, -1)):
        for offset in range(-(per_direction // 2), per_direction - per_direction // 2):
            lines.append({"a": a, "b": b, "c": offset, "e": rng.randint(1, 100)})
    lines[0]["e"] = 1  # keeps the gcd of the weights 1
    return parse_arrangement({"lines": lines})


class TestOnePassZeta:
    @given(arrangement_specs, st.lists(st.integers(1, 5), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_stratified_product(self, specs, raw_weights):
        from linemono import WeightedArrangement

        base = build_arrangement(specs)
        weights = raw_weights[: base.d]
        g = gcd(*weights)
        cs = compute_combinatorics(
            WeightedArrangement.build(list(base.lines), [w // g for w in weights])
        )
        product = FactoredUnityPoly()
        for s in strata(cs):
            product = product * (local_zeta(s).value ** s.euler)
        assert zeta_at_zero(cs).value == product

    def test_weighted_grid_d200(self):
        cs = compute_combinatorics(weighted_grid(50, seed=5))
        assert cs.d == 200 and len(cs.keys) + cs.double_points > 5000
        start = time.perf_counter()
        z = zeta_at_zero(cs)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.2, f"zeta took {elapsed:.3f}s"
        assert charpoly_zero_from_zeta(z) == charpoly_zero_closed(cs)
