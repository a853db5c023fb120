"""Acceptance suite: one test per criterion, exact equality throughout.

Every [criterion] test prints a PASS line on success (run with `pytest -s`
to see them); any failure surfaces as an ordinary pytest failure.  The
200-arrangement battery reuses the deterministic census generator with
seed 1; weighted variants draw weights in [1, 5] from an independent
fixed stream and divide by their gcd.
"""

import json
import time
from math import gcd

import pytest

from linemono import (
    DuplicateLine,
    LocalSystem,
    NotEssential,
    RootOfUnity,
    RunConfig,
    TrivialMonodromy,
    WeightedArrangement,
    betti1_general_fiber,
    charpoly_infinity,
    charpoly_zero_closed,
    charpoly_zero_from_zeta,
    compute_combinatorics,
    delta_f,
    draw_arrangement,
    h1_upper_bound,
    invariant_report,
    parse_arrangement,
    run_census,
    zeta_at_zero,
)
from linemono.census import SplitMix64

from _oracles import (
    expand_factored,
    poly_gcd,
    root_multiplicity,
    vertex_mult_infinity,
    vertex_mult_zero,
)
from conftest import (
    CONCURRENT_FOUR,
    EIGHT_NORMAL_CROSSING,
    TRIANGLE,
    TWO_AXES,
    WEIGHTED_TRIANGLE,
    arrangement,
)

CENSUS_SEED = 1
CENSUS_COUNT = 200
WEIGHT_STREAM_SEED = 1001

_cache: dict = {}


def census_arrangements():
    if "arrangements" not in _cache:
        start = time.perf_counter()
        rng = SplitMix64(CENSUS_SEED)
        _cache["arrangements"] = [draw_arrangement(rng, 8) for _ in range(CENSUS_COUNT)]
        _cache["generation_seconds"] = time.perf_counter() - start
    return _cache["arrangements"]


def weighted_variants():
    if "weighted" not in _cache:
        rng = SplitMix64(WEIGHT_STREAM_SEED)
        variants = []
        for arr in census_arrangements():
            weights = [1 + rng.below(5) for _ in range(arr.d)]
            g = gcd(*weights)
            variants.append(
                WeightedArrangement.build(list(arr.lines), [w // g for w in weights])
            )
        _cache["weighted"] = variants
    return _cache["weighted"]


def report(criterion: int, text: str):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_eight_line_example_reproduction():
    start = time.perf_counter()
    arr = arrangement(EIGHT_NORMAL_CROSSING)
    cs = compute_combinatorics(arr)
    assert cs.histogram == {2: 24}, "expected 24 double points and nothing else"
    bound = h1_upper_bound(arr, LocalSystem.equimonodromical(3, 8))
    assert bound.n0 == 0
    assert bound.n_infinity >= 1
    assert bound.n_infinity == 4
    assert bound.bound == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    # independent dense-polynomial multiplicity for the infinity side
    dense = expand_factored(charpoly_infinity(cs).factors)
    assert root_multiplicity(dense, 3) == 4
    report(1, f"n_2=24 only doubles, N0=0, NInfinity=4, bound=0 in {elapsed:.3f}s")


def test_criterion_2_numbers_identity_on_census():
    start = time.perf_counter()
    arrangements = census_arrangements()
    assert len(arrangements) >= 200
    for arr in arrangements:
        cs = compute_combinatorics(arr)
        lhs = 1 - cs.d + sum(n * (m - 1) * m for m, n in cs.histogram.items())
        rhs = (cs.d - 1) ** 2 - sum(g.count * (g.count - 1) for g in cs.directions)
        assert lhs == rhs, f"identity fails: {lhs} != {rhs} for {arr.lines}"
    elapsed = time.perf_counter() - start + _cache.get("generation_seconds", 0.0)
    assert elapsed < 10.0, f"took {elapsed:.3f}s, budget 10s"
    report(2, f"identity exact on {len(arrangements)} seed-{CENSUS_SEED} draws "
              f"in {elapsed:.3f}s")


def test_criterion_3_degree_identity_unweighted_and_weighted():
    checked = 0
    for arr in census_arrangements() + weighted_variants():
        cs = compute_combinatorics(arr)
        b1 = betti1_general_fiber(cs)
        assert charpoly_zero_closed(cs).degree() == b1
        assert charpoly_infinity(cs).degree() == b1
        checked += 1
    report(3, f"deg about-zero = deg at-infinity = b1 on {checked} arrangements "
              f"(weights in [1,5], gcd 1)")


def test_criterion_4_root_one_multiplicity():
    one = RootOfUnity(0, 1)
    for arr in census_arrangements() + weighted_variants():
        cs = compute_combinatorics(arr)
        assert charpoly_infinity(cs).root_multiplicity(one) == cs.d - 1
    report(4, "multiplicity of 1 at infinity is d-1, independent of weights")


def test_criterion_5_zeta_agreement():
    for arr in census_arrangements() + weighted_variants():
        cs = compute_combinatorics(arr)
        via_zeta = charpoly_zero_from_zeta(zeta_at_zero(cs)).to_cyclotomic()
        assert via_zeta == charpoly_zero_closed(cs).to_cyclotomic()
    report(5, "stratified-zeta route equals closed formula as cyclotomic vectors")


def test_criterion_6_fixture_values():
    triangle = arrangement(TRIANGLE)
    cs = compute_combinatorics(triangle)
    rep = invariant_report(cs)
    assert (rep.mu, rep.b1_fiber, rep.genus) == (1, 4, 1)
    assert charpoly_infinity(cs).factors == {1: 1, 3: 1}
    assert charpoly_zero_closed(cs).factors == {1: 4}
    assert delta_f(cs).exponents == {1: 2}
    # dense re-check of the frozen values
    assert poly_gcd(
        expand_factored({1: 4}), expand_factored({1: 1, 3: 1})
    ) == expand_factored({1: 2})

    axes = arrangement(TWO_AXES)
    cs = compute_combinatorics(axes)
    rep = invariant_report(cs)
    assert (rep.mu, rep.b1_fiber) == (0, 1)
    assert charpoly_infinity(cs).factors == {1: 1}
    assert charpoly_zero_closed(cs).factors == {1: 1}

    weighted = arrangement(WEIGHTED_TRIANGLE)
    cs = compute_combinatorics(weighted)
    assert betti1_general_fiber(cs) == 5
    zero = charpoly_zero_closed(cs)
    assert zero.factors == {1: 3, 2: 1}
    assert zero.to_cyclotomic().exponents == {1: 4, 2: 1}
    # dense re-check: (t-1)^3 (t^2-1) expanded both ways
    assert expand_factored(zero.factors) == expand_factored({1: 3, 2: 1})
    assert zero.expand() == [int(c) for c in expand_factored({1: 3, 2: 1})]
    report(6, "triangle, two-axes and weighted-triangle values all exact")


def test_criterion_7_both_bound_directions():
    found_seed = None
    for seed in (CENSUS_SEED, CENSUS_SEED + 1, CENSUS_SEED + 2):
        rows = list(
            run_census(RunConfig(seed=seed, count=CENSUS_COUNT, max_lines=8, max_order=6))
        )
        has_zero = any(r.tighter == "zero" for r in rows)
        has_infinity = any(r.tighter == "infinity" for r in rows)
        if has_zero and has_infinity:
            found_seed = seed
            _cache["census_rows"] = rows
            break
    assert found_seed is not None, "no seed in 3 attempts produced both directions"

    concurrent = arrangement(CONCURRENT_FOUR)
    bound = h1_upper_bound(concurrent, LocalSystem.equimonodromical(3, 4))
    assert bound.n_infinity == 0
    assert bound.n0 == 1
    assert bound.n_infinity < bound.n0
    report(7, f"seed {found_seed} census has both strict directions; "
              f"concurrent fixture gives NInfinity=0 < N0=1")


def test_criterion_8_vertex_sum_agreement_on_census():
    if "census_rows" not in _cache:
        _cache["census_rows"] = list(
            run_census(
                RunConfig(seed=CENSUS_SEED, count=CENSUS_COUNT, max_lines=8, max_order=6)
            )
        )
    rows = _cache["census_rows"]
    arrangements = {i: arr for i, arr in enumerate(census_arrangements())}
    checked_infinity = 0
    for row in rows:
        arr = arrangements[row.index]
        cs = compute_combinatorics(arr)
        ls = LocalSystem.equimonodromical(row.order, arr.d)
        assert vertex_mult_zero(cs, ls) == row.n0
        if sum(ls.residues) % ls.order != 0:
            assert vertex_mult_infinity(cs, ls) == row.n_infinity
            checked_infinity += 1
    report(8, f"vertex sums match polynomial multiplicities on {len(rows)} rows "
              f"({checked_infinity} with nontrivial monodromy at infinity)")


def test_criterion_9_negative_controls():
    with pytest.raises(DuplicateLine):
        parse_arrangement(
            json.dumps(
                {
                    "lines": [
                        {"a": 1, "b": 0, "c": 0},
                        {"a": "2", "b": 0, "c": 0},
                        {"a": 0, "b": 1, "c": 0},
                    ]
                }
            )
        )
    with pytest.raises(NotEssential):
        parse_arrangement(
            json.dumps(
                {"lines": [{"a": 1, "b": 1, "c": 0}, {"a": 1, "b": 1, "c": 5}]}
            )
        )
    triangle = arrangement(TRIANGLE)
    with pytest.raises(TrivialMonodromy):
        h1_upper_bound(triangle, LocalSystem.create(3, [1, 2, 3]))
    weighted = arrangement(WEIGHTED_TRIANGLE)
    cs = compute_combinatorics(weighted)
    assert vertex_mult_infinity(cs, LocalSystem.create(4, [1, 1, 2])) is None
    report(9, "duplicate, parallel, trivial-monodromy and infinity-trivial "
              "inputs all raise their designated errors")
