"""Exact factored-polynomial algebra: frozen examples and algebraic laws."""

import json
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemono import (
    EXPAND_LIMIT,
    INDEX_LIMIT,
    CyclotomicExponents,
    ExpandTooLarge,
    FactoredUnityPoly,
    IndexTooLarge,
    NegativeExponent,
    NotPolynomial,
    RootOfUnity,
    gcd_factored,
)
from linemono.cli import main
from linemono.factored import divisors

from _oracles import (
    cyclotomic,
    divmod_factored,
    euler_phi,
    expand_factored,
    moebius,
    pmul,
    poly_gcd,
    root_multiplicity,
)


def fp(factors):
    return FactoredUnityPoly(factors)


def moebius_factors(n):
    """Phi_n = prod_{d | n} (t^d - 1)^{mu(n/d)} as a factor map."""
    return {d: moebius(n // d) for d in range(1, n + 1) if n % d == 0}


def oracle_dense(value: CyclotomicExponents):
    """prod Phi_n^{e_n} from the oracle's Moebius-product cyclotomics."""
    out = [Fraction(1)]
    for n, e in value.exponents.items():
        for _ in range(e):
            out = pmul(out, cyclotomic(n))
    return out


class TestMultiply:
    def test_disjoint_union(self):
        assert (fp({1: 1}) * fp({3: 1})).factors == {1: 1, 3: 1}

    def test_exponent_cancellation(self):
        assert (fp({1: 2}) * fp({1: -1})).factors == {1: 1}

    def test_full_factor_cancellation(self):
        assert (fp({1: 1, 3: 1}) * fp({3: -1})).factors == {1: 1}

    def test_one_is_identity(self):
        value = fp({2: 3, 5: -1})
        assert value * FactoredUnityPoly() == value


class TestDegree:
    def test_power_of_linear(self):
        assert fp({1: 4}).degree() == 4

    def test_two_factor(self):
        assert fp({1: 1, 3: 1}).degree() == 4

    def test_weighted_triangle_infinity_degree(self):
        # Frozen from the dense expansion oracle: deg (t-1)(t^4-1) = 5.
        assert len(expand_factored({1: 1, 4: 1})) - 1 == 5
        assert fp({1: 1, 4: 1}).degree() == 5

    def test_rational_function_degree_negative(self):
        assert fp({1: -3, 2: 1}).degree() == -1


class TestToCyclotomic:
    def test_cube(self):
        assert fp({3: 1}).to_cyclotomic().exponents == {1: 1, 3: 1}

    def test_divisor_lattice_of_six(self):
        assert fp({6: 1}).to_cyclotomic().exponents == {1: 1, 2: 1, 3: 1, 6: 1}

    def test_additive_over_factors(self):
        assert fp({1: 1, 3: 1}).to_cyclotomic().exponents == {1: 2, 3: 1}


class TestRootMultiplicity:
    def test_primitive_cube_root_in_cube(self):
        assert fp({1: 1, 3: 1}).root_multiplicity(RootOfUnity(1, 3)) == 1

    def test_root_one_counted_in_both(self):
        assert fp({1: 1, 3: 1}).root_multiplicity(RootOfUnity(0, 1)) == 2

    def test_against_dense_division_oracle(self):
        # Frozen: repeated synthetic division of the dense expansion of
        # (t-1)(t^8-1)^2(t^6-1)^4 by Phi_3 succeeds exactly 4 times.
        factors = {1: 1, 8: 2, 6: 4}
        assert root_multiplicity(expand_factored(factors), 3) == 4
        assert fp(factors).root_multiplicity(RootOfUnity(1, 3)) == 4


class TestGcd:
    def test_linear_powers(self):
        # Frozen from the dense gcd oracle: gcd((t-1)^4, (t-1)(t^3-1)) = (t-1)^2.
        dense = poly_gcd(expand_factored({1: 4}), expand_factored({1: 1, 3: 1}))
        assert dense == [Fraction(1), Fraction(-2), Fraction(1)]
        assert gcd_factored(fp({1: 4}), fp({1: 1, 3: 1})).exponents == {1: 2}

    def test_idempotence(self):
        value = fp({1: 2, 4: 1, 6: 3})
        assert gcd_factored(value, value) == value.to_cyclotomic()

    def test_coprime_orders_share_only_root_one(self):
        assert gcd_factored(fp({2: 1}), fp({3: 1})).exponents == {1: 1}

    def test_negative_exponent_rejected(self):
        with pytest.raises(NegativeExponent):
            gcd_factored(fp({1: -1, 2: 1}), fp({1: 1}))
        with pytest.raises(NegativeExponent):
            gcd_factored(fp({1: 1}), fp({3: -2}))


class TestExpand:
    def test_linear(self):
        assert fp({1: 1}).expand() == [-1, 1]

    def test_product(self):
        assert fp({1: 1, 3: 1}).expand() == [1, -1, 0, -1, 1]

    def test_cyclotomic_six(self):
        # Phi_6 = (t^6-1)(t-1) / ((t^2-1)(t^3-1))
        assert fp({1: 1, 2: -1, 3: -1, 6: 1}).expand() == [1, -1, 1]

    def test_negative_factor_but_polynomial(self):
        # (t^2-1)/(t-1) = t + 1
        assert fp({2: 1, 1: -1}).expand() == [1, 1]

    def test_pole_rejected(self):
        with pytest.raises(NotPolynomial):
            fp({1: -1}).expand()
        with pytest.raises(NotPolynomial):
            fp({2: 1, 1: -2}).expand()  # cyclotomic exponent of Phi_1 is -1

    def test_empty_product_is_one(self):
        assert FactoredUnityPoly().expand() == [1]


class TestCyclotomicPoly:
    """Oracle self-tests, and expand() of the Moebius factor map of Phi_n."""

    def test_first_two(self):
        assert cyclotomic(1) == [-1, 1]
        assert cyclotomic(2) == [1, 1]
        assert fp(moebius_factors(1)).expand() == [-1, 1]
        assert fp(moebius_factors(2)).expand() == [1, 1]

    def test_twelve_against_long_division_oracle(self):
        # Frozen: Phi_12 = t^4 - t^2 + 1, from the Moebius/long-division
        # oracle and from expanding (t^12-1)(t^2-1) / ((t^6-1)(t^4-1)).
        assert [int(c) for c in cyclotomic(12)] == [1, 0, -1, 0, 1]
        assert moebius_factors(12) == {1: 0, 2: 1, 3: 0, 4: -1, 6: -1, 12: 1}
        assert fp(moebius_factors(12)).expand() == [1, 0, -1, 0, 1]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CyclotomicExponents({0: 1})

    @pytest.mark.parametrize("n", range(1, 61))
    def test_product_over_divisors(self, n):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = pmul(product, cyclotomic(d))
        expected = [-1] + [0] * (n - 1) + [1]
        assert product == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12, 15, 24, 30])
    def test_against_moebius_oracle(self, n):
        assert fp(moebius_factors(n)).expand() == [int(c) for c in cyclotomic(n)]


small_factored = st.dictionaries(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=-3, max_value=4).filter(bool),
    max_size=4,
)
nonneg_factored = st.dictionaries(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=4),
    max_size=4,
)


class TestAlgebraLaws:
    @given(small_factored, small_factored)
    def test_cyclotomic_refactoring_is_a_ring_map(self, a, b):
        left = (fp(a) * fp(b)).to_cyclotomic().exponents
        ea = fp(a).to_cyclotomic().exponents
        eb = fp(b).to_cyclotomic().exponents
        merged = {
            n: ea.get(n, 0) + eb.get(n, 0) for n in set(ea) | set(eb)
        }
        assert left == {n: e for n, e in merged.items() if e != 0}

    @given(small_factored)
    def test_degree_preserved_by_refactoring(self, a):
        poly = fp(a)
        assert poly.degree() == sum(
            euler_phi(n) * e for n, e in poly.to_cyclotomic().exponents.items()
        )

    @given(nonneg_factored, nonneg_factored)
    @settings(max_examples=40, deadline=None)
    def test_expand_of_product_is_product_of_expansions(self, a, b):
        product = fp(a) * fp(b)
        dense = [
            int(c) for c in pmul(fp(a).expand(), fp(b).expand())
        ]
        assert product.expand() == dense

    @given(nonneg_factored, st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_root_multiplicity_matches_dense_division(self, a, order):
        expected = root_multiplicity(expand_factored(a), order) if a else 0
        assert fp(a).root_multiplicity(RootOfUnity(1, order)) == expected

    @given(nonneg_factored, nonneg_factored)
    @settings(max_examples=30, deadline=None)
    def test_gcd_matches_dense_euclid(self, a, b):
        result = gcd_factored(fp(a), fp(b))
        dense = poly_gcd(expand_factored(a), expand_factored(b))
        assert oracle_dense(result) == dense


class TestCarrierBasics:
    def test_zero_exponents_dropped(self):
        assert fp({2: 0, 3: 1}).factors == {3: 1}

    def test_equality_and_hash(self):
        assert fp({1: 2}) == fp({1: 2})
        assert hash(fp({1: 2})) == hash(fp({1: 2}))
        assert fp({1: 2}) != fp({1: 3})

    def test_pow(self):
        assert (fp({2: 1, 3: -1}) ** -2).factors == {2: -2, 3: 2}
        assert (fp({2: 1}) ** 0).is_one

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            fp({0: 1})

    def test_json_round_trip_keys(self):
        assert fp({4: -1, 1: 2}).to_json() == {"1": 2, "4": -1}

    def test_str_forms(self):
        assert str(FactoredUnityPoly()) == "1"
        assert str(fp({1: 1, 3: 2})) == "(t-1)(t^3-1)^2"

    def test_cyclotomic_carrier(self):
        value = CyclotomicExponents({1: 2, 3: 1})
        assert sum(euler_phi(n) * e for n, e in value.exponents.items()) == 2 + 2
        assert value.multiplicity(RootOfUnity(1, 3)) == 1
        assert value.multiplicity(RootOfUnity(1, 5)) == 0
        assert value == fp({1: 1, 3: 1}).to_cyclotomic()
        assert oracle_dense(value) == expand_factored({1: 1, 3: 1})


class TestExpandAgainstOracle:
    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=30),
            st.integers(min_value=-3, max_value=4).filter(bool),
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_division(self, factors):
        quot, rem = divmod_factored(factors)
        value = fp(factors)
        if rem:
            with pytest.raises(NotPolynomial) as info:
                value.expand()
            assert str(info.value) == f"{value.to_cyclotomic()} has a pole; cannot expand"
        else:
            assert value.expand() == quot

    def test_exact_division_by_every_divisor_factor(self):
        # (t^12-1)^2 / (t^d-1) for each proper d | 12: no remainder.
        for d in (1, 2, 3, 4, 6):
            assert fp({12: 2, d: -1}).expand() == expand_factored({12: 2, d: -1})


class TestExpandLimit:
    def test_exactly_the_limit_expands(self):
        # D+ = 10 * 1000, S+ = 1000: (t^10 - 1)^1000 by the binomial theorem.
        assert 10 * 1000 * 1000 == EXPAND_LIMIT
        coefficients = fp({10: 1000}).expand()
        expected = [0] * 10001
        for k in range(1001):
            expected[10 * k] = (-1) ** (1000 - k) * comb(1000, k)
        assert coefficients == expected

    def test_one_over_the_limit_is_refused(self):
        # D+ = 10 + 909081 = 909091, S+ = 11, D+ * S+ = 10^7 + 1.
        value = fp({1: 10, 909081: 1})
        with pytest.raises(ExpandTooLarge):
            value.expand()

    def test_refused_before_any_work(self):
        start = time.perf_counter()
        with pytest.raises(ExpandTooLarge):
            fp({1: 1, 10**18: 2}).expand()
        assert time.perf_counter() - start < 0.1

    def test_huge_negative_exponent_stops_at_the_first_pole(self):
        # Negative exponents do not count toward the limit: the division
        # loop ends at the first inexact step.
        start = time.perf_counter()
        with pytest.raises(NotPolynomial):
            fp({2: 1, 1: -(10**18)}).expand()
        assert time.perf_counter() - start < 0.1


exponent_maps = st.dictionaries(
    st.integers(min_value=1, max_value=36),
    st.integers(min_value=-3, max_value=3).filter(bool),
    max_size=5,
)


@st.composite
def rewritten(draw, factors):
    """Another factor list with the same merged map: exponents split and shuffled."""
    pairs = []
    for m, c in factors.items():
        part = draw(st.integers(-3, 3))
        pairs += [(m, part), (m, c - part)]
    pairs += [(m, e) for m in draw(st.lists(st.integers(1, 36), max_size=2)) for e in (1, -1)]
    return draw(st.permutations(pairs))


class TestFactoredEquality:
    """Equal merged exponent maps are exactly equal cyclotomic exponents."""

    @given(exponent_maps, exponent_maps)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_cyclotomic_equality(self, a, b):
        assert (fp(a) == fp(b)) == (fp(a).to_cyclotomic() == fp(b).to_cyclotomic())

    @given(st.data(), exponent_maps)
    @settings(max_examples=100, deadline=None)
    def test_rewritten_products_are_equal(self, data, factors):
        other = fp(data.draw(rewritten(factors)))
        assert other == fp(factors)
        assert other.to_cyclotomic() == fp(factors).to_cyclotomic()

    @given(exponent_maps)
    @settings(max_examples=200, deadline=None)
    def test_has_pole_against_cyclotomic_exponents(self, factors):
        value = fp(factors)
        assert value.has_pole() == any(e < 0 for e in value.to_cyclotomic().exponents.values())

    def test_has_pole_enumerates_no_divisors_without_negative_exponents(self):
        start = time.perf_counter()
        assert not fp({1: 2, 10**18: 3}).has_pole()
        assert time.perf_counter() - start < 0.1


class TestIndexLimit:
    def test_divisors_up_to_the_limit(self):
        assert divisors(INDEX_LIMIT)[-2:] == [INDEX_LIMIT // 2, INDEX_LIMIT]
        assert len(divisors(INDEX_LIMIT)) == 13 * 13  # 10^12 = 2^12 5^12

    def test_divisors_above_the_limit_refused(self):
        with pytest.raises(IndexTooLarge):
            divisors(INDEX_LIMIT + 1)
        with pytest.raises(IndexTooLarge):
            fp({10**18: 1}).to_cyclotomic()

    def test_pole_message_on_a_huge_index(self):
        start = time.perf_counter()
        with pytest.raises(NotPolynomial) as info:
            fp({10**18: -1}).expand()
        assert time.perf_counter() - start < 1
        assert str(info.value) == "(t^1000000000000000000-1)^-1 has a pole; cannot expand"

    def test_pole_message_on_small_indices_is_cyclotomic(self):
        with pytest.raises(NotPolynomial) as info:
            fp({2: -1, 1: 1}).expand()
        assert str(info.value) == "Phi_2^-1 has a pole; cannot expand"


def triangle(path, weight):
    path.write_text(
        json.dumps(
            {
                "lines": [
                    {"a": 1, "b": 0, "c": 0},
                    {"a": 0, "b": 1, "c": 0},
                    {"a": 1, "b": 1, "c": -1, "e": weight},
                ]
            }
        )
    )
    return str(path)


def timed_main(argv):
    start = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - start


class TestExpandRegressions:
    """Inputs that took seconds to hours with cyclotomic re-expansion."""

    def test_linear_times_t_20004(self, capsys, tmp_path):
        # Weights (1, 1, 20002): the infinity charpoly is (t-1)(t^20004-1).
        code, elapsed = timed_main(
            ["charpoly", triangle(tmp_path / "t.json", 20002), "--at", "infinity", "--expand"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["factors"] == {"1": 1, "20004": 1}
        expected = [0] * 20006
        expected[0:2] = [1, -1]
        expected[20004:20006] = [-1, 1]
        assert payload["coefficients"] == expected
        assert elapsed < 2

    def test_weight_200000_triangle_at_zero(self, capsys, tmp_path):
        # (t-1)^3 (t^200000-1)
        code, elapsed = timed_main(
            ["charpoly", triangle(tmp_path / "t.json", 200000), "--at", "zero", "--expand"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        expected = [0] * 200004
        expected[0:4] = [1, -3, 3, -1]
        expected[200000:200004] = [-1, 3, -3, 1]
        assert payload["coefficients"] == expected
        assert elapsed < 2

    @pytest.mark.parametrize("at", ["zero", "infinity"])
    def test_weight_10_18_triangle_is_refused(self, capsys, tmp_path, at):
        code, elapsed = timed_main(
            ["charpoly", triangle(tmp_path / "t.json", 10**18), "--at", at, "--expand"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["error"] == "ExpandTooLarge"
        assert elapsed < 2
