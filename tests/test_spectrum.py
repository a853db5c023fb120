"""The bound spectrum: one pair of charpolys and one vertex pass for many orders.

`bound_spectrum` builds the two characteristic polynomials and the vertex
and class residue sums once and reads every order off them.  These tests
hold it to the per-order reference sums in `_oracles`
(`vertex_mult_zero`, `vertex_mult_infinity`) and to the cyclotomic
exponents of the polynomials, refactored with `to_cyclotomic`.
"""

from dataclasses import replace
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linemono.localsys
from linemono import (
    BadOrder,
    BadWeight,
    BoundReport,
    InputError,
    InternalCheckError,
    LengthMismatch,
    LocalSystem,
    TrivialMonodromy,
    WeightedArrangement,
    bound_from_summary,
    charpoly_infinity,
    charpoly_zero_closed,
    compute_combinatorics,
    delta_f,
)
from linemono.localsys import bound_spectrum

from _oracles import vertex_mult_infinity, vertex_mult_zero
from test_arrangement import arrangement_specs, build_arrangement

SPECTRUM_ORDERS = range(2, 25)


def reference_report(cs, ls: LocalSystem) -> BoundReport:
    """The report from the per-order references, one order at a time."""
    n0 = charpoly_zero_closed(cs, ls.residues).to_cyclotomic().multiplicity(ls.order)
    n_inf = charpoly_infinity(cs, ls.residues).to_cyclotomic().multiplicity(ls.order)
    return BoundReport(
        order=ls.order,
        n0=n0,
        n_infinity=n_inf,
        bound=min(n0, n_inf),
        vertex_sum_zero=vertex_mult_zero(cs, ls),
        vertex_sum_infinity=vertex_mult_infinity(cs, ls),
        normal_crossing_shortcut=all(
            sum(ls.residues[i] for i in lines) % ls.order for _, lines in cs.all_vertices()
        ),
    )


@st.composite
def weighted_summaries(draw):
    arr = build_arrangement(draw(arrangement_specs))
    weights = draw(st.lists(st.integers(1, 5), min_size=arr.d, max_size=arr.d))
    if gcd(*weights) > 1:  # the arrangement's own weights must be coprime
        weights[0] = 1
    return compute_combinatorics(WeightedArrangement.build(arr.lines, weights))


class TestAgainstReferences:
    @given(
        weighted_summaries(),
        st.integers(2, 30),
        st.lists(st.integers(0, 40), min_size=6, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_bound_from_summary_matches_references(self, cs, order, raw):
        ls = LocalSystem.create(order, raw[: cs.d])
        if 0 in ls.residues:
            with pytest.raises(TrivialMonodromy):
                bound_from_summary(cs, ls)
        else:
            assert bound_from_summary(cs, ls) == reference_report(cs, ls)

    @given(weighted_summaries(), st.lists(st.integers(1, 12), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_spectrum_matches_per_order_references(self, cs, raw):
        residues = tuple(raw[: cs.d])
        orders = [n for n in range(max(residues) + 1, 40) if gcd(n, *residues) == 1]
        expected = [reference_report(cs, LocalSystem(n, residues)) for n in orders]
        assert bound_spectrum(cs, residues, orders) == expected

    @given(arrangement_specs)
    @settings(max_examples=40, deadline=None)
    def test_equimonodromical_spectrum(self, specs):
        cs = compute_combinatorics(build_arrangement(specs))
        expected = [
            bound_from_summary(cs, LocalSystem.create(n, [1] * cs.d)) for n in SPECTRUM_ORDERS
        ]
        assert bound_spectrum(cs, (1,) * cs.d, SPECTRUM_ORDERS) == expected

    @given(arrangement_specs)
    @settings(max_examples=40, deadline=None)
    def test_bound_is_delta_f_multiplicity(self, specs):
        cs = compute_combinatorics(build_arrangement(specs))
        gcd_poly = delta_f(cs)
        for report in bound_spectrum(cs, (1,) * cs.d, SPECTRUM_ORDERS):
            assert report.bound == gcd_poly.multiplicity(report.order)

    def test_huge_order_needs_no_divisors(self, concurrent_four):
        cs = compute_combinatorics(concurrent_four)
        (report,) = bound_spectrum(cs, (1,) * cs.d, [10**21])
        assert (report.n0, report.n_infinity, report.vertex_sum_infinity) == (0, 0, 0)
        assert report.order == 10**21


class TestRefusals:
    """Bad local systems are typed input errors, refused before any polynomial is built."""

    @pytest.mark.parametrize(
        "residues, orders, error, message",
        [
            ((2, 2, 2), [2], TrivialMonodromy, r"^monodromy is 1 on lines \[0, 1, 2\]$"),
            ((1, 1, 1), [1], TrivialMonodromy, r"^monodromy is 1 on lines \[0, 1, 2\]$"),
            ((3, 3, 3), [3], TrivialMonodromy, r"^monodromy is 1 on lines \[0, 1, 2\]$"),
            ((1, 2, 1), [3, 2], TrivialMonodromy, r"^monodromy is 1 on lines \[1\]$"),
            ((1, 1, 1), [0], BadOrder, r"^order must be a positive integer, got 0$"),
            ((1, 1, 1), [-2], BadOrder, r"^order must be a positive integer, got -2$"),
            ((1, 1), [3], LengthMismatch, r"^3 lines but 2 residues$"),
        ],
    )
    def test_typed_refusal(self, monkeypatch, triangle, residues, orders, error, message):
        cs = compute_combinatorics(triangle)

        def unreachable(*args):
            raise AssertionError("a polynomial was built")

        for name in ("charpoly_zero_closed", "charpoly_infinity"):
            monkeypatch.setattr(linemono.localsys, name, unreachable)
        with pytest.raises(error, match=message) as info:
            bound_spectrum(cs, residues, orders)
        assert isinstance(info.value, InputError)
        assert not isinstance(info.value, InternalCheckError)

    @pytest.mark.parametrize("residue", ["1", 1.0, True, -1])
    def test_residue_that_is_no_weight(self, triangle, residue):
        cs = compute_combinatorics(triangle)
        with pytest.raises(BadWeight, match=r"^weight must be a positive integer, got "):
            bound_spectrum(cs, (residue, 1, 1), [3])


class TestCrossCheck:
    """A polynomial built from a doctored summary disagrees with the vertex sums."""

    def _doctor(self, monkeypatch, name, doctored):
        original = getattr(linemono.localsys, name)
        monkeypatch.setattr(
            linemono.localsys, name, lambda cs, weights=None: original(doctored, weights)
        )

    def test_vertex_sum_mismatch(self, monkeypatch, concurrent_four):
        cs = compute_combinatorics(concurrent_four)
        assert cs.multiplicities.count(3) == 1
        kept = [k for k, m in enumerate(cs.multiplicities) if m != 3]
        without = {
            column: tuple(map(getattr(cs, column).__getitem__, kept))
            for column in ("incidences", "multiplicities")
        }
        self._doctor(monkeypatch, "charpoly_zero_closed", replace(cs, **without))
        message = r"^vertex sum 1 != polynomial multiplicity 0$"
        with pytest.raises(InternalCheckError, match=message):
            bound_spectrum(cs, (1,) * cs.d, [2, 3])

    def test_infinity_sum_mismatch(self, monkeypatch, eight_normal_crossing):
        cs = compute_combinatorics(eight_normal_crossing)
        ls = LocalSystem.create(3, [1] * cs.d)
        assert vertex_mult_infinity(cs, ls) == 4
        doctored = replace(cs, directions=cs.directions[1:])
        self._doctor(monkeypatch, "charpoly_infinity", doctored)
        message = r"^infinity vertex sum 4 != polynomial multiplicity 3$"
        with pytest.raises(InternalCheckError, match=message):
            bound_spectrum(cs, (1,) * cs.d, [2, 3])
        with pytest.raises(InternalCheckError, match=message):
            bound_from_summary(cs, ls)
