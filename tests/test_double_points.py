"""Double points are counted, not kept: differential tests against the all-vertex oracle.

The summary keeps only the multiple points (m >= 3) as columns and the
number n_2 of double points; the histogram and the per-line vertex
counts still cover every vertex, derived from the multiple points and
the direction classes.  A double point's factor (t^{d(I_v)} - 1)^0 adds
nothing to a formula, but it still decides `normalCrossingShortcut`:
`bound_spectrum` counts the double points whose residue sum the order
divides from per-class residue tallies.  These tests hold all of it to
`_oracles.brute_combinatorics`, which intersects every pair of lines in
Fraction arithmetic and keeps every vertex, on pencils, parallel
classes, Gaussian offsets and arrangements with no multiple point.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linemono import compute_combinatorics
from linemono.localsys import bound_spectrum

from _oracles import brute_combinatorics
from test_grouping import _build, gaussian_arrangements, rationals

ORDERS = range(2, 13)


@st.composite
def tangents(draw):
    """Tangents of y = x^2: x0 * 2x - y - x0^2 = 0 at distinct Gaussian x0.

    Through a point off a conic pass at most two of its tangents, and
    distinct x0 give distinct slopes, so every vertex is a double point.
    """
    feet = draw(st.lists(st.tuples(rationals, rationals), min_size=2, max_size=9, unique=True))
    raw = []
    for re, im in feet:
        square = (re * re - im * im, 2 * re * im)
        raw.append(((2 * re, 2 * im), (Fraction(-1), Fraction(0)), (-square[0], -square[1])))
    return raw


def _oracle_arrangement(raw):
    """(arrangement, oracle over every vertex) for raw lines, or None if all parallel."""
    built = _build(raw)
    if built is None:
        return None
    kept, arr = built
    return arr, brute_combinatorics(kept)


arrangements = st.one_of(gaussian_arrangements(), tangents()).map(_oracle_arrangement)


class TestCountsAgainstOracle:
    @given(arrangements)
    @settings(max_examples=120, deadline=None)
    def test_multiple_points_and_counts(self, built):
        assume(built is not None)
        arr, oracle = built
        cs = compute_combinatorics(arr)
        multiple = sorted(
            sorted(lines) for lines in oracle["vertices"].values() if len(lines) > 2
        )
        assert sorted(map(sorted, cs.incidences)) == multiple
        assert list(cs.multiplicities) == list(map(len, cs.incidences))
        assert cs.double_points == oracle["histogram"].get(2, 0)
        assert cs.histogram == oracle["histogram"]
        assert list(cs.histogram) == sorted(cs.histogram)
        assert list(cs.line_vertex_counts) == oracle["line_vertex_counts"]

    @given(tangents())
    @settings(max_examples=40, deadline=None)
    def test_no_multiple_point(self, raw):
        arr, oracle = _oracle_arrangement(raw)
        cs = compute_combinatorics(arr)
        assert cs.keys == cs.incidences == cs.multiplicities == ()
        assert cs.double_points == cs.d * (cs.d - 1) // 2 == len(oracle["vertices"])
        assert cs.histogram == {2: cs.double_points}
        assert cs.line_vertex_counts == (cs.d - 1,) * cs.d


def _all_vertex_report(oracle, residues, order):
    """(N0, vertexSumZero, normalCrossingShortcut) from every vertex of the oracle.

    N0 is the multiplicity of a primitive order-th root of unity in
    (t - 1) prod_j (t^{e_j} - 1)^{v_j - 1} prod_v (t^{d(I_v)} - 1)^{m_v - 2}:
    t^m - 1 has it as a simple root exactly when the order divides m.
    """
    sums = [(sum(residues[i] for i in lines), len(lines)) for lines in oracle["vertices"].values()]
    n0 = sum(v - 1 for e, v in zip(residues, oracle["line_vertex_counts"]) if e % order == 0)
    n0 += sum(m - 2 for s, m in sums if s % order == 0)
    vertex_sum = sum(m - 2 for s, m in sums if s % order == 0)
    return n0, vertex_sum, all(s % order for s, _ in sums)


class TestShortcutAgainstOracle:
    @given(arrangements, st.integers(2, 12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bound_spectrum_reads_every_vertex(self, built, order, data):
        """One call over every order that divides no residue, `order` always among them."""
        assume(built is not None)
        arr, oracle = built
        drawn = data.draw(st.lists(st.integers(1, 3 * order), min_size=arr.d, max_size=arr.d))
        residues = tuple(r if r % order else r + 1 for r in drawn)
        orders = [n for n in ORDERS if all(r % n for r in residues)]
        assert order in orders
        cs = compute_combinatorics(arr)
        reports = bound_spectrum(cs, residues, orders)
        assert [r.order for r in reports] == orders
        for report in reports:
            n0, vertex_sum, shortcut = _all_vertex_report(oracle, residues, report.order)
            assert (report.n0, report.vertex_sum_zero, report.normal_crossing_shortcut) == (
                n0, vertex_sum, shortcut
            ), report.order

    @given(arrangements)
    @settings(max_examples=60, deadline=None)
    def test_all_ones_over_orders_two_to_twelve(self, built):
        """Unweighted: a double point hits order 2 and no other, the triangle's pinned pair."""
        assume(built is not None)
        arr, oracle = built
        cs = compute_combinatorics(arr)
        residues = (1,) * cs.d
        for report in bound_spectrum(cs, residues, ORDERS):
            n0, vertex_sum, shortcut = _all_vertex_report(oracle, residues, report.order)
            assert (report.n0, report.vertex_sum_zero, report.normal_crossing_shortcut) == (
                n0, vertex_sum, shortcut
            )
            if report.order == 2 and cs.double_points:
                assert not report.normal_crossing_shortcut
