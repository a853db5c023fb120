"""Verification battery: passes on valid inputs, catches doctored summaries."""

from dataclasses import replace

import pytest

from linemono import (
    FactoredUnityPoly,
    ZetaFunction,
    battery_passed,
    compute_combinatorics,
    run_battery,
    zeta_at_zero,
)


def names(results):
    return {r.name for r in results}


def failed_names(results):
    return {r.name for r in results if not r.passed}


class TestBatteryPasses:
    def test_unweighted_fixture(self, eight_normal_crossing):
        results = run_battery(compute_combinatorics(eight_normal_crossing))
        assert battery_passed(results)
        assert {
            "incidence-count",
            "direction-partition",
            "degree-identity",
            "root-one-multiplicity",
            "zeta-agreement",
            "numbers-identity",
            "euler-consistency",
            "unweighted-specialization",
            "genus-nonnegative",
        } <= names(results)

    def test_weighted_fixture_skips_unweighted_checks(self, weighted_triangle):
        results = run_battery(compute_combinatorics(weighted_triangle))
        assert battery_passed(results)
        assert "unweighted-specialization" not in names(results)


class TestBatteryCatchesCorruption:
    def test_doctored_histogram(self, triangle):
        cs = compute_combinatorics(triangle)
        doctored = replace(cs, histogram={2: 2, 3: 1})
        results = run_battery(doctored)
        assert not battery_passed(results)
        assert failed_names(results) == {
            "incidence-count", "euler-consistency", "numbers-identity",
            "unweighted-specialization",
        }

    def test_doctored_histogram_runs_every_charpoly_check(self, triangle):
        """No charpoly reads the histogram: its four checks run and pass."""
        doctored = replace(compute_combinatorics(triangle), histogram={2: 2, 3: 1})
        results = {r.name: r.passed for r in run_battery(doctored)}
        charpoly_checks = (
            "degree-identity",
            "charpoly-exponents-nonnegative",
            "root-one-multiplicity",
            "zeta-agreement",
        )
        assert all(results[name] for name in charpoly_checks)
        assert results["numbers-identity"] is False
        assert "charpoly-computable" not in results

    def test_doctored_line_vertex_counts(self, triangle):
        cs = compute_combinatorics(triangle)
        doctored = replace(cs, line_vertex_counts=(2, 2, 3))
        results = run_battery(doctored)
        assert failed_names(results) == {
            "incidence-count", "degree-identity", "unweighted-specialization"
        }

    @pytest.mark.parametrize("change", [-1, 1])
    def test_doctored_double_points(self, concurrent_four, change):
        """n_2 enters the incidence count and the Euler characteristic of the zero fiber."""
        cs = compute_combinatorics(concurrent_four)
        assert cs.double_points == 2 and cs.multiplicities == (3,)
        doctored = replace(cs, double_points=cs.double_points + change)
        assert failed_names(run_battery(doctored)) == {"incidence-count", "euler-consistency"}

    def test_doctored_total_weight(self, weighted_triangle):
        # a class that loses a member drops that line's weight from the total
        cs = compute_combinatorics(weighted_triangle)
        first, *rest = cs.directions
        lost = replace(first, members=first.members - {min(first.members)})
        doctored = replace(cs, directions=(lost, *rest))
        results = run_battery(doctored)
        assert not battery_passed(results)
        assert failed_names(results) == {"direction-partition", "degree-identity"}


class TestFactoredComparisons:
    def test_passing_battery_enumerates_no_divisors(
        self, monkeypatch, eight_normal_crossing, weighted_triangle
    ):
        import linemono.factored

        def refuse(n):
            raise AssertionError(f"divisors({n}) enumerated on a passing battery")

        monkeypatch.setattr(linemono.factored, "divisors", refuse)
        for arr in (eight_normal_crossing, weighted_triangle):
            assert battery_passed(run_battery(compute_combinatorics(arr)))

    def test_failure_detail_shows_cyclotomic_forms(self, monkeypatch, concurrent_four):
        import linemono.checks

        # the zeta route reads the triple point's weight sum 3 as 5
        cs = compute_combinatorics(concurrent_four)
        doctored = ZetaFunction(zeta_at_zero(cs).value * FactoredUnityPoly({3: 1, 5: -1}))
        monkeypatch.setattr(linemono.checks, "zeta_at_zero", lambda summary: doctored)
        failed = {r.name: r.detail for r in run_battery(cs) if not r.passed}
        assert failed == {"zeta-agreement": "zeta route Phi_1^5Phi_5, closed form Phi_1^5Phi_3"}

    def test_passing_checks_have_empty_details(self, weighted_triangle):
        results = run_battery(compute_combinatorics(weighted_triangle))
        assert [r.detail for r in results] == [""] * len(results)
