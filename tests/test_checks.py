"""Verification battery: passes on valid inputs, catches doctored summaries."""

from dataclasses import replace

from linemono import battery_passed, compute_combinatorics, run_battery


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
        assert failed_names(results)

    def test_doctored_line_vertex_counts(self, triangle):
        cs = compute_combinatorics(triangle)
        doctored = replace(cs, line_vertex_counts=(2, 2, 3))
        results = run_battery(doctored)
        assert "incidence-count" in failed_names(results)

    def test_doctored_total_weight(self, weighted_triangle):
        cs = compute_combinatorics(weighted_triangle)
        doctored = replace(cs, d_e=cs.d_e + 1)
        results = run_battery(doctored)
        assert not battery_passed(results)
