"""Deterministic generator and census machinery."""

import pytest

from linemono import (
    DIRECTIONS,
    ParseError,
    RunConfig,
    SplitMix64,
    battery_passed,
    compute_combinatorics,
    generate_arrangements,
    random_weights,
    run_battery,
    run_census,
    summarize,
)


class TestSplitMix64:
    def test_published_reference_stream_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_published_reference_stream(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_below_is_uniform_range(self):
        rng = SplitMix64(42)
        draws = [rng.below(7) for _ in range(500)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)


class TestGenerator:
    def test_deterministic(self):
        first = generate_arrangements(9, 20, 8)
        second = generate_arrangements(9, 20, 8)
        assert [a.lines for a in first] == [a.lines for a in second]
        assert [a.weights for a in first] == [a.weights for a in second]

    def test_draws_are_valid_and_in_catalog(self):
        for arr in generate_arrangements(3, 30, 8):
            assert 3 <= arr.d <= 8
            assert arr.weights == (1,) * arr.d
            assert len({line.direction for line in arr.lines}) >= 2
            # every drawn line is real with direction from the fixed list
            for line in arr.lines:
                assert line.a.im == 0 == line.b.im
                assert any(
                    line.a.re * b == line.b.re * a for a, b in DIRECTIONS
                )

    def test_battery_passes_on_draws(self):
        for arr in generate_arrangements(7, 25, 8):
            assert battery_passed(run_battery(compute_combinatorics(arr)))

    def test_random_weights_gcd_one(self):
        rng = SplitMix64(11)
        from math import gcd

        for _ in range(100):
            weights = random_weights(rng, 5)
            assert all(1 <= w <= 5 for w in weights)
            assert gcd(*weights) == 1


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ParseError):
            RunConfig(seed=1, count=0)
        with pytest.raises(ParseError):
            RunConfig(seed=1, count=10, max_lines=2)
        with pytest.raises(ParseError):
            RunConfig(seed=1, count=10, max_lines=13)
        with pytest.raises(ParseError):
            RunConfig(seed=1, count=10, max_order=1)
        with pytest.raises(ParseError):
            RunConfig(seed=1, count=10, max_order=25)
        with pytest.raises(ParseError):
            RunConfig(seed=-1, count=10)
        with pytest.raises(ParseError):
            RunConfig(seed=1 << 64, count=10)


class TestCensus:
    def test_rows_well_formed(self):
        config = RunConfig(seed=5, count=15, max_lines=6, max_order=4)
        rows = list(run_census(config))
        assert len(rows) == 15 * 3  # orders 2, 3, 4
        for row in rows:
            assert row.bound == min(row.n0, row.n_infinity)
            expected = (
                "zero"
                if row.n0 < row.n_infinity
                else "infinity"
                if row.n_infinity < row.n0
                else "tie"
            )
            assert row.tighter == expected
            assert row.seed == 5
            assert 2 <= row.order <= 4

    def test_deterministic_json(self):
        config = RunConfig(seed=2, count=10, max_lines=6, max_order=3)
        first = [row.to_json() for row in run_census(config)]
        second = [row.to_json() for row in run_census(config)]
        assert first == second

    def test_summary_counts(self):
        config = RunConfig(seed=5, count=15, max_lines=6, max_order=4)
        rows = list(run_census(config))
        summary = summarize(config, rows)
        assert summary["rows"] == len(rows)
        assert (
            summary["tighterZero"] + summary["tighterInfinity"] + summary["ties"]
            == summary["rows"]
        )
        assert summary["seed"] == 5
        assert summary["arrangements"] == 15
