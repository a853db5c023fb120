"""Deterministic generator and census machinery."""

import pytest

from linemono import (
    Line,
    ParseError,
    RunConfig,
    battery_passed,
    compute_combinatorics,
    run_battery,
    run_census,
    summarize,
)
from linemono.census import DIRECTIONS, SplitMix64, draw_arrangement

from _oracles import key_coefficients


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
        first, second = (
            [draw_arrangement(rng, 8) for _ in range(20)] for rng in (SplitMix64(9), SplitMix64(9))
        )
        assert [a.lines for a in first] == [a.lines for a in second]
        assert [a.weights for a in first] == [a.weights for a in second]

    def test_draws_are_valid_and_in_catalog(self):
        rng = SplitMix64(3)
        for arr in (draw_arrangement(rng, 8) for _ in range(30)):
            assert 3 <= arr.d <= 8
            assert arr.weights == (1,) * arr.d
            assert len({line.direction_key for line in arr.lines}) >= 2
            # every drawn line is real with direction from the fixed list
            for line in arr.lines:
                (a_re, a_im), (b_re, b_im), _ = key_coefficients(line.triple)
                assert a_im == 0 == b_im
                assert any(
                    a_re * b == b_re * a for a, b in DIRECTIONS
                )

    @pytest.mark.parametrize("seed, max_lines", [(11, 8), (12, 3), (13, 12)])
    def test_draws_replay_the_documented_stream(self, seed, max_lines):
        """Each draw equals a fresh Line.canonical replay of the RNG stream.

        The replay follows the module docstring: a line count, then a
        direction and an offset per line, and a whole draw discarded on a
        repeated line or a single parallel class.
        """
        rng, replay = SplitMix64(seed), SplitMix64(seed)
        for _ in range(60):
            drawn = draw_arrangement(rng, max_lines)
            while True:
                count = 3 + replay.below(max_lines - 2)
                lines = []
                for _ in range(count):
                    a, b = DIRECTIONS[replay.below(len(DIRECTIONS))]
                    lines.append(Line.canonical(a, b, -20 + replay.below(41)))
                if len(set(lines)) == count and len({line.direction_key for line in lines}) > 1:
                    break
            assert drawn.lines == tuple(lines)
            assert rng.state == replay.state

    def test_battery_passes_on_draws(self):
        rng = SplitMix64(7)
        for _ in range(25):
            arr = draw_arrangement(rng, 8)
            assert battery_passed(run_battery(compute_combinatorics(arr)))


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
        # a field that is not an int, bool included, is refused before any draw
        for fields in (
            {"seed": 1.5, "count": 2},
            {"seed": True, "count": 2},
            {"seed": "1", "count": 2},
            {"seed": 1, "count": 2.0},
            {"seed": 1, "count": True},
            {"seed": 1, "count": 2, "max_lines": 6.0},
            {"seed": 1, "count": 2, "max_order": "4"},
        ):
            with pytest.raises(ParseError):
                RunConfig(**fields)


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

    def test_summary_reads_a_one_shot_generator(self):
        config = RunConfig(seed=5, count=15, max_lines=6, max_order=4)
        rows = list(run_census(config))
        summary = summarize(config, (row for row in rows))
        assert summary == summarize(config, rows)
        assert summary["rows"] == len(rows)
        assert summary["tighterZero"] == sum(row.tighter == "zero" for row in rows)
        assert summary["tighterInfinity"] == sum(row.tighter == "infinity" for row in rows)
        assert summary["ties"] == sum(row.tighter == "tie" for row in rows)
        assert summarize(config, run_census(config)) == summary
