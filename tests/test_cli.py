"""Command-line interface: output schemas, exit codes, determinism."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from linemono.cli import (
    cmd_bound,
    cmd_census,
    cmd_charpoly,
    cmd_info,
    cmd_verify,
    cmd_zeta,
    main,
)

from conftest import EIGHT_NORMAL_CROSSING, TRIANGLE, TWO_AXES, WEIGHTED_TRIANGLE

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    return str(path)


def run_json(capsys, exit_code, func, *args, **kwargs):
    assert func(*args, **kwargs) == exit_code
    out = capsys.readouterr().out
    return json.loads(out)


class TestInfo:
    def test_triangle(self, capsys, triangle_file):
        payload = run_json(capsys, 0, cmd_info, triangle_file)
        assert payload["mu"] == 1
        assert payload["genus"] == 1
        assert payload["combinatorics"]["histogram"] == {"2": 3}
        assert payload["combinatorics"]["p"] == 3

    def test_eight_line_fixture_file(self, capsys):
        payload = run_json(
            capsys, 0, cmd_info, str(FIXTURES / "eight_line_normal_crossing.json")
        )
        assert payload["numbersIdentityHolds"] is True
        assert payload["mu"] == 17

    def test_duplicate_line_error(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps(
                {
                    "lines": [
                        {"a": 1, "b": 0, "c": 0},
                        {"a": 2, "b": 0, "c": 0},
                        {"a": 0, "b": 1, "c": 0},
                    ]
                }
            )
        )
        assert main(["info", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "DuplicateLine"

    @pytest.mark.parametrize("literal", ['"1%s"', "1%s"])
    def test_literal_over_digit_limit(self, capsys, tmp_path, literal):
        path = tmp_path / "big.json"
        big = literal % ("0" * 5000)
        path.write_text(
            '{"lines": [{"a": 1, "b": 0, "c": %s}, {"a": 0, "b": 1, "c": 0}]}' % big
        )
        assert main(["info", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ParseError"
        assert "digits" in payload["message"]

    def test_duplicate_key_error(self, capsys, tmp_path):
        path = tmp_path / "dupkey.json"
        path.write_text(
            '{"lines": [{"a": 1, "b": 0, "c": 0, "c": 5}, {"a": 0, "b": 1, "c": 0}]}'
        )
        assert main(["info", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ParseError"
        assert "duplicate key 'c'" in payload["message"]

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent/arr.json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "FileNotFoundError"


class TestCharpoly:
    def test_zero(self, capsys, triangle_file):
        payload = run_json(capsys, 0, cmd_charpoly, triangle_file, "zero", False)
        assert payload == {"at": "zero", "degree": 4, "factors": {"1": 4}}

    def test_infinity_expanded(self, capsys, triangle_file):
        payload = run_json(capsys, 0, cmd_charpoly, triangle_file, "infinity", True)
        assert payload["factors"] == {"1": 1, "3": 1}
        # (t-1)(t^3-1) = t^4 - t^3 - t + 1
        assert payload["coefficients"] == [1, -1, 0, -1, 1]

    def test_via_main(self, capsys, triangle_file):
        assert main(["charpoly", triangle_file, "--at", "zero", "--expand"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coefficients"] == [int(c) for c in [1, -4, 6, -4, 1]]


class TestZeta:
    def test_triangle(self, capsys, triangle_file):
        payload = run_json(capsys, 0, cmd_zeta, triangle_file)
        assert payload == {"denominator": {"1": 3}, "numerator": {}}

    def test_weighted(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(WEIGHTED_TRIANGLE))
        payload = run_json(capsys, 0, cmd_zeta, str(path))
        assert payload == {"denominator": {"1": 2, "2": 1}, "numerator": {}}


class TestBound:
    def test_equimonodromical_default_residues(self, capsys, tmp_path):
        path = tmp_path / "p8.json"
        path.write_text(json.dumps(EIGHT_NORMAL_CROSSING))
        payload = run_json(capsys, 0, cmd_bound, str(path), 3, None)
        assert payload["N0"] == 0
        assert payload["NInfinity"] == 4
        assert payload["bound"] == 0

    def test_explicit_residues(self, capsys, triangle_file):
        payload = run_json(capsys, 0, cmd_bound, triangle_file, 4, [1, 1, 2])
        assert payload["NInfinity"] == 1
        assert payload["vertexSumInfinity"] is None

    def test_trivial_monodromy_exit_code(self, capsys, triangle_file):
        assert main(["bound", triangle_file, "--order", "3", "--residues", "1,1,3"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "TrivialMonodromy"

    def test_length_mismatch_exit_code(self, capsys, triangle_file):
        assert main(["bound", triangle_file, "--order", "3", "--residues", "1,1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "LengthMismatch"

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_bad_order_exit_code(self, capsys, triangle_file, order):
        assert main(["bound", triangle_file, "--order", order]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "BadOrder"

    def test_shared_factor_note(self, capsys, triangle_file):
        assert main(["bound", triangle_file, "--order", "3", "--residues", "2,2,2"]) == 0
        captured = capsys.readouterr()
        assert "factor 2" in captured.err


class TestVerify:
    def test_fixture_files_pass(self, capsys):
        for name in (
            "triangle.json",
            "two_axes.json",
            "weighted_triangle.json",
            "eight_line_normal_crossing.json",
            "concurrent_four.json",
            "complex_pencil.json",
        ):
            payload = run_json(capsys, 0, cmd_verify, str(FIXTURES / name))
            assert payload["allPassed"] is True, name
            assert all(c["passed"] for c in payload["checks"])

    def test_corrupted_summary_exits_two(self, capsys, triangle_file):
        def corrupt(summary):
            histogram = dict(summary.histogram)
            histogram[2] = histogram.get(2, 0) + 1
            return replace(summary, histogram=histogram)

        code = cmd_verify(triangle_file, summary_hook=corrupt)
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["allPassed"] is False
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert failed


class TestCensusCommand:
    def test_rows_and_summary(self, capsys, tmp_path):
        out = tmp_path / "rows.jsonl"
        code = cmd_census(seed=5, count=10, max_lines=6, max_order=3, out=str(out))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        lines = out.read_text().splitlines()
        assert summary["rows"] == len(lines) == 20
        rows = [json.loads(line) for line in lines]
        for row in rows:
            assert row["bound"] == min(row["N0"], row["NInfinity"])
            assert row["seed"] == 5

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert cmd_census(1, 25, 8, 4, str(first)) == 0
        assert cmd_census(1, 25, 8, 4, str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_config_exit_code(self, capsys):
        assert main(["census", "--seed", "1", "--count", "0"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ParseError"

    def test_stable_key_ordering(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        cmd_census(seed=3, count=5, max_lines=6, max_order=3, out=str(out))
        capsys.readouterr()
        for line in out.read_text().splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(keys)


class TestSubprocessEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "axes.json"
        path.write_text(json.dumps(TWO_AXES))
        proc = subprocess.run(
            [sys.executable, "-m", "linemono.cli", "info", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["mu"] == 0

    def test_parallel_input_exit_code(self, tmp_path):
        path = tmp_path / "parallel.json"
        path.write_text(
            json.dumps(
                {"lines": [{"a": 1, "b": 0, "c": 0}, {"a": 1, "b": 0, "c": 1}]}
            )
        )
        proc = subprocess.run(
            [sys.executable, "-m", "linemono.cli", "verify", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "NotEssential"


@pytest.fixture
def combinatorics_calls(monkeypatch):
    """Count compute_combinatorics calls made through any module's binding."""
    import linemono.arrangement

    original = linemono.arrangement.compute_combinatorics
    calls = []

    def counted(arr):
        calls.append(arr)
        return original(arr)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "compute_combinatorics", None)
        if name.split(".")[0] == "linemono" and bound is original:
            monkeypatch.setattr(module, "compute_combinatorics", counted)
    return calls


class TestOneGeometryPass:
    @pytest.mark.parametrize(
        "command",
        [
            ["info"],
            ["charpoly", "--at", "zero"],
            ["charpoly", "--at", "infinity", "--expand"],
            ["zeta"],
            ["bound", "--order", "3"],
            ["verify"],
        ],
    )
    def test_once_per_command(self, capsys, combinatorics_calls, command):
        for fixture in sorted(FIXTURES.glob("*.json")):
            combinatorics_calls.clear()
            assert main([command[0], str(fixture), *command[1:]]) == 0
            assert len(combinatorics_calls) == 1, (command, fixture.name)
        capsys.readouterr()

    def test_once_per_census_draw(self, capsys, combinatorics_calls):
        assert main(["census", "--seed", "1", "--count", "20"]) == 0
        assert len(combinatorics_calls) == 20
        capsys.readouterr()
