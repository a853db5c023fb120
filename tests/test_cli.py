"""Command-line interface: output schemas, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from unittest import mock

import pytest

import linemono.arrangement
import linemono.census
from linemono import (
    CombinatorialSummary,
    FactoredUnityPoly,
    compute_combinatorics,
    parse_arrangement,
)
from linemono.arrangement import FILE_LIMIT, LINE_LIMIT
from linemono.cli import EXIT_CLOSED_STDOUT, _vertex_rows, build_parser, main
from linemono.errors import FileTooLarge

from conftest import EIGHT_NORMAL_CROSSING, TRIANGLE, TWO_AXES, WEIGHTED_TRIANGLE

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    return str(path)


def run_json(capsys, exit_code, *argv):
    assert main(list(argv)) == exit_code
    return json.loads(capsys.readouterr().out)


class TestInfo:
    def test_triangle(self, capsys, triangle_file):
        payload = run_json(capsys, 0, "info", triangle_file)
        assert payload["mu"] == 1
        assert payload["genus"] == 1
        assert payload["combinatorics"]["histogram"] == {"2": 3}
        assert payload["combinatorics"]["p"] == 3

    def test_eight_line_fixture_file(self, capsys):
        payload = run_json(capsys, 0, "info", str(FIXTURES / "eight_line_normal_crossing.json"))
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

    def test_duplicate_line_too_long_to_write(self, capsys, tmp_path):
        big = 10**4199 + 7  # 4200 digits; the canonical b = big * (big + 1) has about 8400
        line = {"a": f"1/{big}", "b": str(big + 1), "c": 0}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"lines": [line, line, {"a": 0, "b": 1, "c": 0}]}))
        for command, *options in (["info"], ["verify"], ["zeta"], ["bound", "--order", "2"]):
            assert main([command, str(path), *options]) == 1
            payload = json.loads(capsys.readouterr().out)
            assert payload["error"] == "DuplicateLine"
            assert payload["message"] == (
                "lines 0 and 1 canonicalize to a line with a coefficient too long to write out"
            )

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
        assert payload["error"] == "FileError"
        assert "No such file or directory" in payload["message"]

    def test_directory_path(self, capsys):
        assert main(["info", str(FIXTURES)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "FileError"
        assert "Is a directory" in payload["message"]


class TestFileLimit:
    """A file is read only up to FILE_LIMIT characters, and refused past it before it is parsed."""

    @staticmethod
    def _padded(size: int) -> str:
        """The triangle document, padded with trailing spaces to `size` characters."""
        text = json.dumps(TRIANGLE)
        return text + " " * (size - len(text))

    def test_at_the_limit(self, capsys, tmp_path, triangle_file):
        path = tmp_path / "padded.json"
        path.write_text(self._padded(FILE_LIMIT))
        assert main(["verify", str(path)]) == 0
        padded = capsys.readouterr().out
        assert main(["verify", triangle_file]) == 0
        assert padded == capsys.readouterr().out

    def test_one_past_the_limit(self, capsys, tmp_path, monkeypatch):
        def refused(document):
            raise AssertionError("an over-limit file reached the parser")

        monkeypatch.setattr(linemono.arrangement, "parse_arrangement", refused)
        path = tmp_path / "padded.json"
        path.write_text(self._padded(FILE_LIMIT + 1))
        payload = run_json(capsys, 1, "verify", str(path))
        assert payload == {
            "error": "FileTooLarge",
            "message": f"file has more than FILE_LIMIT = {FILE_LIMIT} characters",
        }

    def test_refusal_costs_the_limit_not_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(linemono.arrangement, "FILE_LIMIT", 1000)
        path = tmp_path / "padded.json"
        path.write_text(self._padded(10**6))
        tracemalloc.start()
        try:
            with pytest.raises(FileTooLarge, match="more than FILE_LIMIT = 1000 characters"):
                linemono.arrangement.load_arrangement(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5

    @pytest.mark.parametrize("count, refused", [(1000, False), (1001, True)])
    def test_the_limit_counts_characters_not_bytes(self, tmp_path, monkeypatch, count, refused):
        monkeypatch.setattr(linemono.arrangement, "FILE_LIMIT", 1000)
        monkeypatch.setattr(linemono.arrangement, "parse_arrangement", len)
        path = tmp_path / "wide.json"
        path.write_text("\u00e9" * count, encoding="utf-8")  # two bytes each
        if refused:
            with pytest.raises(FileTooLarge):
                linemono.arrangement.load_arrangement(path)
        else:
            assert linemono.arrangement.load_arrangement(path) == count

    @pytest.mark.parametrize(
        "size, code, key, value",
        [(FILE_LIMIT, 0, "allPassed", True), (FILE_LIMIT + 1, 1, "error", "FileTooLarge")],
    )
    def test_through_a_pipe(self, size, code, key, value):
        """A pipe reports no size: the bounded read alone refuses it."""
        proc = subprocess.run(
            [sys.executable, "-m", "linemono.cli", "verify", "/dev/stdin"],
            input=self._padded(size),
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (code, "")
        assert json.loads(proc.stdout)[key] == value

    def test_largest_valid_document_fits(self, tmp_path, monkeypatch):
        """A document the size of the largest valid one is read to its end.

        That is LINE_LIMIT lines of 13 integers (a, b and c as Gaussian
        rationals, and the weight) of 4300 digits each, indented.
        """
        digits = "9" * sys.get_int_max_str_digits()
        part = f"{digits}/{digits}"
        entry = {"a": {"re": part, "im": part}, "b": {"re": part, "im": part},
                 "c": {"re": part, "im": part}, "e": int(digits)}
        text = json.dumps({"lines": [entry] * LINE_LIMIT}, indent=2)
        assert 0.8 < len(text) / FILE_LIMIT < 0.9
        read = []
        monkeypatch.setattr(linemono.arrangement, "parse_arrangement", read.append)
        path = tmp_path / "maximal.json"
        path.write_text(text)
        linemono.arrangement.load_arrangement(path)
        assert read == [text]


class TestNumberTooLong:
    """A derived number over the 4300-digit text limit is a typed error where it is shown."""

    def _write(self, tmp_path, lines):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"lines": lines}))
        return str(path)

    def test_vertex_coordinate(self, capsys, tmp_path):
        big = 10**4199 + 12345  # each literal has 4200 digits; x at the vertex has about 8400
        path = self._write(
            tmp_path,
            [{"a": 1, "b": str(big), "c": 1}, {"a": 1, "b": str(big + 1), "c": str(big)}],
        )
        assert main(["info", path]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "error": "NumberTooLong",
            "message": "a number to be written out has more than 4300 digits",
        }
        for command in ("verify", "zeta"):
            assert main([command, path]) == 0
            assert "error" not in json.loads(capsys.readouterr().out)

    def test_vertex_weight_sum(self, capsys, tmp_path):
        weight = 9 * 10**4299  # two such weights through the origin sum to 4301 digits
        lines = [
            {"a": 1, "b": 0, "c": 0, "e": weight},
            {"a": 0, "b": 1, "c": 0, "e": weight},
            {"a": 1, "b": 1, "c": 1},
        ]
        assert main(["info", self._write(tmp_path, lines)]) == 1
        error = {
            "error": "NumberTooLong",
            "message": "a number to be written out has more than 4300 digits",
        }
        assert capsys.readouterr().out == json.dumps(error, indent=2) + "\n"
        # dE is longer still; the row writer alone refuses the weight sum too.
        cs = compute_combinatorics(parse_arrangement({"lines": lines}))
        with pytest.raises(ValueError, match="integer string conversion"):
            _vertex_rows(cs, 2, [])

    def test_factor_index(self, capsys, tmp_path):
        weight = 9 * 10**4299  # two such weights sum to a 4301-digit factor index
        path = self._write(
            tmp_path,
            [
                {"a": 1, "b": 0, "c": 0},
                {"a": 0, "b": 1, "c": 0, "e": weight},
                {"a": 1, "b": 1, "c": 1, "e": weight},
            ],
        )
        assert main(["charpoly", path, "--at", "zero"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "NumberTooLong"


class TestCharpoly:
    def test_zero(self, capsys, triangle_file):
        payload = run_json(capsys, 0, "charpoly", triangle_file, "--at", "zero")
        assert payload == {"at": "zero", "degree": 4, "factors": {"1": 4}}

    def test_infinity_expanded(self, capsys, triangle_file):
        payload = run_json(
            capsys, 0, "charpoly", triangle_file, "--at", "infinity", "--expand"
        )
        assert payload["factors"] == {"1": 1, "3": 1}
        # (t-1)(t^3-1) = t^4 - t^3 - t + 1
        assert payload["coefficients"] == [1, -1, 0, -1, 1]

    def test_via_main(self, capsys, triangle_file):
        assert main(["charpoly", triangle_file, "--at", "zero", "--expand"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coefficients"] == [int(c) for c in [1, -4, 6, -4, 1]]


class TestZeta:
    def test_triangle(self, capsys, triangle_file):
        payload = run_json(capsys, 0, "zeta", triangle_file)
        assert payload == {"denominator": {"1": 3}, "numerator": {}}

    def test_weighted(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(WEIGHTED_TRIANGLE))
        payload = run_json(capsys, 0, "zeta", str(path))
        assert payload == {"denominator": {"1": 2, "2": 1}, "numerator": {}}


class TestBound:
    def test_equimonodromical_default_residues(self, capsys, tmp_path):
        path = tmp_path / "p8.json"
        path.write_text(json.dumps(EIGHT_NORMAL_CROSSING))
        payload = run_json(capsys, 0, "bound", str(path), "--order", "3")
        assert payload["N0"] == 0
        assert payload["NInfinity"] == 4
        assert payload["bound"] == 0

    def test_explicit_residues(self, capsys, triangle_file):
        payload = run_json(
            capsys, 0, "bound", triangle_file, "--order", "4", "--residues", "1,1,2"
        )
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

    @pytest.mark.parametrize(
        "residues, error", [("2,2", "LengthMismatch"), ("2,2,3", "TrivialMonodromy")]
    )
    def test_no_note_when_bound_fails(self, capsys, triangle_file, residues, error):
        """Residues sharing a factor, but the bound is refused: exit 1 and nothing on stderr."""
        assert main(["bound", triangle_file, "--order", "3", "--residues", residues]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == error
        assert captured.err == ""


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
            payload = run_json(capsys, 0, "verify", str(FIXTURES / name))
            assert payload["allPassed"] is True, name
            assert all(c["passed"] for c in payload["checks"])

    def test_corrupted_summary_exits_two(self, capsys, monkeypatch, triangle_file):
        import linemono.cli

        def corrupt(arr):
            summary = compute_combinatorics(arr)
            histogram = dict(summary.histogram)
            histogram[2] = histogram.get(2, 0) + 1
            return replace(summary, histogram=histogram)

        monkeypatch.setattr(linemono.cli, "compute_combinatorics", corrupt)
        payload = run_json(capsys, 2, "verify", triangle_file)
        assert payload["allPassed"] is False
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert failed == [
            "incidence-count", "numbers-identity", "euler-consistency",
            "unweighted-specialization",
        ]


class TestCensusCommand:
    def test_rows_and_summary(self, capsys, tmp_path):
        out = tmp_path / "rows.jsonl"
        summary = run_json(
            capsys, 0, "census", "--seed", "5", "--count", "10", "--max-lines", "6",
            "--max-order", "3", "--out", str(out),
        )
        lines = out.read_text().splitlines()
        assert summary["rows"] == len(lines) == 20
        rows = [json.loads(line) for line in lines]
        for row in rows:
            assert row["bound"] == min(row["N0"], row["NInfinity"])
            assert row["seed"] == 5

    def test_one_write_per_arrangement(self, monkeypatch):
        class Recorder(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return super().write(text)

        recorder = Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        assert main(["census", "--seed", "3", "--count", "4", "--max-order", "5"]) == 0
        rows = [text for text in recorder.writes if text.startswith('{"N0"')]
        assert len(rows) == 4
        assert all(text.count("\n") == 4 for text in rows)  # orders 2..5
        assert [json.loads(line)["index"] for text in rows for line in text.splitlines()] == [
            i for i in range(4) for _ in range(4)
        ]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        for out in (first, second):
            argv = ["census", "--seed", "1", "--count", "25", "--max-order", "4"]
            assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_bad_config_exit_code(self, capsys):
        assert main(["census", "--seed", "1", "--count", "0"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ParseError"

    def test_unwritable_out_path(self, capsys, tmp_path):
        out = tmp_path / "missing" / "rows.jsonl"
        assert main(["census", "--count", "1", "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "FileError"
        assert "No such file or directory" in payload["message"]

    def test_stable_key_ordering(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        run_json(
            capsys, 0, "census", "--seed", "3", "--count", "5", "--max-lines", "6",
            "--max-order", "3", "--out", str(out),
        )
        for line in out.read_text().splitlines():
            keys = list(json.loads(line))
            assert keys == sorted(keys)


class TestIntegerOptions:
    """A non-integer option value is a ParseError (exit 1), not an argparse exit 2."""

    def test_order(self, capsys, triangle_file):
        assert main(["bound", triangle_file, "--order", "x"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "ParseError", "message": "--order must be an integer, got 'x'"}

    @pytest.mark.parametrize(
        "option, value",
        [("--seed", "1.5"), ("--count", "0x"), ("--max-lines", "eight"), ("--max-order", "")],
    )
    def test_census_options(self, capsys, option, value):
        assert main(["census", option, value]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "error": "ParseError",
            "message": f"{option} must be an integer, got {value!r}",
        }
        assert captured.err == ""


# Message prefixes: the tail of argparse's wording varies between Python versions.
USAGE_ERRORS = [
    (["census", "--bogus"], "linemono: unrecognized arguments: --bogus"),
    (
        ["bound", str(FIXTURES / "triangle.json")],
        "linemono bound: the following arguments are required: --order",
    ),
    (
        ["charpoly", str(FIXTURES / "triangle.json"), "--at", "middle"],
        "linemono charpoly: argument --at: invalid choice: 'middle'",
    ),
    ([], "linemono: the following arguments are required: command"),
]


class TestUsageErrors:
    """Usage errors are a ParseError object on stdout with exit 1, not usage text and exit 2."""

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS)
    def test_in_process(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith(message)
        assert captured.err == ""

    @pytest.mark.parametrize("argv", [["--help"], ["census", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: linemono")


class TestParserBuiltOnce:
    def test_two_commands_one_parser(self, capsys):
        fixture = str(FIXTURES / "weighted_triangle.json")
        argv = ["charpoly", fixture, "--at", "infinity", "--expand"]
        proc = subprocess.run(
            [sys.executable, "-m", "linemono.cli", *argv], capture_output=True, text=True
        )
        build_parser.cache_clear()
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert build_parser.cache_info().misses == 1
        assert outputs == [proc.stdout, proc.stdout]
        assert json.loads(proc.stdout)["coefficients"] == [1, -1, 0, 0, -1, 1]


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

    def test_non_integer_option_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "linemono.cli", "census", "--count", "0x"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "ParseError"

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS)
    def test_usage_error_exit_code(self, argv, message):
        proc = subprocess.run(
            [sys.executable, "-m", "linemono.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith(message)
        assert proc.stderr == ""

    def test_help_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "linemono.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: linemono")

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


class TestClosedStdout:
    """A reader that exits early (`linemono ... | head -1`) ends the run quietly."""

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize(
        "argv",
        [
            ["info", str(FIXTURES / "eight_line_normal_crossing.json")],
            ["info", str(FIXTURES / "triangle.json")],
            ["census", "--seed", "1", "--count", "50"],
        ],
    )
    def test_subprocess(self, argv, buffered):
        # Buffered, a small output reaches the pipe only when stdout is flushed.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: every write to the pipe fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "linemono.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_CLOSED_STDOUT == 141
        assert proc.stderr == ""

    def test_in_process(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["info", str(FIXTURES / "triangle.json")]) == EXIT_CLOSED_STDOUT


class TestHugeWeightVerify:
    def test_weight_10_18_triangle(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(
            json.dumps(
                {
                    "lines": [
                        {"a": 1, "b": 0, "c": 0},
                        {"a": 0, "b": 1, "c": 0},
                        {"a": 1, "b": 1, "c": -1, "e": 10**18},
                    ]
                }
            )
        )
        start = time.perf_counter()
        code = main(["verify", str(path)])
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["allPassed"] is True
        assert elapsed < 1, f"verify took {elapsed:.3f}s"


def count_calls(monkeypatch, home, *names):
    """Record calls to `home.<name>` made through any linemono module's binding."""
    calls = []
    for attr in names:
        original = getattr(home, attr)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "linemono" and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def combinatorics_calls(monkeypatch):
    """Count compute_combinatorics calls made through any module's binding."""
    import linemono.arrangement

    return count_calls(monkeypatch, linemono.arrangement, "compute_combinatorics")


@pytest.fixture
def charpoly_calls(monkeypatch):
    """Count builds of either closed characteristic polynomial."""
    import linemono.monodromy

    return count_calls(
        monkeypatch, linemono.monodromy, "charpoly_zero_closed", "charpoly_infinity"
    )


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


# A 4-direction grid with triple and quadruple points; one offset is a Gaussian rational.
GRID = {
    "lines": [
        {"a": a, "b": b, "c": c}
        for a, b in ((1, 0), (0, 1), (1, 1), (1, -1))
        for c in (-2, -1, 0, 1, 2, {"re": "1/2", "im": "1/3"})
    ]
}


class TestNoVertexObjects:
    """The summary's three columns are the only vertex data."""

    def test_no_vertex_type(self):
        import linemono.arrangement

        assert not hasattr(linemono, "Vertex")
        assert not hasattr(linemono.arrangement, "Vertex")

    def test_no_vertices_view(self):
        cs = compute_combinatorics(parse_arrangement(GRID))
        assert max(cs.histogram) == 4
        assert not hasattr(CombinatorialSummary, "vertices")
        assert not hasattr(cs, "vertices")
        assert len(cs.keys) == len(cs.incidences) == len(cs.multiplicities)


@pytest.fixture
def fractions_built():
    """Record every `fractions.Fraction` constructed while the fixture is active."""
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    with mock.patch.object(Fraction, "__new__", counting_new):
        yield built


class TestNoFractions:
    """Lines, vertices and classes are integer keys, and every number is written from integers."""

    def test_parse_and_combinatorics_build_none(self, fractions_built):
        cs = compute_combinatorics(parse_arrangement(GRID))
        assert cs.json_without_vertices()["directions"][0]["direction"]
        assert fractions_built == []
        assert Fraction(1, 2)
        assert fractions_built == [(1, 2)]  # the patch does count

    @pytest.mark.parametrize("document", ["complex_pencil.json", "GRID"])
    def test_no_command_builds_one(self, capsys, tmp_path, fractions_built, document):
        path = FIXTURES / document
        if document == "GRID":
            path = tmp_path / "grid.json"
            path.write_text(json.dumps(GRID))
        counts = {}
        for command in (
            ["info"],
            ["verify"],
            ["charpoly", "--at", "zero"],
            ["charpoly", "--at", "infinity", "--expand"],
            ["zeta"],
            ["bound", "--order", "6"],
        ):
            assert main([command[0], str(path), *command[1:]]) == 0, command
            counts[" ".join(command)] = len(fractions_built)
            fractions_built.clear()
        assert main(["census", "--seed", "1", "--count", "5"]) == 0
        counts["census"] = len(fractions_built)
        capsys.readouterr()
        assert counts == dict.fromkeys(counts, 0)


class TestOneSpectrumPerDraw:
    def test_two_charpolys_per_census_draw(self, capsys, charpoly_calls):
        """One pair per draw, read by the battery and by the bound spectrum of all orders."""
        assert main(["census", "--seed", "1", "--count", "20", "--max-order", "24"]) == 0
        assert len(charpoly_calls) == 2 * 20
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["verify"], ["bound", "--order", "3"]])
    def test_two_charpolys_per_file_command(self, capsys, charpoly_calls, command):
        for fixture in sorted(FIXTURES.glob("*.json")):
            charpoly_calls.clear()
            assert main([command[0], str(fixture), *command[1:]]) == 0, fixture.name
            assert len(charpoly_calls) == 2, (command, fixture.name)
        capsys.readouterr()

    def test_doctored_zero_charpoly_fails_the_census(self, capsys, monkeypatch):
        """The battery reads the pair the spectrum reads: a wrong one still stops the census."""

        def doctored(cs, weights=None):
            return FactoredUnityPoly([(1, 1)])

        monkeypatch.setattr(linemono.census, "charpoly_zero_closed", doctored)
        payload = run_json(capsys, 2, "census", "--seed", "1", "--count", "3")
        assert payload["error"] == "InternalCheckError"
        assert payload["message"].startswith("draw 0 failed checks: ")
        assert "zeta-agreement" in payload["message"]


class TestOnlyInfoListsEveryVertex:
    """The summary keeps the multiple points; no command builds the table of every vertex.

    `info` lists every vertex too, but writes its rows from the pair loop's dict.
    """

    @pytest.fixture
    def counted(self):
        """(pair loops run, vertex tables built) while the fixture is active."""
        builds = []
        build = CombinatorialSummary.__dict__["vertex_table"].func

        def counting(cs):
            builds.append(cs)
            return build(cs)

        table = cached_property(counting)
        table.__set_name__(CombinatorialSummary, "vertex_table")
        with mock.patch.object(
            linemono.arrangement, "_intersections", wraps=linemono.arrangement._intersections
        ) as pairs, mock.patch.object(CombinatorialSummary, "vertex_table", table):
            yield pairs, builds

    @pytest.mark.parametrize("document", ["GRID", *sorted(p.name for p in FIXTURES.glob("*.json"))])
    def test_per_command(self, capsys, tmp_path, counted, document):
        pairs, builds = counted
        path = FIXTURES / document
        if document == "GRID":
            path = tmp_path / "grid.json"
            path.write_text(json.dumps(GRID))
        runs = {}
        for command in (
            ["info"],
            ["verify"],
            ["charpoly", "--at", "zero"],
            ["charpoly", "--at", "infinity", "--expand"],
            ["zeta"],
            ["bound", "--order", "5"],
        ):
            pairs.reset_mock()
            builds.clear()
            assert main([command[0], str(path), *command[1:]]) == 0, command
            runs[command[0] + (command[2] if len(command) > 2 else "")] = (
                pairs.call_count, len(builds)
            )
        capsys.readouterr()
        assert runs == {
            "info": (1, 0), "verify": (1, 0), "charpolyzero": (1, 0),
            "charpolyinfinity": (1, 0), "zeta": (1, 0), "bound5": (1, 0),
        }

    def test_census(self, capsys, counted):
        pairs, builds = counted
        assert main(["census", "--seed", "1", "--count", "20"]) == 0
        capsys.readouterr()
        assert (pairs.call_count, len(builds)) == (20, 0)

    def test_histogram_ascending(self):
        """n_2 is counted apart from the multiple points, yet leads the histogram."""
        cs = compute_combinatorics(parse_arrangement(GRID))
        assert cs.double_points > 0 and max(cs.histogram) == 4
        assert list(cs.histogram) == sorted(cs.histogram)
