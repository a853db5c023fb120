"""`info` writes its vertex rows straight from the pair loop, in less memory than dicts.

`cli._vertex_rows` appends each row as pieces, from `cs.all_vertices()`
in vertex order: a double point's pair (which the loop may hold larger
line first) or a multiple point's set, each read as ascending lines and
left as the loop made it.  `info`'s stdout must equal `json.dumps` of the report
and of `_oracles.summary_to_json`, which rebuilds the "combinatorics"
object from the Fraction-pair oracle and shares no code with the
package, byte for byte: on random Gaussian arrangements with weights,
pencils and parallel classes, on every fixture, on the benchmark's
seed-1 grid inputs, and on pairs held larger line first, with and without
the vertices listed first.  `cli._indented` lets such a `partial` leaf append
its own text, the rows build no `Fraction`, and the peak memory of `info`
on generic lines stays below that of a dict per vertex.
"""

import importlib.util
import io
import json
import os
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linemono.cli
from linemono import compute_combinatorics, invariant_report, parse_arrangement
from linemono.cli import _indented, _vertex_rows, main

from _oracles import document_lines, summary_to_json
from test_grouping import _build, _gaussian, gaussian_arrangements

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _expected(document: dict) -> str:
    cs = compute_combinatorics(parse_arrangement(document))
    combinatorics = summary_to_json(*document_lines(document))
    payload = invariant_report(cs).to_json() | {"combinatorics": combinatorics}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _info(path) -> tuple[int, str]:
    with redirect_stdout(io.StringIO()) as out:
        code = main(["info", str(path)])
    return code, out.getvalue()


def _assert_info_matches_oracle(document: dict, path: Path) -> str:
    path.write_text(json.dumps(document))
    code, out = _info(path)
    assert code == 0
    assert out == _expected(document)
    return out


def _grid_documents(monkeypatch) -> list[dict]:
    """The arrangements of the `info` commands among the benchmark's first 72 grid commands, seed 1."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look their module up
    spec.loader.exec_module(inputs)
    commands = islice(inputs.commands("grid", 1), 72)
    return [command.document for command in commands if command.argv[0] == "info"]


@st.composite
def documents(draw):
    """Arrangement documents of Gaussian lines (pencils, parallel classes) with weights up to 10**6."""
    raw = draw(gaussian_arrangements())
    weights = draw(st.lists(st.integers(1, 10**6), max_size=len(raw)))
    built = _build(raw, weights)
    assume(built is not None)
    kept, arr = built
    return {
        "lines": [
            {"a": _gaussian(a), "b": _gaussian(b), "c": _gaussian(c), "e": e}
            for (a, b, c), e in zip(kept, arr.weights)
        ]
    }


# Vertices with denominators and with negative and positive imaginary parts.
GAUSSIAN_PENCIL = {
    "lines": [
        {"a": 1, "b": 0, "c": {"re": "-1/3", "im": "2/3"}, "e": 3},
        {"a": 0, "b": 1, "c": {"re": "1/2", "im": "-5/7"}},
        {"a": 1, "b": 1, "c": {"re": "-1/6", "im": "-1/21"}, "e": 2},
        {"a": {"re": 1, "im": 1}, "b": 2, "c": "7/5"},
        {"a": 1, "b": 0, "c": 4},
    ]
}


class TestRowsAgainstToJson:
    @given(documents())
    @settings(max_examples=100, deadline=None)
    def test_random_arrangements(self, tmp_path_factory, document):
        _assert_info_matches_oracle(document, tmp_path_factory.mktemp("info") / "doc.json")

    def test_gaussian_pencil(self, tmp_path):
        out = _assert_info_matches_oracle(GAUSSIAN_PENCIL, tmp_path / "doc.json")
        points = [row["point"] for row in json.loads(out)["combinatorics"]["vertices"]]
        parts = [part for point in points for z in point if isinstance(z, dict) for part in z.values()]
        assert any(part.startswith("-") for part in parts) and any("/" in part for part in parts)
        assert any(not part.startswith("-") and part != "0" for part in parts)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_fixtures(self, tmp_path, name):
        document = json.loads((FIXTURES / name).read_text())
        _assert_info_matches_oracle(document, tmp_path / name)

    @pytest.mark.parametrize("listed_first", [False, True], ids=["loop", "listed-first"])
    def test_pair_held_larger_line_first(self, tmp_path, monkeypatch, listed_first):
        """Lines 0 and 2 are one (A, B) group, met before line 1's: the loop holds (2, 1).

        Listing the vertices changes nothing: a second listing equals the
        first, the loop's pair and set keep their types, and the rows are
        the same whether or not the vertices were listed first.
        """
        document = {
            "lines": [
                {"a": 1, "b": 0, "c": 0},
                {"a": 0, "b": 1, "c": 0},
                {"a": 1, "b": 0, "c": -1, "e": 3},
                {"a": 1, "b": 1, "c": 0, "e": 2},
            ]
        }
        cs = compute_combinatorics(parse_arrangement(document))
        listed = list(cs.all_vertices())
        assert list(cs.all_vertices()) == listed
        assert [lines for _, lines in listed] == [(0, 1, 3), (2, 3), (1, 2)]
        held = list(cs._points.values())
        assert (2, 1) in held and {0, 1, 3} in held
        assert sorted(type(lines).__name__ for lines in held) == ["set", "tuple", "tuple"]
        if listed_first:
            summarize = linemono.cli.compute_combinatorics

            def summarize_and_list(arr):
                cs = summarize(arr)
                assert list(cs.all_vertices())
                return cs

            monkeypatch.setattr(linemono.cli, "compute_combinatorics", summarize_and_list)
        _assert_info_matches_oracle(document, tmp_path / "doc.json")

    def test_grid_inputs_of_the_benchmark(self, tmp_path, monkeypatch):
        documents = _grid_documents(monkeypatch)
        assert len(documents) == 12
        for document in documents:
            _assert_info_matches_oracle(document, tmp_path / "grid.json")


def _level_tag(level: int, out: list[str]) -> None:
    out.append(f"<{level}>")


def test_a_writer_leaf_writes_its_own_text_at_its_level():
    """A `partial` counts as a container: a dict holding it and scalars is not encoded whole."""
    leaf = partial(_level_tag)
    for value, text in (
        ({"a": 1, "b": leaf}, '{\n  "a": 1,\n  "b": <1>\n}'),
        ([[leaf], leaf], "[\n  [\n    <2>\n  ],\n  <1>\n]"),
    ):
        out: list[str] = []
        _indented(value, 0, out)
        assert "".join(out) == text


def test_peak_memory_of_info_on_generic_lines(tmp_path):
    """No dict per vertex: `info` on 100 tangents (4950 double points) stays in bounded memory.

    The peak traced during the command, in a fresh process, measured
    4.15 MiB with the rows appended as pieces from the pair loop's dict,
    5.8 MiB with a frozen table of every vertex and a string per row, and
    9.0 MiB with a dict per vertex walked by `cli._indented`; the bound is
    the first, rounded up to 4.2 MiB, plus 25%.
    """
    path = tmp_path / "tangents.json"
    path.write_text(json.dumps({"lines": [{"a": i, "b": -1, "c": -i * i} for i in range(1, 101)]}))
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["info", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1.25 * 4.2 * 2**20


def test_rows_build_no_fraction():
    """Each point is written from its integer key: no `Fraction` is built for a row.

    The input is a 40-line 4-direction grid; every fourth offset is a
    Gaussian rational.
    """
    offsets = [k if k % 4 else {"re": f"{k}/3", "im": "1/7"} for k in range(10)]
    document = {
        "lines": [
            {"a": a, "b": b, "c": c} for a, b in ((1, 0), (0, 1), (1, 1), (1, -1)) for c in offsets
        ]
    }
    cs = compute_combinatorics(parse_arrangement(document))
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    with mock.patch.object(Fraction, "__new__", counting_new):
        out: list[str] = []
        _vertex_rows(cs, 0, out)
        rows = json.loads("".join(out))
        assert built == []
        assert Fraction(1, 3)
        assert len(built) == 1  # the patch does count
    assert len(rows) > 300
    assert any(isinstance(z, dict) for row in rows for z in row["point"])
