"""`info` writes its vertex rows straight from the columns: the bytes of `to_json`, in less memory.

`cli._vertex_rows` fills one row template per vertex from
`cs.vertex_table`, where `CombinatorialSummary.to_json` builds a dict per
vertex.  `info`'s stdout must still equal `json.dumps` of the report and
`to_json`, byte for byte: on random Gaussian arrangements with weights,
pencils and parallel classes, on every fixture and on the benchmark's
seed-1 grid inputs.  `cli._indented` writes such a `partial` leaf as its
own text, and the peak memory of `info` on generic lines stays below that
of a dict per vertex.
"""

import importlib.util
import io
import json
import os
import sys
import tracemalloc
from contextlib import redirect_stdout
from functools import partial
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linemono import compute_combinatorics, invariant_report, parse_arrangement
from linemono.cli import _indented, main

from test_grouping import _build, _gaussian, gaussian_arrangements

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _expected(document: dict) -> str:
    cs = compute_combinatorics(parse_arrangement(document))
    payload = invariant_report(cs).to_json() | {"combinatorics": cs.to_json()}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _info(path) -> tuple[int, str]:
    with redirect_stdout(io.StringIO()) as out:
        code = main(["info", str(path)])
    return code, out.getvalue()


def _assert_info_matches_to_json(document: dict, path: Path) -> str:
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
        _assert_info_matches_to_json(document, tmp_path_factory.mktemp("info") / "doc.json")

    def test_gaussian_pencil(self, tmp_path):
        out = _assert_info_matches_to_json(GAUSSIAN_PENCIL, tmp_path / "doc.json")
        points = [row["point"] for row in json.loads(out)["combinatorics"]["vertices"]]
        parts = [part for point in points for z in point if isinstance(z, dict) for part in z.values()]
        assert any(part.startswith("-") for part in parts) and any("/" in part for part in parts)
        assert any(not part.startswith("-") and part != "0" for part in parts)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_fixtures(self, tmp_path, name):
        document = json.loads((FIXTURES / name).read_text())
        _assert_info_matches_to_json(document, tmp_path / name)

    def test_grid_inputs_of_the_benchmark(self, tmp_path, monkeypatch):
        documents = _grid_documents(monkeypatch)
        assert len(documents) == 12
        for document in documents:
            _assert_info_matches_to_json(document, tmp_path / "grid.json")


def test_a_writer_leaf_writes_its_own_text_at_its_level():
    """A `partial` counts as a container: a dict holding it and scalars is not encoded whole."""
    leaf = partial("<{}>".format)
    for value, text in (
        ({"a": 1, "b": leaf}, '{\n  "a": 1,\n  "b": <1>\n}'),
        ([[leaf], leaf], "[\n  [\n    <2>\n  ],\n  <1>\n]"),
    ):
        out: list[str] = []
        _indented(value, 0, out)
        assert "".join(out) == text


def test_peak_memory_of_info_on_generic_lines(tmp_path):
    """No dict per vertex: `info` on 100 tangents (4950 double points) stays in bounded memory.

    The peak traced during the command measured 5.1 MiB with the rows
    written from the columns, and 9.0 MiB with a dict per vertex walked by
    `cli._indented`; the bound is the first plus 25%.
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
    assert peak < 1.25 * 5.1 * 2**20
