"""Fuzz of the parser and the command line on small documents.

Documents hold at most 6 lines, so every command finishes at once.  They
mix valid lines with malformed values, keys and JSON text (truncated,
spliced, deeply nested, not UTF-8).  `parse_arrangement` must return an
arrangement or raise an `InputError`; `main` must exit 0 or 1 with one
JSON object on stdout, and on exit 1 the error code must name an
`InputError` subclass.  On a document that parses, `bound` with integer
`--order` and `--residues` values, negative ones included, is never a
`ParseError`.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import linemono.errors
from linemono import InputError, WeightedArrangement, parse_arrangement
from linemono.cli import main

rational_strings = st.builds(
    "{}/{}".format, st.integers(-9, 9), st.integers(0, 9)
) | st.sampled_from(["1", " -3 ", "+2", "1/", "/2", "0x1", "1.5", "1e3", "", "٣", "9" * 5000])
odd_values = st.sampled_from([None, True, False, 1.5, [], {}, [1], {"re": 1, "x": 2}, "NaN"])
coefficients = st.one_of(
    st.integers(-4, 4),
    rational_strings,
    st.fixed_dictionaries(
        {}, optional={"re": st.integers(-3, 3) | rational_strings, "im": st.integers(-3, 3)}
    ),
    odd_values,
)
weights = st.integers(-1, 4) | odd_values | st.just(10**30)


@st.composite
def line_entries(draw):
    entry = {key: draw(coefficients) for key in "abc" if draw(st.integers(0, 9))}
    if draw(st.booleans()):
        entry["e"] = draw(weights)
    if not draw(st.integers(0, 15)):
        entry["z"] = 0
    return entry


@st.composite
def valid_lines(draw):
    a, b = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 2)]))
    entry = {"a": a, "b": b, "c": draw(st.integers(-5, 5))}
    if not draw(st.integers(0, 3)):
        entry["e"] = draw(st.integers(1, 3))
    return entry


valid_documents = st.fixed_dictionaries(
    {
        "lines": st.lists(
            valid_lines(), min_size=3, max_size=6, unique_by=lambda e: (e["a"], e["b"], e["c"])
        )
    }
)
documents = st.one_of(
    valid_documents,
    st.fixed_dictionaries({"lines": st.lists(valid_lines() | line_entries(), max_size=6)}),
    st.fixed_dictionaries(
        {"lines": st.lists(valid_lines(), max_size=6) | odd_values},
        optional={"extra": st.just(1)},
    ),
    st.lists(valid_lines(), max_size=3),
    odd_values,
)


@st.composite
def mutated(draw):
    """JSON text cut, spliced or prefixed with raw bytes."""
    text = json.dumps(draw(valid_documents | documents))
    at = draw(st.integers(0, len(text)))
    return draw(
        st.sampled_from(
            [
                text[:at].encode(),
                (text[:at] + draw(st.text(max_size=3)) + text[at:]).encode(),
                draw(st.binary(max_size=20)) + text.encode(),
            ]
        )
    )


texts = st.one_of(
    valid_documents.map(json.dumps).map(str.encode),
    documents.map(json.dumps).map(str.encode),
    mutated(),
    st.sampled_from(['{"lines": [1e999]}', "NaN", '{"lines": [], "lines": []}', "[" * 5000]).map(
        str.encode
    ),
)


def _input_error_name(code: str) -> bool:
    cls = getattr(linemono.errors, code, None)
    return isinstance(cls, type) and issubclass(cls, InputError)


def _parses(data: bytes) -> bool:
    try:
        parse_arrangement(data)
    except InputError:
        return False
    return True


@given(documents | texts)
@settings(max_examples=300, deadline=None)
def test_parse_yields_arrangement_or_input_error(document):
    try:
        arr = parse_arrangement(document)
    except InputError:
        return
    assert isinstance(arr, WeightedArrangement)
    assert 1 <= arr.d <= 6


COMMANDS = st.sampled_from(
    [
        ["info"],
        ["verify"],
        ["zeta"],
        ["charpoly", "--at", "zero"],
        ["charpoly", "--at", "infinity", "--expand"],
    ]
) | st.builds(
    lambda order, residues: ["bound", "--order", str(order)]
    + (["--residues", ",".join(map(str, residues))] if residues else []),
    st.integers(-1, 13) | st.just(10**21),
    st.just([])
    | st.lists(st.integers(1, 7), min_size=3, max_size=6)
    | st.lists(st.integers(-2, 7), max_size=7),
)


@pytest.fixture(scope="module")
def scratch_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "arrangement.json"


@given(texts, COMMANDS)
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_cli_exits_zero_or_one_with_a_typed_error(scratch_file, data, command):
    scratch_file.write_bytes(data)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command[0], str(scratch_file), *command[1:]])
    payload = json.loads(out.getvalue())
    assert code in (0, 1), payload
    if code == 1:
        assert _input_error_name(payload["error"]), payload
        if command[0] == "bound" and _parses(data):
            assert payload["error"] != "ParseError", payload
    else:
        assert "error" not in payload
