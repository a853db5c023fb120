"""The CLI's JSON emitter: the bytes of `json.dumps(indent=2)` from the C encoder.

`cli._emit` must write exactly what `json.dumps(payload, sort_keys=True,
indent=2)` writes, and raise the same `ValueError` for an int over the
digit limit (which `cli._run` maps to `NumberTooLong`).  It must leave
no cyclic garbage behind a command, and no call in the package may bring
back the pure-Python encoder that any `indent` selects.
"""

import ast
import gc
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemono import cli

SRC = Path(cli.__file__).resolve().parent
FIXTURE = str(Path(__file__).resolve().parent.parent / "fixtures" / "weighted_triangle.json")

# Control characters, ASCII, Latin-1, CJK and an astral-plane symbol.
_ODD_TEXT = st.text(st.sampled_from("\x00\x01\x1f\x7f\"\\/\n\t aZé€漢\U0001f600"))
_TEXT = st.one_of(st.text(), _ODD_TEXT)
_PLAIN = st.one_of(st.none(), st.booleans(), st.integers(), _TEXT)
_OVER_DIGIT_LIMIT = st.builds(
    lambda digits, sign: sign * 10 ** (digits - 1),
    st.integers(4301, 4400),
    st.sampled_from((1, -1)),
)


def _trees(scalars):
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(_TEXT, children, max_size=4),
        ),
        max_leaves=20,
    )


def _emitted(value) -> str:
    out: list[str] = []
    cli._indented(value, 0, out)
    return "".join(out)


def _outcome(write, value):
    """The text `write` makes of `value`, or the ValueError it raises."""
    try:
        return write(value)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_trees(_PLAIN), _trees(st.one_of(_PLAIN, _OVER_DIGIT_LIMIT))))
def test_emitter_writes_the_bytes_of_json_dumps(value):
    expected = _outcome(lambda v: json.dumps(v, sort_keys=True, indent=2), value)
    assert _outcome(_emitted, value) == expected


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"": {}, "a": [[], {}, ()], "b": [[[]]]},
        [{"k": []}, [()], {}],
        {"\x00é": {"漢\n": ["\x1f", "\U0001f600"]}},
        {"n": [10**4299, 1], "m": {"x": -(10**4299)}},
    ],
)
def test_empty_nested_and_unusual_values(value):
    assert _emitted(value) == json.dumps(value, sort_keys=True, indent=2)


def test_digit_limit_raises_the_same_error():
    payload = {"coefficients": [1, 10**4300], "factors": {"1": 2}}
    with pytest.raises(ValueError) as ours:
        _emitted(payload)
    with pytest.raises(ValueError) as theirs:
        json.dumps(payload, sort_keys=True, indent=2)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize(
    "argv",
    [
        ["info", FIXTURE],
        ["verify", FIXTURE],
        ["charpoly", FIXTURE, "--at", "zero", "--expand"],
        ["census", "--count", "5"],
    ],
    ids=["info", "verify", "charpoly-expand", "census"],
)
def test_a_command_leaves_no_cyclic_garbage(argv):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # warm-up: caches and lazy imports fill here
    gc.collect()
    gc.disable()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _indent_dumps(tree: ast.AST):
    """Calls of `dump`/`dumps` (as a name or an attribute) that pass `indent`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("dump", "dumps"):
                yield node.lineno


def test_no_indented_json_dumps_in_the_package():
    """`indent` makes `json` run its pure-Python encoder; `cli._emit` writes that text."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _indent_dumps(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_guard_sees_an_indented_dump():
    calls = ["json.dumps(x, indent=2)", "json.dump(x, f, indent=None)", "dumps(x, indent=1)"]
    source = "\n".join(["import json", *calls])
    assert list(_indent_dumps(ast.parse(source))) == [2, 3, 4]
