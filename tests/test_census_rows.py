"""`census` writes each row from a per-draw template, byte for byte as `json.dumps` would.

`cli._row_template` encodes a draw's fixed fields (d, digest, histogram,
index, p, seed) once; `cli._emit_row` fills in the per-order ones.  Every
line the command writes, to stdout or through `--out`, must equal
`json.dumps(row.to_json(), sort_keys=True, separators=(",", ":"))` for the
rows of `run_census` on the same configuration.
"""

import io
import json
from contextlib import redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from linemono import RunConfig, run_census
from linemono.cli import main

configs = st.builds(
    RunConfig,
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(1, 5),
    max_lines=st.integers(3, 12),
    max_order=st.integers(2, 24),
)


def _oracle_lines(config: RunConfig) -> list[str]:
    return [
        json.dumps(row.to_json(), sort_keys=True, separators=(",", ":"))
        for row in run_census(config)
    ]


def _census(config: RunConfig, *extra: str) -> str:
    argv = [
        "census", "--seed", str(config.seed), "--count", str(config.count),
        "--max-lines", str(config.max_lines), "--max-order", str(config.max_order), *extra,
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@given(configs)
@settings(max_examples=60, deadline=None)
def test_rows_on_stdout_and_through_out(tmp_path_factory, config):
    expected = _oracle_lines(config)
    assert len(expected) == config.count * (config.max_order - 1)

    written = _census(config)
    lines = written.split("\n")
    assert lines[: len(expected)] == expected
    summary = json.loads("\n".join(lines[len(expected):]))
    assert summary["rows"] == len(expected)

    path = tmp_path_factory.mktemp("census") / "rows.jsonl"
    written = _census(config, "--out", str(path))
    assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in expected)
    assert json.loads(written) == summary
