"""Golden output bytes: the sha256 of stdout and the exit code of fixed commands.

Every command of `COMMANDS` runs in-process through `main`; its stdout
bytes and exit code must equal the digests in `golden_digests.json`.
The digest file names fixtures relative to the repository root; no
output contains a path, so it does not depend on where the checkout lives.
Usage errors, bad options and `--help` are pinned too; `--help` ends in
`SystemExit`, whose code is recorded as the exit code, and its text is
wrapped at a fixed 80 columns.

Re-record only at a commit whose output is known good:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from linemono.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"

FIXTURES = (
    "complex_pencil",
    "concurrent_four",
    "eight_line_normal_crossing",
    "triangle",
    "two_axes",
    "weighted_triangle",
)


def _commands() -> list[str]:
    commands = []
    for name in FIXTURES:
        path = f"fixtures/{name}.json"
        commands += [f"info {path}", f"zeta {path}", f"verify {path}"]
        for at in ("zero", "infinity"):
            commands += [f"charpoly {path} --at {at}", f"charpoly {path} --at {at} --expand"]
        commands += [f"bound {path} --order {n}" for n in range(1, 9)]
    commands += [
        "bound fixtures/triangle.json --order 3 --residues -1,1,1",
        "bound fixtures/triangle.json --order 3 --res -1,1,1",
        "bound fixtures/triangle.json --order 3 --residues=-1,1,1",
        "census --seed 1 --count 200",
        "census --seed 7 --count 100 --max-lines 12 --max-order 24",
        "bound fixtures/triangle.json --order 0",
        "bound fixtures/triangle.json --order x",
        "bound fixtures/triangle.json --order 3 --residues 1,1",
        "bound fixtures/triangle.json --order 3 --residues 1,a",
        "charpoly fixtures/triangle.json --at middle",
        "census --max-lines 2",
        "census --count 0",
        "info fixtures/limits/too_many_lines.json",
        "",  # no command
    ]
    subcommands = ("info", "charpoly", "zeta", "bound", "verify", "census")
    commands += [f"{sub} --help" for sub in subcommands]
    return commands


COMMANDS = _commands()


def run_digest(command: str) -> dict:
    """{"exit", "sha256"} of one command, its fixture path made absolute."""
    argv = [str(ROOT / arg) if arg.startswith("fixtures/") else arg for arg in command.split()]
    out = io.StringIO()
    with redirect_stdout(out), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def _recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digest_file_lists_every_command():
    assert sorted(_recorded()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_output_bytes(command):
    assert run_digest(command) == _recorded()[command]


def test_spaced_negative_residues_read_as_joined():
    recorded = _recorded()
    joined = recorded["bound fixtures/triangle.json --order 3 --residues=-1,1,1"]
    assert joined["exit"] == 0
    for spaced in ("--residues -1,1,1", "--res -1,1,1"):
        assert recorded[f"bound fixtures/triangle.json --order 3 {spaced}"] == joined


if __name__ == "__main__":
    digests = {command: run_digest(command) for command in COMMANDS}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
