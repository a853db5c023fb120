"""Every demo script runs to completion and prints exactly its recorded text."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout: a change to any printed byte shows here.
STDOUT_SHA256 = {
    "01_combinatorics.py": "fcbdc7e3719bfa56a233bf0b4d69d327daa614fb5c7722f4aa7dce338e692839",
    "02_invariants.py": "c058a9a4294dc93eb56cda161d5d212eab3467b727361c45757640ee0b1603d5",
    "03_monodromy.py": "b31651dcdab6604b3261e2b71d71d17d45d7d37650fc8f02ac16b267764b3a13",
    "04_twisted_bounds.py": "4162370e251285286a840f8b31036f41ee0eae64b7964e9b4a660d15e71630ef",
    "05_census.py": "dce9fcc6977b5624ee337d958f480ae5599a65d473efdcd03d3dc34b98f69a80",
}


def test_demos_exist():
    assert [p.name for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[path.name]
