"""The benchmark's byte gate: the stdout of each workload's first commands at seed 1.

Each workload's worker runs its first `worker.DIGEST_COMMANDS[workload]`
commands in a fresh process, as `perfbench/run.py` does, and the sha256
of their stdout must equal `perfbench/reference_digests.json`.  Nothing
under `perfbench/` is written.
"""

import importlib.util
import json
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["grid", "census", "expand"])
def test_digest_matches_reference(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py and worker.py import their neighbours
    run, worker = _load("run"), _load("worker")
    monkeypatch.chdir(ROOT)  # the worker imports the `src/` of its working directory
    run.write_warmup(workload, 1, str(tmp_path))
    commands = str(worker.DIGEST_COMMANDS[workload])
    result, _ = run.spawn(
        [workload, "1", str(tmp_path), "commands", commands], time.monotonic() + 120
    )
    assert result["failed"] == 0, result["failures"]
    assert not result["warmup_failure"]
    expected = json.loads((PERFBENCH / "reference_digests.json").read_text())[workload]["1"]
    assert result["prefix_digest"] == expected
