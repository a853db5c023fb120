"""Record the stdout digests that run.py compares against.

    python3 perfbench/reference.py FIRST_SEED LAST_SEED

For each workload and seed, runs the first worker.DIGEST_COMMANDS
commands in a fresh process and stores the sha256 of their stdout in
perfbench/reference_digests.json.  Record only from a commit whose
outputs are known to be right: the digests pin its output bytes.
"""

import json
import os
import sys
import tempfile
import time

import inputs
import run
from worker import DIGEST_COMMANDS


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    digests: dict = {}
    os.makedirs(run.WORK, exist_ok=True)
    for workload in inputs.WORKLOADS:
        digests[workload] = {}
        for seed in range(first, last + 1):
            with tempfile.TemporaryDirectory(prefix="work-", dir=run.WORK) as work:
                run.write_warmup(workload, seed, work)
                result, _ = run.spawn(
                    [workload, str(seed), work, "commands", str(DIGEST_COMMANDS[workload])],
                    time.monotonic() + run.DEADLINE_S,
                )
            if result["failed"] or result["warmup_failure"]:
                print(f"{workload} seed {seed}: failed ops {result['failures']}", file=sys.stderr)
                return 1
            digests[workload][str(seed)] = result["digest"]
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
