"""Self-checks of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

* The same seed gives byte-identical inputs; different seeds differ.
* Every expand input stays at or below the degree ceiling.
* Every traced layer is found at one or more binding sites.  A later
  change that deletes a target makes this check name it; the benchmark
  itself reports such a target as absent and keeps running, which this
  check also tries with targets that do not exist.
* A deliberately corrupted output, or a nonzero exit, counts as a failed
  op on every workload.

Prints one line per check and exits 1 if any fails.
"""

import json
import os
import sys
from itertools import islice

import inputs
import worker
from layertrace import LAYER_NAMES, Tracer

SAMPLE = 400


def serialized(workload: str, seed: int, n: int = SAMPLE) -> bytes:
    stream = islice(inputs.commands(workload, seed), n)
    items = [[c.argv, c.document, c.expect] for c in stream]
    items.append(list(vars(inputs.warmup(workload, seed)).values()))
    return json.dumps(items, sort_keys=True).encode()


def check_determinism() -> list[str]:
    problems = []
    for workload in inputs.WORKLOADS:
        if serialized(workload, 7) != serialized(workload, 7):
            problems.append(f"{workload}: seed 7 gave different inputs twice")
        if serialized(workload, 7) == serialized(workload, 8):
            problems.append(f"{workload}: seeds 7 and 8 gave the same inputs")
    return problems


def check_degree_ceiling() -> list[str]:
    problems = []
    for seed in range(1, 6):
        commands = list(islice(inputs.commands("expand", seed), 2000))
        commands.append(inputs.warmup("expand", seed))
        worst = max(c.expect["b1"] for c in commands)
        if worst > inputs.EXPAND_DEGREE_CEILING:
            problems.append(f"expand seed {seed}: degree {worst} over the ceiling")
    return problems


def check_binding_sites() -> list[str]:
    tracer = Tracer()
    tracer.install()
    problems = [f"layer {name} has no binding site" for name in LAYER_NAMES if not tracer.sites[name]]
    problems += [f"trace target {target} is absent" for target in tracer.absent]
    for removed in ("arrangement:CombinatorialSummary.removed", "factored:removed", "gone:f"):
        if tracer._install(removed, lambda fn: fn) != 0 or removed not in tracer.absent:
            problems.append(f"removed target {removed} is not reported absent")
    return problems


def corrupt(workload: str, text: str) -> str:
    """Change one value that the output check must catch."""
    if workload == "census":
        first, rest = text.split("\n", 1)
        row = json.loads(first)
        row["bound"] += 1
        return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n" + rest
    out = json.loads(text)
    if "coefficients" in out:
        out["coefficients"][len(out["coefficients"]) // 2] += 1
    elif "allPassed" in out:
        out["allPassed"] = False
    elif "degree" in out:
        out["degree"] += 1
    elif "numbersIdentityHolds" in out:
        out["b1Fiber"] += 1
    elif "numerator" in out:
        out["numerator"]["1"] = out["numerator"].get("1", 0) + 1
    else:
        out["bound"] += 1
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def check_corrupted_outputs(cli, workdir: str) -> list[str]:
    problems = []
    path = os.path.join(workdir, "selfcheck-input.json")
    for workload in inputs.WORKLOADS:
        # One command of each kind: a grid block holds every kind.
        kinds = {c.argv[::3]: c for c in islice(inputs.commands(workload, 3), 24)}
        for command in kinds.values():
            if command.document is not None:
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(command.document, handle)
            rc, start, end, capture = worker.run_command(cli, worker.argv_for(command, path))
            name = f"{workload} {command.argv[0]}"
            clean = worker.outcomes(command, rc, start, end, capture)
            if any(reason for _, reason in clean):
                problems.append(f"{name}: correct output counted as failed")
            capture.parts = [corrupt(workload, capture.text())]
            capture.stamps = capture.stamps[-1:]
            failed = [r for _, r in worker.outcomes(command, rc, start, end, capture) if r]
            if not failed:
                problems.append(f"{name}: corrupted output not counted as failed")
            if not all(r for _, r in worker.outcomes(command, 1, start, end, capture)):
                problems.append(f"{name}: nonzero exit not counted as failed")
    os.remove(path)
    return problems


def main() -> int:
    root = os.getcwd()
    cli = worker.import_cli(root)
    workdir = os.path.join(root, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    checks = (
        ("same seed, same inputs; new seed, new inputs", check_determinism),
        ("expand degrees within the ceiling", check_degree_ceiling),
        ("corrupted outputs counted as failed", lambda: check_corrupted_outputs(cli, workdir)),
        ("every layer has a binding site", check_binding_sites),
    )
    failed = False
    for title, check in checks:
        problems = check()
        print(f"{'FAIL' if problems else 'ok  '} {title}")
        for problem in problems:
            print(f"     {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
