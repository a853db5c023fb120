"""The linemono benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload grid|census|expand --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  Inputs come from perfbench/inputs.py
and the seed; the program sees only the generated files and argv.  Every
op's output is checked (perfbench/outcheck.py).  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 runs one worker process for S seconds of op time (and at least
100 ops) and reports the end-to-end metrics.  `setup_s` is the median,
over SETUP_SAMPLES fresh processes (the timed worker among them), of the
time from spawning the process until its first timed op could start:
interpreter start, `import linemono.cli` and one warm-up command.

--trace 1 runs a fixed list of TRACE_COMMANDS commands twice, each time
in a fresh process: untraced, then with the layer tracer installed.  It
reports per-layer calls, self time and share, the layer counters, the
tracing overhead and the traced run's unattributed share.  Both runs must
print the same stdout bytes.  A fixed command list makes the counters
repeat exactly for a seed.

The sha256 of the stdout of the first commands (worker.DIGEST_COMMANDS)
is printed on the line before the result and, where
perfbench/reference_digests.json has one for the workload and seed,
must equal it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))

DEADLINE_S = 170  # the whole run, including every process it starts
SETUP_SAMPLES = 9
TRACE_COMMANDS = {"grid": 72, "census": 8, "expand": 1000}
REFERENCE = os.path.join(HERE, "reference_digests.json")
WORK = ".perfbench"  # inputs and span files, under the checkout root


class BenchError(Exception):
    """The run cannot produce a result."""


def spawn(args: list[str], deadline: float) -> tuple[dict, int]:
    """Run one worker to completion; returns its result and spawn time."""
    spawned = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {args[:4]} passed the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:4]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def write_warmup(workload: str, seed: int, work: str) -> None:
    """Write the warm-up input before any worker starts, outside set-up."""
    document = inputs.warmup(workload, seed).document
    if document is not None:
        with open(os.path.join(work, "warmup.json"), "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def reference_digest(workload: str, seed: int) -> str | None:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def check_digest(workload: str, seed: int, digest: str | None) -> bool:
    expected = reference_digest(workload, seed)
    status = "no reference" if expected is None else (
        "matches reference" if digest == expected else f"differs from reference {expected}"
    )
    print(f"stdout sha256 ({workload}, seed {seed}): {digest} {status}")
    return expected is None or digest == expected


def end_to_end(workload: str, seed: int, seconds: int, work: str, deadline: float):
    run, spawned = spawn([workload, str(seed), work, "seconds", str(seconds)], deadline)
    setups = [(run["ready_ns"] - spawned) / 1e9]
    for _ in range(SETUP_SAMPLES - 1):
        ready, spawned = spawn([workload, str(seed), work, "ready", "0"], deadline)
        setups.append((ready["ready_ns"] - spawned) / 1e9)
        run["warmup_failure"] += ready["warmup_failure"]
    latencies = run["latencies_ns"]
    ok = run["ops"] - run["failed"]
    metrics = {
        "throughput_ops_per_s": (ok / run["timed_s"], "1/s"),
        "latency_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] / 1e6, "ms"),
        "success_ratio": (ok / run["ops"], "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(
        f"{workload}: {run['commands']} commands, {run['ops']} ops, "
        f"{run['timed_s']:.2f} s op time, setup samples {[round(s, 4) for s in setups]}",
        file=sys.stderr,
    )
    digest_ok = check_digest(workload, seed, run["prefix_digest"])
    return run, metrics, digest_ok and not run["warmup_failure"]


def per_layer(workload: str, seed: int, work: str, deadline: float):
    limit = str(TRACE_COMMANDS[workload])
    plain, _ = spawn([workload, str(seed), work, "commands", limit], deadline)
    traced, _ = spawn([workload, str(seed), work, "traced", limit], deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = (traced["timed_s"] / plain["timed_s"], "ratio")
    if traced["absent"]:
        print(f"absent trace targets: {traced['absent']}", file=sys.stderr)
    print(f"binding sites per layer: {traced['sites']}", file=sys.stderr)
    same = plain["digest"] == traced["digest"]
    if not same:
        print("traced stdout differs from untraced stdout", file=sys.stderr)
    digest_ok = check_digest(workload, seed, plain["prefix_digest"])
    run = {k: plain[k] + traced[k] for k in ("ops", "failed", "failures", "warmup_failure")}
    return run, metrics, same and digest_ok and not run["warmup_failure"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "linemono", "cli.py")):
        print("run from the root of a linemono checkout: src/linemono is missing", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="work-", dir=WORK) as work:
            write_warmup(args.workload, args.seed, work)
            if args.trace:
                run, metrics, ok = per_layer(args.workload, args.seed, work, deadline)
            else:
                run, metrics, ok = end_to_end(
                    args.workload, args.seed, args.seconds, work, deadline
                )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    for reason in run["failures"] + run["warmup_failure"]:
        print(f"failed op: {reason}", file=sys.stderr)
    result = {
        "correct": ok and run["failed"] == 0,
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
