"""One benchmark process: import the CLI, warm up, run one workload.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR MODE LIMIT

The caller has written the warm-up command's input to WORKDIR/warmup.json.
MODE is `ready` (stop after the warm-up), `seconds` (run commands until
LIMIT seconds of op time and at least MIN_OPS ops), `commands` (run
exactly LIMIT commands) or `traced` (run exactly LIMIT commands with the
layer tracer installed, and write its spans next to WORKDIR).

The process drives `linemono.cli.main(argv)` in-process, one command at a
time from a single thread: a closed loop with one client.  Only the time
inside `main` is op time; writing the next input file and checking the
last output happen between ops.  It prints one JSON result line, with
`ready_ns` (CLOCK_MONOTONIC) marking the end of set-up: the import of the
CLI and the warm-up command.  The only benchmark work inside set-up is
rebuilding the warm-up command's argv, under a millisecond.  It must be
started from the root of a checkout, whose `src/` it imports.
"""

import bisect
import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from time import perf_counter_ns

import inputs
import outcheck

MIN_OPS = 100  # so that p90 has at least ten samples beyond it
HARD_STOP_S = 120  # wall-time cap on one process, whatever MIN_OPS says
DIGEST_COMMANDS = {"grid": 12, "census": 1, "expand": 40}


def import_cli(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    from linemono import cli

    expected = os.path.join(root, "src", "linemono")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        raise SystemExit(f"imported {cli.__file__}, not the checkout's {expected}")
    return cli


class StampedStdout(io.TextIOBase):
    """Captures stdout and the time of each write."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps: list[int] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        self.stamps.append(perf_counter_ns())
        return len(text)

    def text(self) -> str:
        return "".join(self.parts)

    def stamp_at(self, offsets: list[int]) -> list[int]:
        """Time of the write that brought the output to each offset."""
        ends, end = [], 0
        for part in self.parts:
            end += len(part)
            ends.append(end)
        last = len(self.stamps) - 1
        return [self.stamps[min(bisect.bisect_left(ends, o), last)] for o in offsets]


def run_command(cli, argv: list[str], tracer=None, index: int = 0):
    """Run one command; returns (rc, start_ns, end_ns, capture)."""
    capture = StampedStdout()
    close = tracer.root(index) if tracer is not None else None
    start = perf_counter_ns()
    try:
        with redirect_stdout(capture):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    end = perf_counter_ns()
    if close is not None:
        close()
    return rc, start, end, capture


def argv_for(command, path: str) -> list[str]:
    return [path if a == inputs.INPUT else a for a in command.argv]


def outcomes(command, rc, start: int, end: int, capture: StampedStdout):
    """(latency_ns, failure reason or None) per op of the command.

    On census an op is one arrangement, and its latency the gap between
    the write of its last row and that of the previous arrangement.
    """
    text = capture.text()
    if command.argv[0] != "census":
        return [(end - start, outcheck.check_command(command.argv, command.expect, rc, text))]
    checked = outcheck.check_census(command.expect, rc, text)
    stamps = capture.stamp_at([offset for offset, _ in checked]) if capture.parts else []
    result, previous = [], start
    for i, (_, reason) in enumerate(checked):
        stamp = stamps[i] if stamps else end
        result.append((stamp - previous, reason))
        previous = stamp
    return result


def main(argv: list[str]) -> int:
    workload, seed, workdir, mode, limit = argv
    seed, limit = int(seed), float(limit)
    warmup = inputs.warmup(workload, seed)

    cli = import_cli(os.getcwd())
    warmed = run_command(cli, argv_for(warmup, os.path.join(workdir, "warmup.json")))
    ready_ns = time.monotonic_ns()
    reasons = [r for _, r in outcomes(warmup, *warmed) if r is not None]
    result = {"ready_ns": ready_ns, "warmup_failure": reasons[:1]}
    if mode == "ready":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "traced":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    path = os.path.join(workdir, f"input-{os.getpid()}.json")
    stream = inputs.commands(workload, seed)
    digest = hashlib.sha256()
    prefix_digest = None
    latencies: list[int] = []
    failures: list[str] = []
    failed = timed_ns = emitted = n = 0
    wall_start = time.monotonic()
    while True:
        if mode == "seconds":
            if timed_ns >= limit * 1e9 and len(latencies) >= MIN_OPS:
                break
            if time.monotonic() - wall_start > HARD_STOP_S:
                break
        elif n >= limit:
            break
        command = next(stream)
        if command.document is not None:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(command.document, handle)
        rc, start, end, capture = run_command(cli, argv_for(command, path), tracer, n)
        timed_ns += end - start
        data = capture.text().encode("utf-8")
        emitted += len(data)
        digest.update(data)
        n += 1
        if n == DIGEST_COMMANDS[workload]:
            prefix_digest = digest.hexdigest()
        for latency, reason in outcomes(command, rc, start, end, capture):
            latencies.append(latency)
            if reason is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"command {n - 1} {command.argv[0]}: {reason}")

    timed_s = timed_ns / 1e9
    result.update(
        commands=n,
        ops=len(latencies),
        failed=failed,
        failures=failures,
        timed_s=timed_s,
        latencies_ns=latencies,
        digest=digest.hexdigest(),
        prefix_digest=prefix_digest,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(timed_s, len(latencies), emitted)
        result["absent"] = tracer.absent
        result["sites"] = dict(tracer.sites)
        tracer.write(os.path.join(os.path.dirname(workdir), f"spans-{workload}-{seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
