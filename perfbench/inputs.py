"""Seeded input generators for the three benchmark workloads.

The generators use `random.Random` seeded from the workload name and the
benchmark seed, never the package's own census generator, so a change to
the package cannot change what the benchmark feeds it.  Each workload is
an endless, deterministic stream of `Command`s; the program sees only the
generated arrangement file and the argv.

* grid: 4-direction grids (directions (1,0), (0,1), (1,1), (1,-1)) whose
  dense integer offsets make many triple and quadruple points.  About one
  line in eight gets a Gaussian-rational offset instead, so a fast path
  that only handles real integers cannot look better than it is.  Every
  block of 24 commands holds each (command, size) pair once, in seeded
  order, so the command mix and the sizes do not vary with the seed.
* census: `census --seed S --count 200` with the CLI defaults.
* expand: `charpoly --at zero|infinity --expand` on weighted arrangements
  of 3 to 6 lines whose expanded degree lies in EXPAND_DEGREES.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

WORKLOADS = ("grid", "census", "expand")
INPUT = "{input}"  # argv placeholder for the generated arrangement file

GRID_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1))
GRID_SIZES = (36, 38, 40, 42)
GRID_COMMANDS = (
    ("info", INPUT),
    ("verify", INPUT),
    ("charpoly", INPUT, "--at", "zero"),
    ("charpoly", INPUT, "--at", "infinity"),
    ("zeta", INPUT),
    ("bound", INPUT, "--order"),
)
GRID_ORDERS = (2, 6)
COMPLEX_SHARE = 1 / 8

CENSUS_COUNT = 200

EXPAND_LINES = (3, 6)
EXPAND_MAX_WEIGHT = 300
EXPAND_DEGREES = (400, 1200)
# No generated input may exceed this expanded degree, so a later degree
# cap of this size cannot turn benchmark commands into failures.
EXPAND_DEGREE_CEILING = 10_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv, the arrangement to write, expected facts."""

    argv: tuple[str, ...]
    document: dict | None = None
    expect: dict = field(default_factory=dict)


def rng_for(workload: str, seed: int, stream: str = "ops") -> random.Random:
    return random.Random(f"perfbench/{workload}/{stream}/{seed}")


def b1_fiber(lines: list[dict]) -> int:
    """1 + d_e (d - 1) - sum over direction classes of d_j k_j.

    Computed from the generator's own direction classes, independently
    of the package, for the degree checks.
    """
    classes: dict[tuple[int, int], list[int]] = {}
    for line in lines:
        classes.setdefault((line["a"], line["b"]), []).append(line.get("e", 1))
    d_e = sum(line.get("e", 1) for line in lines)
    return 1 + d_e * (len(lines) - 1) - sum(sum(w) * len(w) for w in classes.values())


def grid_document(rng: random.Random, d: int) -> dict:
    radius = d // 4
    lines: list[dict] = []
    seen = set()
    while len(lines) < d:
        a, b = GRID_DIRECTIONS[len(lines) % len(GRID_DIRECTIONS)]
        if rng.random() < COMPLEX_SHARE:
            p, q = rng.randint(-radius, radius), rng.randint(1, 4)
            r, s = rng.choice((-1, 1)) * rng.randint(1, radius), rng.randint(1, 4)
            c = {"re": f"{p}/{q}", "im": f"{r}/{s}"}
            key = (a, b, Fraction(p, q), Fraction(r, s))
        else:
            c = rng.randint(-radius, radius)
            key = (a, b, c, 0)
        if key in seen:
            continue
        seen.add(key)
        lines.append({"a": a, "b": b, "c": c})
    return {"lines": lines}


def grid_commands(seed: int):
    rng = rng_for("grid", seed)
    block = list(product(GRID_COMMANDS, GRID_SIZES))
    while True:
        rng.shuffle(block)
        for argv, d in block:
            document = grid_document(rng, d)
            expect = {"b1": b1_fiber(document["lines"]), "d": d}
            if argv[0] == "bound":
                order = rng.randint(*GRID_ORDERS)
                argv = argv + (str(order),)
                expect["order"] = order
            yield Command(argv, document, expect)


def expand_document(
    rng: random.Random, degrees=EXPAND_DEGREES, max_weight=EXPAND_MAX_WEIGHT
) -> dict:
    """A weighted arrangement whose expanded degree lies in `degrees`."""
    low, high = degrees
    while True:
        d = rng.randint(*EXPAND_LINES)
        lines: list[dict] = []
        seen = set()
        while len(lines) < d:
            a, b = GRID_DIRECTIONS[rng.randrange(len(GRID_DIRECTIONS))]
            c = rng.randint(-3, 3)
            if (a, b, c) in seen:
                continue
            seen.add((a, b, c))
            lines.append({"a": a, "b": b, "c": c, "e": rng.randint(1, max_weight)})
        if len({(line["a"], line["b"]) for line in lines}) < 2:
            continue
        g = math.gcd(*(line["e"] for line in lines))
        for line in lines:
            line["e"] //= g
        if low <= b1_fiber(lines) <= high:
            return {"lines": lines}


def expand_commands(seed: int):
    rng = rng_for("expand", seed)
    while True:
        document = expand_document(rng)
        at = rng.choice(("zero", "infinity"))
        yield Command(
            ("charpoly", INPUT, "--at", at, "--expand"),
            document,
            {"b1": b1_fiber(document["lines"])},
        )


def census_command(seed: int, count: int) -> Command:
    return Command(
        ("census", "--seed", str(seed), "--count", str(count)),
        None,
        {"seed": seed, "count": count},
    )


def census_commands(seed: int):
    rng = rng_for("census", seed)
    while True:
        yield census_command(rng.getrandbits(64), CENSUS_COUNT)


def commands(workload: str, seed: int):
    """The endless command stream of a workload; same seed, same stream."""
    return {"grid": grid_commands, "census": census_commands, "expand": expand_commands}[
        workload
    ](seed)


def warmup(workload: str, seed: int) -> Command:
    """A small untimed command that touches the workload's code paths.

    It is kept cheap and of nearly the same cost for every seed, since it
    is part of the set-up time.
    """
    rng = rng_for(workload, seed, "warmup")
    if workload == "grid":
        document = grid_document(rng, 12)
        return Command(("verify", INPUT), document, {"b1": b1_fiber(document["lines"])})
    if workload == "census":
        return census_command(rng.getrandbits(64), 3)
    document = expand_document(rng, (20, 60), 10)
    return Command(
        ("charpoly", INPUT, "--at", "zero", "--expand"),
        document,
        {"b1": b1_fiber(document["lines"])},
    )
