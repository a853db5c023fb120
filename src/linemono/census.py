"""Deterministic randomized census of bound comparisons.

The generator is fixed so that identical configurations produce byte-
identical output on every platform:

* The pseudo-random source is splitmix64 with its standard published
  constants, seeded directly with the 64-bit config seed.
* Bounded draws use rejection sampling on the raw 64-bit outputs
  (`below(n)`), so no modulo bias and no platform dependence.
* One arrangement draw: a line count uniform in [3, max_lines], then for
  each line a direction from DIRECTIONS (in order) and an integer offset
  in [-20, 20], giving the line a*x + b*y + offset = 0.  A draw whose
  lines collide in canonical form or fall into a single parallel class is
  discarded whole and redrawn; accepted draws are numbered 0, 1, ... in
  acceptance order.

For every accepted arrangement the verification battery must pass, and
for each order N in 2..max_order the local system with monodromy
exp(2*pi*i/N) on every line yields one census row recording which side
of the bound is tighter.  Those residues are the draw's own weights, so
one pair of characteristic polynomials per draw, about zero and at
infinity, serves the battery and every order's bound.  The rows of a
draw share its fixed fields (d, digest, histogram, index, p, seed); the
command line encodes them once per draw and each order's row fills in
the rest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

from .arrangement import Line, WeightedArrangement, compute_combinatorics
from .checks import _battery, battery_passed
from .errors import DuplicateLine, InternalCheckError, NotEssential, ParseError
from .localsys import _spectrum
from .monodromy import charpoly_infinity, charpoly_zero_closed

_MASK64 = (1 << 64) - 1

DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2))
OFFSET_RANGE = (-20, 20)


class SplitMix64:
    """splitmix64 with the standard constants; 64-bit state and outputs."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection from the 64-bit stream."""
        if n < 1:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % n


@cache
def _census_line(direction: int, offset: int) -> Line:
    """The canonical line of DIRECTIONS[direction] with this offset, built once."""
    a, b = DIRECTIONS[direction]
    return Line.canonical(a, b, offset)


@cache
def _digest_text(line: Line) -> str:
    """A census line's coefficients as the rows' digest writes them, built once per line."""
    return line.coeff_string()


def draw_arrangement(rng: SplitMix64, max_lines: int) -> WeightedArrangement:
    """Draw one valid unweighted arrangement, discarding invalid draws whole."""
    while True:
        count = 3 + rng.below(max_lines - 2)
        lines = []
        for _ in range(count):
            direction = rng.below(len(DIRECTIONS))
            offset = OFFSET_RANGE[0] + rng.below(OFFSET_RANGE[1] - OFFSET_RANGE[0] + 1)
            lines.append(_census_line(direction, offset))
        try:
            return WeightedArrangement.build(lines, [1] * count)
        except (DuplicateLine, NotEssential):
            continue


@dataclass(frozen=True)
class RunConfig:
    seed: int
    count: int
    max_lines: int = 8
    max_order: int = 6

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ParseError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.count < 1:
            raise ParseError(f"count must be >= 1, got {self.count}")
        if not 3 <= self.max_lines <= 12:
            raise ParseError(f"max_lines must be in [3, 12], got {self.max_lines}")
        if not 2 <= self.max_order <= 24:
            raise ParseError(f"max_order must be in [2, 24], got {self.max_order}")


@dataclass(frozen=True)
class CensusRow:
    seed: int
    index: int
    digest: tuple[str, ...]
    d: int
    p: int
    histogram: dict[int, int]
    order: int
    n0: int
    n_infinity: int
    bound: int
    tighter: str  # "zero" | "infinity" | "tie"

    def to_json(self) -> dict:
        return {
            "N0": self.n0,
            "NInfinity": self.n_infinity,
            "bound": self.bound,
            "d": self.d,
            "digest": list(self.digest),
            "histogram": {str(m): n for m, n in sorted(self.histogram.items())},
            "index": self.index,
            "order": self.order,
            "p": self.p,
            "seed": self.seed,
            "tighter": self.tighter,
        }


def run_census(config: RunConfig) -> Iterator[CensusRow]:
    """Yield rows in draw order; raises InternalCheckError on any identity failure."""
    rng = SplitMix64(config.seed)
    orders = range(2, config.max_order + 1)
    for index in range(config.count):
        arr = draw_arrangement(rng, config.max_lines)
        cs = compute_combinatorics(arr)
        # the arrangement's own weights, all 1, are the residues of every order's local system
        zero, infinity = charpoly_zero_closed(cs), charpoly_infinity(cs)
        results = _battery(cs, zero, lambda: infinity)
        if not battery_passed(results):
            failed = [r.name for r in results if not r.passed]
            raise InternalCheckError(f"draw {index} failed checks: {failed}")
        digest = tuple(map(_digest_text, arr.lines))
        for report in _spectrum(cs, cs.weights, orders, lambda: (zero, infinity)):
            if report.n0 < report.n_infinity:
                tighter = "zero"
            elif report.n_infinity < report.n0:
                tighter = "infinity"
            else:
                tighter = "tie"
            yield CensusRow(
                seed=config.seed,
                index=index,
                digest=digest,
                d=cs.d,
                p=cs.p,
                histogram=cs.histogram,
                order=report.order,
                n0=report.n0,
                n_infinity=report.n_infinity,
                bound=report.bound,
                tighter=tighter,
            )


def summarize(config: RunConfig, rows: Iterable[CensusRow]) -> dict:
    """The summary object; `rows` may be any iterable, read once."""
    tighter = Counter(r.tighter for r in rows)
    return {
        "arrangements": config.count,
        "maxLines": config.max_lines,
        "maxOrder": config.max_order,
        "rows": sum(tighter.values()),
        "seed": config.seed,
        "tighterInfinity": tighter["infinity"],
        "tighterZero": tighter["zero"],
        "ties": tighter["tie"],
    }
