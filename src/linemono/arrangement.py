"""Weighted affine line arrangements and their combinatorial summary.

A line is a*x + b*y + c = 0 with Gaussian-rational coefficients, stored in
canonical form (first nonzero coefficient among a, b scaled to 1) so that
equality of equations and parallelism are decidable by exact comparison.
The combinatorial summary collects everything the closed formulas consume:
the vertices with their incident line sets and weight sums, the direction
classes (the points at infinity, kept purely combinatorial), the vertex
multiplicity histogram and per-line vertex counts.  No epsilon appears
anywhere; coincidence of intersection points is exact.

Arrangement documents are JSON:

    {"lines": [{"a": COEF, "b": COEF, "c": COEF, "e": INT?}, ...]}

COEF is an integer, a rational string "p" or "p/q", or an object
{"re": RAT, "im": RAT} (components optional, default 0).  The weight "e"
is an optional positive integer, default 1.  Floating-point literals and
repeated keys in any object are rejected outright, and so is an integer
literal longer than the interpreter's digit limit (4300 by default).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .errors import (
    BadGcd,
    BadWeight,
    DuplicateLine,
    InternalCheckError,
    LengthMismatch,
    NotEssential,
    ParseError,
)
from .exact import GaussianRational, parse_coefficient


@dataclass(frozen=True)
class Line:
    """a*x + b*y + c = 0 in canonical form."""

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational

    @classmethod
    def canonical(cls, a: GaussianRational, b: GaussianRational, c: GaussianRational) -> "Line":
        if a.is_zero and b.is_zero:
            raise ParseError("a line needs (a, b) != (0, 0)")
        scale = a if not a.is_zero else b
        return cls(a / scale, b / scale, c / scale)

    @property
    def direction(self) -> tuple[GaussianRational, GaussianRational]:
        """Projective class of (a, b); equal for parallel lines."""
        return (self.a, self.b)

    def coeff_string(self) -> str:
        return f"{self.a},{self.b},{self.c}"

    def __str__(self) -> str:
        return f"({self.a})x + ({self.b})y + ({self.c}) = 0"


@dataclass(frozen=True)
class WeightedArrangement:
    """Distinct canonical lines with positive integer multiplicities.

    Invariants: d >= 2, at least two direction classes (essential), and
    gcd of the weights equal to 1.
    """

    lines: tuple[Line, ...]
    weights: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.lines)

    @property
    def is_unweighted(self) -> bool:
        return all(e == 1 for e in self.weights)

    @classmethod
    def build(cls, lines: list[Line], weights: list[int]) -> "WeightedArrangement":
        _validated_weights(weights, len(lines))
        seen: dict[Line, int] = {}
        for i, line in enumerate(lines):
            if line in seen:
                raise DuplicateLine(
                    f"lines {seen[line]} and {i} canonicalize to {line}"
                )
            seen[line] = i
        if len(lines) < 2 or len({line.direction for line in lines}) < 2:
            raise NotEssential("need at least two non-parallel lines")
        if gcd(*weights) != 1:
            raise BadGcd(f"weights {weights} have gcd {gcd(*weights)} != 1")
        return cls(tuple(lines), tuple(weights))


def _validated_weights(weights, d: int) -> tuple[int, ...]:
    weights = tuple(weights)
    if len(weights) != d:
        raise LengthMismatch(f"{d} lines but {len(weights)} weights")
    for e in weights:
        if type(e) is not int or e < 1:
            raise BadWeight(f"weight must be a positive integer, got {e!r}")
    return weights


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    document: dict = {}
    for key, value in pairs:
        if key in document:
            raise ParseError(f"duplicate key {key!r}")
        document[key] = value
    return document


def _reject_float(text: str):
    raise ParseError(f"floating-point literal not allowed: {text}")


def parse_arrangement(document: str | bytes | dict) -> WeightedArrangement:
    """Parse and validate an arrangement document (JSON text or dict)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(
                document,
                object_pairs_hook=_reject_duplicate_keys,
                parse_float=_reject_float,
                parse_constant=_reject_float,
            )
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        except ValueError as exc:  # an integer literal over the interpreter's digit limit
            raise ParseError(f"integer literal: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("document must be a JSON object")
    unknown = set(document) - {"lines"}
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    entries = document.get("lines")
    if not isinstance(entries, list) or not entries:
        raise ParseError('"lines" must be a non-empty array')
    lines: list[Line] = []
    weights: list[int] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"line {i} is not an object")
        unknown = set(entry) - {"a", "b", "c", "e"}
        if unknown:
            raise ParseError(f"line {i} has unknown keys: {sorted(unknown)}")
        missing = {"a", "b", "c"} - set(entry)
        if missing:
            raise ParseError(f"line {i} is missing keys: {sorted(missing)}")
        lines.append(
            Line.canonical(
                parse_coefficient(entry["a"]),
                parse_coefficient(entry["b"]),
                parse_coefficient(entry["c"]),
            )
        )
        e = entry.get("e", 1)
        if type(e) is not int or e < 1:
            raise BadWeight(f"line {i}: weight must be a positive integer, got {e!r}")
        weights.append(e)
    return WeightedArrangement.build(lines, weights)


def load_arrangement(path) -> WeightedArrangement:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_arrangement(handle.read())


@dataclass(frozen=True)
class Vertex:
    """An intersection point with its incident lines and weight sum."""

    point: tuple[GaussianRational, GaussianRational]
    incident: frozenset[int]
    multiplicity: int
    weight_sum: int


@dataclass(frozen=True)
class DirectionClass:
    """A maximal parallel class; combinatorial stand-in for a point at infinity."""

    direction: tuple[GaussianRational, GaussianRational]
    members: frozenset[int]
    count: int
    weight_sum: int


@dataclass(frozen=True)
class CombinatorialSummary:
    """All combinatorial data the invariant formulas consume."""

    d: int
    d_e: int
    weights: tuple[int, ...]
    vertices: tuple[Vertex, ...]
    directions: tuple[DirectionClass, ...]
    histogram: dict[int, int]
    line_vertex_counts: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.directions)

    @property
    def is_unweighted(self) -> bool:
        return all(e == 1 for e in self.weights)

    def weight_vector(self, weights=None) -> tuple[int, ...]:
        """`weights` checked against the geometry, or the arrangement's own.

        The geometry is weight-independent, so any positive integers of
        length d will do; no gcd condition (residues may share a factor).
        """
        return self.weights if weights is None else _validated_weights(weights, self.d)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "dE": self.d_e,
            "directions": [
                {
                    "count": g.count,
                    "direction": [c.to_json() for c in g.direction],
                    "members": sorted(g.members),
                    "weightSum": g.weight_sum,
                }
                for g in self.directions
            ],
            "histogram": {str(m): n for m, n in sorted(self.histogram.items())},
            "lineVertexCounts": list(self.line_vertex_counts),
            "p": self.p,
            "vertices": [
                {
                    "incident": sorted(v.incident),
                    "multiplicity": v.multiplicity,
                    "point": [c.to_json() for c in v.point],
                    "weightSum": v.weight_sum,
                }
                for v in self.vertices
            ],
            "weights": list(self.weights),
        }


def intersect(p: Line, q: Line) -> tuple[GaussianRational, GaussianRational] | None:
    """Exact intersection point, or None for parallel lines."""
    det = p.a * q.b - q.a * p.b
    if det.is_zero:
        return None
    x = (q.c * p.b - p.c * q.b) / det
    y = (p.c * q.a - q.c * p.a) / det
    return (x, y)


def compute_combinatorics(arr: WeightedArrangement) -> CombinatorialSummary:
    """Group all pairwise intersections into vertices and direction classes.

    Vertices are sorted lexicographically on their exact coordinates, so
    the summary is independent of input line order up to index relabeling.
    """
    d = arr.d
    weights = arr.weights

    points: dict[tuple[GaussianRational, GaussianRational], set[int]] = {}
    for i, j in combinations(range(d), 2):
        point = intersect(arr.lines[i], arr.lines[j])
        if point is not None:
            points.setdefault(point, set()).update((i, j))

    def point_key(item):
        (x, y), _ = item
        return (*x.sort_key(), *y.sort_key())

    vertices = tuple(
        Vertex(
            point=point,
            incident=frozenset(incident),
            multiplicity=len(incident),
            weight_sum=sum(weights[i] for i in incident),
        )
        for point, incident in sorted(points.items(), key=point_key)
    )

    classes: dict[tuple[GaussianRational, GaussianRational], set[int]] = {}
    for i, line in enumerate(arr.lines):
        classes.setdefault(line.direction, set()).add(i)
    directions = tuple(
        DirectionClass(
            direction=direction,
            members=frozenset(members),
            count=len(members),
            weight_sum=sum(weights[i] for i in members),
        )
        for direction, members in sorted(
            classes.items(), key=lambda item: (*item[0][0].sort_key(), *item[0][1].sort_key())
        )
    )

    histogram = dict(Counter(v.multiplicity for v in vertices))
    counts = [0] * d
    for v in vertices:
        for i in v.incident:
            counts[i] += 1

    summary = CombinatorialSummary(
        d=d,
        d_e=sum(weights),
        weights=weights,
        vertices=vertices,
        directions=directions,
        histogram=histogram,
        line_vertex_counts=tuple(counts),
    )

    # Incidence double count; failure would mean the grouping above is broken.
    total = sum(v.multiplicity for v in vertices)
    if sum(counts) != total or sum(m * n for m, n in histogram.items()) != total:
        raise InternalCheckError("incidence double count failed")
    return summary
