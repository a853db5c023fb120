"""Weighted affine line arrangements and their combinatorial summary.

A line is a*x + b*y + c = 0 with Gaussian-rational coefficients, kept as
an integer triple (below); its canonical coefficients (first nonzero
coefficient among a, b scaled to 1) are the triple over its real lead.
The combinatorial summary collects everything the closed formulas consume:
the multiple points, the number of double points, the direction classes
(the points at infinity, kept purely combinatorial), the vertex
multiplicity histogram and per-line vertex counts.  A vertex enters a
formula with exponent m_v - 2, so only the multiple points (m_v >= 3) are
kept, as two parallel columns in vertex order (incident line sets and
multiplicities); the double points are only counted.  Every vertex,
double points included, is listed by `CombinatorialSummary.all_vertices`
from the pair loop's dict, for `info`'s rows and the strata.  The
geometry carries no weights: `CombinatorialSummary.vertex_sums`,
`class_sums` and `double_point_sums` sum a weight vector (the
arrangement's own, or local-system residues) into d(I_v), d_j and the
double points' e_i + e_j.
No epsilon appears anywhere; coincidence of intersection points is exact.

A line is kept as its triple (Re A, Im A, Re B, Im B, Re C, Im C): the
equation A x + B y + C = 0 over the Gaussian integers, primitive, with a
real positive lead (A, or B when A = 0).  `Line.canonical` computes it
from COEF values for the parser and the census: clear the denominators,
multiply by the conjugate of the lead, divide by the gcd.  `Line`
accepts no other triple, so lines are equal exactly when their triples
are, and parallel exactly when their direction keys (Re A, Im A, Re B,
Im B over their gcd) are.  No rational is ever built: a coefficient or
a coordinate is written straight from its integers (`exact`).

Vertices are grouped in integer arithmetic on the triples: two lines
with Z = A1 B2 - A2 B1 != 0 meet at (X/Z, Y/Z), X = C2 B1 - C1 B2,
Y = C1 A2 - C2 A1.  The key (X conj(Z), Y conj(Z), |Z|^2), five
integers over their gcd, is the same for every pair through a point
since |Z|^2 > 0, and already primitive when |Z|^2 = 1.  The pairs are
visited one pair of exact-(A, B) groups at a time, so Z, A conj(Z) and
B conj(Z) are computed once per pair of groups (`_intersections`); a
double point keeps its pair of lines, and only a multiple point a set.
A vertex keeps its key; no formula reads coordinates, so its point is
written from the key only when `info`'s row writer in `cli` writes the
vertices out, and vertices sort on integer floors of their scaled
coordinates (`_in_point_order`).

Arrangement documents are JSON:

    {"lines": [{"a": COEF, "b": COEF, "c": COEF, "e": INT?}, ...]}

COEF is an integer, a rational string "p" or "p/q" in ASCII digits, or
an object {"re": RAT, "im": RAT} (components optional, default 0).  The
weight "e" is an optional positive integer, default 1.  Floating-point
literals, repeated keys in any object and integer literals longer than
the interpreter's digit limit (4300 by default) are rejected outright.
"""

from __future__ import annotations

import json
import os
import stat
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm
from typing import Iterator

from .errors import (
    BadGcd,
    BadWeight,
    DuplicateLine,
    FileError,
    FileTooLarge,
    LengthMismatch,
    NotEssential,
    ParseError,
    TooManyLines,
)
from .exact import gaussian_json, gaussian_text, parse_coefficient

# The d(d-1)/2 pairs of lines cost time and memory alike; README.md gives
# the cost at the limit.
LINE_LIMIT = 500
# A file is read only this far, so that refusing one costs no more than
# this: above the largest valid document, LINE_LIMIT lines of 13 integers
# of 4300 digits each (about 28 million characters).
FILE_LIMIT = 2**25
# The keys an arrangement entry may have, and those it must have.
_ENTRY_KEYS, _REQUIRED_KEYS = frozenset({"a", "b", "c", "e"}), frozenset({"a", "b", "c"})


def _over_lead(key, form) -> list:
    """Each (re, im) pair of a line triple or direction key over its real lead, in `form`."""
    n = key[0] or key[2]
    return [form(key[k], key[k + 1], n) for k in range(0, len(key), 2)]


@dataclass(frozen=True)
class Line:
    """a*x + b*y + c = 0, kept as its primitive triple (module docstring).

    Only a canonical triple is accepted; `Line.canonical` builds the line
    from any coefficients.  The `direction_key` is set from the triple by
    the check that accepts it, and is not a constructor argument.
    """

    triple: tuple[int, int, int, int, int, int]
    direction_key: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = self.triple
        if not (
            type(t) is tuple and len(t) == 6 and all(type(k) is int for k in t)
            and t[1] == 0 and (t[0] > 0 or t[0] == 0 and t[2] > 0 and t[3] == 0)
            and gcd(g := gcd(*t[:4]), t[4], t[5]) == 1
        ):
            raise ParseError(
                "not a canonical line triple (six integers with gcd 1 whose lead,"
                " A or else B, is real and positive); use Line.canonical"
            )
        object.__setattr__(self, "direction_key", tuple(k // g for k in t[:4]))

    @classmethod
    def canonical(cls, a, b, c) -> "Line":
        """The line a*x + b*y + c = 0 for COEF values with (a, b) != (0, 0).

        A COEF is an int, a rational string "p" or "p/q", or
        {"re": RAT, "im": RAT}, as in an arrangement document.
        """
        if type(a) is type(b) is type(c) is int and (a or b):
            h = gcd(a, b) if (a or b) > 0 else -gcd(a, b)
            g = gcd(h, c) if h > 0 else -gcd(h, c)
            return cls._made((a // g, 0, b // g, 0, c // g, 0), (a // h, 0, b // h, 0))
        parts = [part for z in (a, b, c) for part in parse_coefficient(z)]
        scale = lcm(*(den for _, den in parts))
        ar, ai, br, bi, cr, ci = (num * (scale // den) for num, den in parts)
        lr, li = (ar, ai) if ar or ai else (br, bi)
        if not (lr or li):
            raise ParseError("a line needs (a, b) != (0, 0)")
        triple = (
            ar * lr + ai * li, ai * lr - ar * li,
            br * lr + bi * li, bi * lr - br * li,
            cr * lr + ci * li, ci * lr - cr * li,
        )
        h = gcd(*triple[:4])
        g = gcd(h, triple[4], triple[5])
        return cls._made(tuple(k // g for k in triple), tuple(k // h for k in triple[:4]))

    @classmethod
    def _made(cls, triple: tuple, direction_key: tuple) -> "Line":
        """The line of a triple that `canonical` has just made canonical, past the re-check."""
        line = object.__new__(cls)
        line.__dict__.update(triple=triple, direction_key=direction_key)
        return line

    def coeff_string(self) -> str:
        return ",".join(_over_lead(self.triple, gaussian_text))

    def __str__(self) -> str:
        return "({})x + ({})y + ({}) = 0".format(*_over_lead(self.triple, gaussian_text))


@dataclass(frozen=True)
class WeightedArrangement:
    """Distinct lines with positive integer multiplicities.

    Invariants: 2 <= d <= LINE_LIMIT, at least two direction classes
    (essential), and gcd of the weights equal to 1.
    """

    lines: tuple[Line, ...]
    weights: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.lines)

    @classmethod
    def build(cls, lines: list[Line], weights: list[int]) -> "WeightedArrangement":
        _check_line_count(len(lines))
        _validated_weights(weights, len(lines))
        seen: dict[tuple[int, ...], int] = {}
        for i, line in enumerate(lines):
            first = seen.setdefault(line.triple, i)
            if first != i:
                raise DuplicateLine(f"lines {first} and {i} canonicalize to {_shown(line)}")
        if len(lines) < 2 or len({line.direction_key for line in lines}) < 2:
            raise NotEssential("need at least two non-parallel lines")
        if gcd(*weights) != 1:
            raise BadGcd(f"weights {weights} have gcd {gcd(*weights)} != 1")
        return cls(tuple(lines), tuple(weights))


def _check_line_count(d: int) -> None:
    if d > LINE_LIMIT:
        raise TooManyLines(f"{d} lines > LINE_LIMIT = {LINE_LIMIT}")


def _shown(line: Line) -> str:
    """The line as text for a message, or a stand-in when a coefficient is too long to write."""
    try:
        return str(line)
    except ValueError:  # the interpreter's int-to-text digit limit
        return "a line with a coefficient too long to write out"


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
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
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
    _check_line_count(len(entries))  # before any entry is parsed
    lines: list[Line] = []
    weights: list[int] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"line {i} is not an object")
        if not (entry.keys() <= _ENTRY_KEYS and _REQUIRED_KEYS <= entry.keys()):
            unknown = set(entry) - _ENTRY_KEYS
            if unknown:
                raise ParseError(f"line {i} has unknown keys: {sorted(unknown)}")
            raise ParseError(f"line {i} is missing keys: {sorted(_REQUIRED_KEYS - set(entry))}")
        lines.append(Line.canonical(entry["a"], entry["b"], entry["c"]))
        e = entry.get("e", 1)
        if type(e) is not int or e < 1:
            raise BadWeight(f"line {i}: weight must be a positive integer, got {e!r}")
        weights.append(e)
    return WeightedArrangement.build(lines, weights)


def load_arrangement(path) -> WeightedArrangement:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # A regular file of at most FILE_LIMIT bytes is read whole, on the
            # interpreter's fast path; any other, a pipe included, only one
            # character past the limit.
            info = os.fstat(handle.fileno())
            whole = stat.S_ISREG(info.st_mode) and info.st_size <= FILE_LIMIT
            text = handle.read(-1 if whole else FILE_LIMIT + 1)
    except UnicodeDecodeError as exc:
        raise ParseError(f"file is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise FileError(str(exc)) from exc
    if len(text) > FILE_LIMIT:
        raise FileTooLarge(f"file has more than FILE_LIMIT = {FILE_LIMIT} characters")
    return parse_arrangement(text)


@dataclass(frozen=True)
class DirectionClass:
    """A maximal parallel class; combinatorial stand-in for a point at infinity.

    `key` is its lines' direction key (Re A, Im A, Re B, Im B); their
    canonical (a, b) is the key over its real lead (Re A, or Re B when
    A = 0).
    """

    key: tuple[int, int, int, int]
    members: frozenset[int]
    count: int


@dataclass(frozen=True)
class CombinatorialSummary:
    """All combinatorial data the invariant formulas consume.

    A vertex v enters the formulas through (t^{d(I_v)} - 1)^{m_v - 2},
    so a double point (m_v = 2) adds nothing and is only counted.  The
    multiple points (m_v >= 3) are two parallel columns in vertex order
    (sorted on the coordinates): `incidences` (the frozenset of lines
    through each) and `multiplicities` (their sizes); `double_points` is
    n_2.  The `histogram` (ascending in m) and `line_vertex_counts` cover
    every vertex.  `all_vertices` is the one route to every vertex, double
    points included.  `compute_combinatorics` fills them from one loop over
    pairs of exact-(A, B) groups.
    """

    d: int
    weights: tuple[int, ...]
    incidences: tuple[frozenset[int], ...]
    multiplicities: tuple[int, ...]
    double_points: int
    directions: tuple[DirectionClass, ...]
    histogram: dict[int, int]
    line_vertex_counts: tuple[int, ...]
    # The pair loop's vertex keys to their lines: a pair (i, j), i > j possible, or a set if m > 2.
    # Read only by `all_vertices`, which leaves it as it is.
    _points: dict[tuple[int, ...], tuple | set] = field(repr=False, compare=False)

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

    def all_vertices(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(key, lines) for every vertex, double points included, in vertex order.

        A key is the point's primitive integer key (x_re, x_im, y_re, y_im, n),
        the point being ((x_re + x_im i)/n, (y_re + y_im i)/n).  `lines`
        ascend: a double point's pair, smaller line first, or a multiple
        point's lines sorted.
        """
        points = self._points
        for key in _in_point_order(points):
            lines = points[key]
            if type(lines) is tuple:
                yield key, lines if lines[0] < lines[1] else lines[::-1]
            else:
                yield key, tuple(sorted(lines))

    def vertex_sums(self, weights) -> list[int]:
        """d(I_v) for each multiple point, in vertex order: `weights` summed over its lines.

        With every weight 1 these are the multiplicities.
        """
        if all(e == 1 for e in weights):
            return list(self.multiplicities)
        return [sum(map(weights.__getitem__, incident)) for incident in self.incidences]

    def class_sums(self, weights) -> list[int]:
        """d_j for each direction class, in class order: `weights` summed over its members."""
        return [sum(map(weights.__getitem__, g.members)) for g in self.directions]

    def double_point_sums(self, weights) -> list[int]:
        """The weight sums d(I_v) = e_i + e_j that occur at some double point.

        A double point is a pair of lines from distinct classes that no
        multiple point holds: count the pairs of all lines by their sum, from
        a tally of the weights, less the pairs inside each class, from its
        own tally, and inside each multiple point.  No pair of the loop's
        `_points` is read, so the cost does not grow with n_2.
        """
        sums: dict[int, int] = {}

        def add_pairs(values, sign: int) -> None:
            tally: dict[int, int] = {}
            for e in values:
                tally[e] = tally.get(e, 0) + 1
            for (a, x), (b, y) in combinations_with_replacement(tally.items(), 2):
                sums[a + b] = sums.get(a + b, 0) + sign * (x * (x - 1) // 2 if a == b else x * y)

        add_pairs(weights, 1)
        for g in self.directions:
            if g.count > 1:  # a class of one line holds no pair
                add_pairs([weights[i] for i in g.members], -1)
        for incident in self.incidences:
            for i, j in combinations(incident, 2):
                sums[weights[i] + weights[j]] -= 1
        return [s for s, count in sums.items() if count > 0]

    def json_without_vertices(self) -> dict:
        """`info`'s "combinatorics" but its "vertices", which `cli._vertex_rows` writes."""
        return {
            "d": self.d,
            "dE": sum(self.weights),
            "directions": [
                {
                    "count": g.count,
                    "direction": _over_lead(g.key, gaussian_json),
                    "members": sorted(g.members),
                    "weightSum": d_j,
                }
                for g, d_j in zip(self.directions, self.class_sums(self.weights))
            ],
            "histogram": {str(m): n for m, n in sorted(self.histogram.items())},
            "lineVertexCounts": list(self.line_vertex_counts),
            "p": self.p,
            "weights": list(self.weights),
        }


def _intersections(lines: tuple[Line, ...]) -> tuple[dict, list]:
    """Each point's key (module docstring) with its lines, and the keys of the multiple points.

    The lines are grouped by their exact (A, B).  Two groups (A1, B1) and
    (A2, B2) meet unless Z = A1 B2 - A2 B1 = 0 (one class), line i of the
    first and j of the second at the key

        (C_j B1 conj(Z) - C_i B2 conj(Z),  C_i A2 conj(Z) - C_j A1 conj(Z),  |Z|^2)

    over its gcd.  A double point keeps its pair (i, j); a second pair
    through it makes the set of its lines and lists its key.
    """
    groups: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for i, line in enumerate(lines):
        groups.setdefault(line.triple[:4], []).append((i, *line.triple[4:]))
    points: dict[tuple[int, ...], tuple | set] = {}
    multiple = []
    for ((ar1, ai1, br1, bi1), rows_1), ((ar2, ai2, br2, bi2), rows_2) in combinations(
        groups.items(), 2
    ):
        zr = ar1 * br2 - ai1 * bi2 - ar2 * br1 + ai2 * bi1
        zi = ar1 * bi2 + ai1 * br2 - ar2 * bi1 - ai2 * br1
        if not (zr or zi):
            continue
        norm = zr * zr + zi * zi
        # Each group's B and A times conj(Z), as (re, im); a line's C times the other group's.
        b2r, b2i = br2 * zr + bi2 * zi, bi2 * zr - br2 * zi
        a2r, a2i = ar2 * zr + ai2 * zi, ai2 * zr - ar2 * zi
        b1r, b1i = br1 * zr + bi1 * zi, bi1 * zr - br1 * zi
        a1r, a1i = ar1 * zr + ai1 * zi, ai1 * zr - ar1 * zi
        second = [
            (j, cr * b1r - ci * b1i, cr * b1i + ci * b1r, cr * a1r - ci * a1i, cr * a1i + ci * a1r)
            for j, cr, ci in rows_2
        ]
        for i, cr, ci in rows_1:
            pr, pi = cr * b2r - ci * b2i, cr * b2i + ci * b2r
            qr, qi = cr * a2r - ci * a2i, cr * a2i + ci * a2r
            for j, sr, si, tr, ti in second:
                if norm == 1:
                    key = (sr - pr, si - pi, qr - tr, qi - ti, 1)
                else:
                    x_re, x_im, y_re, y_im = sr - pr, si - pi, qr - tr, qi - ti
                    g = gcd(x_re, x_im, y_re, y_im, norm)
                    key = (x_re // g, x_im // g, y_re // g, y_im // g, norm // g)
                pair = (i, j)
                incident = points.setdefault(key, pair)
                if type(incident) is set:
                    incident.update(pair)
                elif incident is not pair:
                    points[key] = {*incident, i, j}
                    multiple.append(key)
    return points, multiple


def _in_point_order(keys) -> list:
    """Point keys (x_re, x_im, y_re, y_im, n), or class heads of that shape, in coordinate order.

    Distinct coordinates p/n != q/m differ by at least 1/(n m), so with
    scale >= n m the floors of p * scale / n order them exactly.
    """
    scale = max((key[4] for key in keys), default=1) ** 2

    def point_key(key):
        x_re, x_im, y_re, y_im, n = key
        return (x_re * scale // n, x_im * scale // n, y_re * scale // n, y_im * scale // n)

    return sorted(keys, key=point_key)


def compute_combinatorics(arr: WeightedArrangement) -> CombinatorialSummary:
    """Group all pairwise intersections into vertices and direction classes.

    The multiple points and the classes are sorted lexicographically on
    their exact coordinates, so the summary is independent of input line
    order up to index relabeling.  The double points are only counted,
    as the points the pair loop kept as pairs: line i of a k-line class
    meets the other d - k lines once each, a vertex on it taking m - 1 of
    them, so v_i is d - k less m - 2 per multiple point on it.
    """
    d = arr.d
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, line in enumerate(arr.lines):
        classes.setdefault(line.direction_key, []).append(i)
    points, multiple = _intersections(arr.lines)

    incidences = tuple(frozenset(points[key]) for key in _in_point_order(multiple))
    multiplicities = tuple(map(len, incidences))
    # A class's key over its lead n (Re A, or Re B when A = 0) is its
    # canonical (a, b), which orders the classes as points are ordered.
    heads = {(*key, key[0] or key[2]): members for key, members in classes.items()}
    directions = tuple(
        DirectionClass(key=head[:4], members=frozenset(heads[head]), count=len(heads[head]))
        for head in _in_point_order(heads)
    )

    counts = [0] * d
    for members in classes.values():
        for i in members:
            counts[i] = d - len(members)
    for incident, m in zip(incidences, multiplicities):
        for i in incident:
            counts[i] -= m - 2
    double_points = len(points) - len(multiple)
    histogram = {2: double_points} if double_points else {}
    histogram.update(sorted(Counter(multiplicities).items()))

    return CombinatorialSummary(
        d=d,
        weights=arr.weights,
        incidences=incidences,
        multiplicities=multiplicities,
        double_points=double_points,
        directions=directions,
        histogram=histogram,
        line_vertex_counts=tuple(counts),
        _points=points,
    )
