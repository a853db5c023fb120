"""Characteristic polynomials of the monodromy and the stratified zeta pipeline.

Two independent routes to the characteristic polynomial of the monodromy
about the zero fiber exist side by side:

* the closed product formula over lines and vertices, and
* the zeta-function route: the stratified product of local zeta functions
  over the vertices and open line pieces of the zero fiber, divided into
  (1 - t).

Both land in the same factored carrier and must agree after cyclotomic
refactoring; the verification battery checks this on every input.  Zeta
factors are read as (1 - t^m) and characteristic polynomials as (t^m - 1);
the global unit sign this suppresses is invisible to root multiplicities,
which is all that is ever consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .arrangement import CombinatorialSummary
from .errors import NotEssential, NotPolynomial
from .factored import FactoredUnityPoly


def charpoly_infinity(cs: CombinatorialSummary, weights=None) -> FactoredUnityPoly:
    """Characteristic polynomial of the monodromy at infinity.

    (t - 1) (t^{d_e} - 1)^{p-2} prod_j (t^{d_e - d_j} - 1)^{k_j - 1},
    of degree b_1 of the general fiber.  d_e and the class sums d_j are
    taken over `weights` (default: the arrangement's own weights).
    """
    if cs.p < 2:
        raise NotEssential("monodromy at infinity needs two direction classes")
    weights = cs.weight_vector(weights)
    d_e = sum(weights)
    factors = [(1, 1), (d_e, cs.p - 2)]
    factors += [(d_e - d_j, g.count - 1) for g, d_j in zip(cs.directions, cs.class_sums(weights))]
    return FactoredUnityPoly(factors)


def charpoly_zero_closed(cs: CombinatorialSummary, weights=None) -> FactoredUnityPoly:
    """Characteristic polynomial of the monodromy about the zero fiber.

    (t - 1) prod_lines (t^{e_j} - 1)^{v_j - 1}
            prod_vertices (t^{d(I_v)} - 1)^{m_v - 2},
    with e_j the entries of `weights` (default: the arrangement's own
    weights) and d(I_v) their sums over the lines through v.
    """
    weights = cs.weight_vector(weights)
    factors = [(1, 1)]
    factors += [(e, count - 1) for e, count in zip(weights, cs.line_vertex_counts)]
    factors += [(d_v, m - 2) for m, d_v in zip(cs.multiplicities, cs.vertex_sums(weights))]
    return FactoredUnityPoly(factors)


@dataclass(frozen=True)
class StratumDescriptor:
    """One stratum of the zero fiber: a vertex or an open line piece.

    Vertices carry their weight sum and line multiplicity with Euler
    characteristic 1; the open piece of a line carries its weight (a
    one-branch "vertex") with Euler characteristic 1 - v_j.
    """

    kind: str  # "vertex" or "open_line_piece"
    weight_sum: int
    multiplicity: int
    euler: int


def strata(cs: CombinatorialSummary) -> Iterator[StratumDescriptor]:
    """The stratification of the zero fiber the zeta product runs over, every vertex included."""
    _, incidences, multiplicities = cs.vertex_table
    for m, d_v in zip(multiplicities, cs.vertex_sums(cs.weights, incidences)):
        yield StratumDescriptor("vertex", weight_sum=d_v, multiplicity=m, euler=1)
    for e, count in zip(cs.weights, cs.line_vertex_counts):
        yield StratumDescriptor("open_line_piece", weight_sum=e, multiplicity=1, euler=1 - count)


@dataclass(frozen=True)
class ZetaFunction:
    """Alternating product of det(Id - t*monodromy) over cohomology degrees.

    The carrier's factors are read as (1 - t^m); negative exponents are
    poles of the rational function.
    """

    value: FactoredUnityPoly

    def numerator(self) -> FactoredUnityPoly:
        return FactoredUnityPoly(
            {m: c for m, c in self.value.factors.items() if c > 0}
        )

    def denominator(self) -> FactoredUnityPoly:
        return FactoredUnityPoly(
            {m: -c for m, c in self.value.factors.items() if c < 0}
        )

    def __str__(self) -> str:
        def fmt(poly: FactoredUnityPoly) -> str:
            if poly.is_one:
                return "1"
            return "".join(
                ("(1-t)" if m == 1 else f"(1-t^{m})") + (f"^{c}" if c != 1 else "")
                for m, c in sorted(poly.factors.items())
            )

        num, den = self.numerator(), self.denominator()
        if den.is_one:
            return fmt(num)
        return f"{fmt(num)} / {fmt(den)}"

    def to_json(self) -> dict:
        return {
            "denominator": self.denominator().to_json(),
            "numerator": self.numerator().to_json(),
        }


def local_zeta(s: StratumDescriptor) -> ZetaFunction:
    """Local zeta function of the defining polynomial at a point of the stratum.

    At an ordinary point where branches of total weight D and multiplicity
    m meet, the Milnor fiber is a degree-D cyclic cover of a sphere minus
    m points with the deck rotation as monodromy, giving (1 - t^D)^{2-m}.
    A smooth point of a weight-e line is the m = 1 case, (1 - t^e).
    """
    return ZetaFunction(FactoredUnityPoly({s.weight_sum: 2 - s.multiplicity}))


def zeta_at_zero(cs: CombinatorialSummary) -> ZetaFunction:
    """Global zeta function about the zero fiber as the stratified product.

    Product over strata of the local zeta raised to the stratum's Euler
    characteristic; only the vertices and open line pieces contribute.
    Every local factor is a power of (1 - t^D), so the product is one
    exponent map, (2 - m) * euler summed per weight sum D in a single
    pass over the strata of `strata(cs)` written out: a vertex adds
    2 - m_v at d(I_v), the open piece of line j adds 1 - v_j at e_j.  A
    double point adds 0, so the pass reads only the multiple points.
    """
    exponents: dict[int, int] = {}
    for m, d_v in zip(cs.multiplicities, cs.vertex_sums(cs.weights)):
        exponents[d_v] = exponents.get(d_v, 0) + 2 - m
    for e, count in zip(cs.weights, cs.line_vertex_counts):
        exponents[e] = exponents.get(e, 0) + 1 - count
    return ZetaFunction(FactoredUnityPoly(exponents))


def charpoly_zero_from_zeta(z: ZetaFunction) -> FactoredUnityPoly:
    """Recover det(Id - t*M^1) = (1 - t) / Z from the zeta function.

    The general fiber is connected, so degree 0 contributes exactly
    (1 - t).  The result must be an honest polynomial; a pole here means
    the pipeline is inconsistent.  On an essential arrangement every
    exponent of (1 - t) / Z is nonnegative, so the pole test enumerates
    no divisors.
    """
    result = FactoredUnityPoly({1: 1}) * (z.value ** -1)
    if result.has_pole():
        raise NotPolynomial(
            f"(1 - t)/Z = {result} has a pole; zeta pipeline inconsistent"
        )
    return result
