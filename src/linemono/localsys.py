"""Rank-one local systems and upper bounds on twisted first cohomology.

A local system on the complement assigns to the j-th line a monodromy
exp(2*pi*i * e_j / N); it is stored as the order N with the residue vector
e, reduced by `LocalSystem.create` so that gcd(e_1, ..., e_d, N) = 1
(minimal order).  The bound on dim H^1 with these coefficients is
min(N0, NInfinity), the multiplicities of a = exp(2*pi*i/N) in the
characteristic polynomials about zero and at infinity built with weights e;
a is a root of Phi_N, so the integer N names it.  The polynomial
multiplicities are the ground truth; the combinatorial vertex sums are
computed alongside and cross-checked, except at infinity when N divides the
total weight, where the vertex sum does not capture the (t^{d_e} - 1)^{p-2}
contribution and is reported as unavailable instead.  `bound_spectrum`
serves many orders with the same residues from one pair of polynomials and
one pass over the vertices and classes, after refusing bad input; a single
bound is its one-order case.  A census draw's residues are its own weights,
all 1, so the census reads its spectrum, refusals and cross-checks
included, from the one pair of polynomials its battery has checked: two
builds per draw, not four.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arrangement import CombinatorialSummary
from .errors import BadResidues, InternalCheckError, LengthMismatch, TrivialMonodromy
from .factored import CyclotomicExponents, gcd_factored, require_order
from .monodromy import charpoly_infinity, charpoly_zero_closed


@dataclass(frozen=True)
class LocalSystem:
    """Order N and residues e_j encoding monodromies exp(2*pi*i*e_j/N)."""

    order: int
    residues: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "residues", tuple(self.residues))
        require_order(self.order)
        if not self.residues:
            raise BadResidues("residue list must be non-empty")
        for r in self.residues:
            if type(r) is not int or not 0 <= r < self.order:
                raise BadResidues(
                    f"residue {r!r} outside [0, {self.order}); use LocalSystem.create"
                )
        if gcd(self.order, *self.residues) != 1:
            raise BadResidues(
                "order is not minimal for these residues; use LocalSystem.create"
            )

    @classmethod
    def create(cls, order: int, residues) -> "LocalSystem":
        """Reduce to the minimal order: gcd(residues, order) = 1.

        Residues are first reduced mod order into [0, order); a residue 0
        means that line's monodromy is trivial, which downstream bound
        operations refuse.
        """
        require_order(order)
        residues = tuple(residues)
        for r in residues:
            if type(r) is not int:
                raise BadResidues(f"residues must be integers, got {r!r}")
        residues = tuple(r % order for r in residues)
        g = gcd(order, *residues)
        return cls(order // g, tuple(r // g for r in residues))

    @property
    def residues_gcd(self) -> int:
        """gcd of the residues alone; can exceed 1 even at minimal order."""
        return gcd(*self.residues)


@dataclass(frozen=True)
class BoundReport:
    """Twisted H^1 upper bound and the cross-checked multiplicity data."""

    order: int
    n0: int
    n_infinity: int
    bound: int
    vertex_sum_zero: int
    vertex_sum_infinity: int | None
    normal_crossing_shortcut: bool

    def to_json(self) -> dict:
        return {
            "N0": self.n0,
            "NInfinity": self.n_infinity,
            "a": {"k": 1, "order": self.order},
            "allLambdaNontrivial": True,
            "bound": self.bound,
            "normalCrossingShortcut": self.normal_crossing_shortcut,
            "vertexSumInfinity": self.vertex_sum_infinity,
            "vertexSumZero": self.vertex_sum_zero,
        }


def bound_spectrum(cs: CombinatorialSummary, residues, orders) -> list[BoundReport]:
    """Bound reports for each order N in `orders`, with `residues` as weights.

    Equals [bound_from_summary(cs, LocalSystem(N, residues)) for N in orders]
    whenever each such local system is valid.  Raises LengthMismatch unless
    there are cs.d residues, BadOrder for an order that is not an int >= 1
    and TrivialMonodromy when an order divides some residue, all before
    either polynomial is built.  The two characteristic polynomials and
    the residue sums of the multiple points, the double points and the
    classes (the summary's `vertex_sums`, `double_point_sums` and
    `class_sums`) are built once; each order is then a few divisibility sums.
    """
    return _spectrum(
        cs, residues, orders,
        lambda: (charpoly_zero_closed(cs, residues), charpoly_infinity(cs, residues)),
    )


def _spectrum(cs: CombinatorialSummary, residues, orders, polynomials) -> list[BoundReport]:
    """`bound_spectrum` with `polynomials()` building its pair, called after the refusals.

    The census passes the pair its battery has just checked.
    """
    if len(residues) != cs.d:
        raise LengthMismatch(f"{cs.d} lines but {len(residues)} residues")
    orders = list(orders)
    for n in orders:
        require_order(n)
        # a residue that is not an int is refused below, as a weight (BadWeight)
        trivial = [i for i, r in enumerate(residues) if type(r) is int and r % n == 0]
        if trivial:
            raise TrivialMonodromy(f"monodromy is 1 on lines {trivial}")
    zero, infinity = polynomials()
    d_e = sum(residues)
    vertices = [(d_v, m - 2) for m, d_v in zip(cs.multiplicities, cs.vertex_sums(residues))]
    doubles = cs.double_point_sums(residues)
    classes = [(d_e - d_j, g.count - 1) for g, d_j in zip(cs.directions, cs.class_sums(residues))]
    reports = []
    for n in orders:
        n0 = zero.root_multiplicity(n)
        n_inf = infinity.root_multiplicity(n)
        hits = [c for s, c in vertices if s % n == 0]
        vsz = sum(hits)
        # a double point adds 0 to the sum but still breaks the shortcut
        shortcut = not hits and all(s % n for s in doubles)
        if vsz != n0:
            raise InternalCheckError(f"vertex sum {vsz} != polynomial multiplicity {n0}")
        if d_e % n == 0:
            vsi = None
        else:
            vsi = sum(c for s, c in classes if s % n == 0)
            if vsi != n_inf:
                raise InternalCheckError(
                    f"infinity vertex sum {vsi} != polynomial multiplicity {n_inf}"
                )
        reports.append(BoundReport(n, n0, n_inf, min(n0, n_inf), vsz, vsi, shortcut))
    return reports


def bound_from_summary(cs: CombinatorialSummary, ls: LocalSystem) -> BoundReport:
    """Upper bound min(N0, NInfinity) on dim H^1 of the complement with coefficients `ls`.

    The characteristic polynomials are built with the local-system
    residues as weights; the arrangement's own weights play no role here.
    All monodromies must be nontrivial.
    """
    return bound_spectrum(cs, ls.residues, (ls.order,))[0]


def delta_f(cs: CombinatorialSummary) -> CyclotomicExponents:
    """gcd of the characteristic polynomials about zero and at infinity.

    For any root of unity other than 1 its multiplicity here is
    min(N0, NInfinity) for the corresponding local system.
    """
    return gcd_factored(charpoly_zero_closed(cs), charpoly_infinity(cs))
