"""Rank-one local systems and upper bounds on twisted first cohomology.

A local system on the complement assigns to the j-th line a monodromy
exp(2*pi*i * e_j / N); it is stored as the order N with the residue vector
e, reduced so that gcd(e_1, ..., e_d, N) = 1 (minimal order).  The bound
on dim H^1 with these coefficients is min(N0, NInfinity), the multiplicities
of a = exp(2*pi*i/N) in the characteristic polynomials about zero and at
infinity built with weights e.  The polynomial multiplicities are the
ground truth; the combinatorial vertex sums are computed alongside and
cross-checked, except at infinity when N divides the total weight, where
the vertex sum does not capture the (t^{d_e} - 1)^{p-2} contribution and
is reported as unavailable instead.  `bound_spectrum` serves many orders
with the same residues from one pair of polynomials and one pass over the
vertices and classes (the census uses it once per draw); a single bound
is its one-order case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arrangement import CombinatorialSummary, WeightedArrangement, compute_combinatorics
from .errors import (
    BadMonodromy,
    BadOrder,
    BadResidues,
    InternalCheckError,
    LengthMismatch,
    TrivialMonodromy,
)
from .exact import RootOfUnity
from .factored import CyclotomicExponents, gcd_factored
from .monodromy import charpoly_infinity, charpoly_zero_closed


@dataclass(frozen=True)
class LocalSystem:
    """Order N and residues e_j encoding monodromies exp(2*pi*i*e_j/N)."""

    order: int
    residues: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "residues", tuple(self.residues))
        if type(self.order) is not int or self.order < 1:
            raise BadOrder(f"order must be a positive integer, got {self.order!r}")
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
        if type(order) is not int or order < 1:
            raise BadOrder(f"order must be a positive integer, got {order!r}")
        residues = tuple(residues)
        for r in residues:
            if type(r) is not int:
                raise BadResidues(f"residues must be integers, got {r!r}")
        residues = tuple(r % order for r in residues)
        g = gcd(order, *residues)
        return cls(order // g, tuple(r // g for r in residues))

    @classmethod
    def equimonodromical(cls, order: int, d: int) -> "LocalSystem":
        """All monodromies equal to exp(2*pi*i/order)."""
        return cls.create(order, (1,) * d)

    @property
    def has_trivial(self) -> bool:
        """True when some line's monodromy is 1 (residue 0, or order 1)."""
        return self.order == 1 or any(r == 0 for r in self.residues)

    @property
    def residues_gcd(self) -> int:
        """gcd of the residues alone; can exceed 1 even at minimal order."""
        return gcd(*self.residues)


def canonical_local_system(monodromies) -> LocalSystem:
    """Build the local system from monodromy fractions k_j/N_j in [0, 1).

    The order is the lcm of the denominators and each residue is the
    fraction scaled to it; minimality gcd(residues, order) = 1 then holds
    automatically.  A fraction 0 means that line's monodromy is 1, which
    is rejected (`TrivialMonodromy`).
    """
    try:
        fractions = [Fraction(m) for m in monodromies]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise BadMonodromy(f"monodromy is not an exact fraction: {exc}") from exc
    if not fractions:
        raise BadMonodromy("need at least one monodromy")
    for q in fractions:
        if not 0 <= q < 1:
            raise BadMonodromy(f"monodromy fraction {q} outside [0, 1)")
    if any(q == 0 for q in fractions):
        raise TrivialMonodromy("some monodromy equals 1")
    order = lcm(*(q.denominator for q in fractions))
    return LocalSystem.create(
        order, (q.numerator * (order // q.denominator) for q in fractions)
    )


def _require_nontrivial(cs: CombinatorialSummary, ls: LocalSystem) -> None:
    if len(ls.residues) != cs.d:
        raise LengthMismatch(f"{cs.d} lines but {len(ls.residues)} residues")
    if ls.has_trivial:
        trivial = [i for i, r in enumerate(ls.residues) if r == 0]
        raise TrivialMonodromy(f"monodromy is 1 on lines {trivial}")


@dataclass(frozen=True)
class BoundReport:
    """Twisted H^1 upper bound and the cross-checked multiplicity data."""

    a: RootOfUnity
    n0: int
    n_infinity: int
    bound: int
    vertex_sum_zero: int
    vertex_sum_infinity: int | None
    all_lambda_nontrivial: bool
    normal_crossing_shortcut: bool

    def to_json(self) -> dict:
        return {
            "N0": self.n0,
            "NInfinity": self.n_infinity,
            "a": self.a.to_json(),
            "allLambdaNontrivial": self.all_lambda_nontrivial,
            "bound": self.bound,
            "normalCrossingShortcut": self.normal_crossing_shortcut,
            "vertexSumInfinity": self.vertex_sum_infinity,
            "vertexSumZero": self.vertex_sum_zero,
        }


def bound_spectrum(cs: CombinatorialSummary, residues, orders) -> list[BoundReport]:
    """Bound reports for each order N in `orders`, with `residues` as weights.

    Equals [bound_from_summary(cs, LocalSystem(N, residues)) for N in orders]
    whenever each such local system is valid and nontrivial.  The two
    characteristic polynomials and the vertex and class residue sums are
    built once; each order is then a few divisibility sums.
    """
    zero = charpoly_zero_closed(cs, residues)
    infinity = charpoly_infinity(cs, residues)
    d_e = sum(residues)
    vertices = [(d_v, m - 2) for m, d_v in zip(cs.multiplicities, cs.vertex_sums(residues))]
    classes = [(d_e - d_j, g.count - 1) for g, d_j in zip(cs.directions, cs.class_sums(residues))]
    reports = []
    for n in orders:
        a = RootOfUnity(1, n)
        n0 = zero.root_multiplicity(a)
        n_inf = infinity.root_multiplicity(a)
        hits = [c for s, c in vertices if s % n == 0]
        vsz = sum(hits)
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
        reports.append(BoundReport(a, n0, n_inf, min(n0, n_inf), vsz, vsi, True, not hits))
    return reports


def bound_from_summary(cs: CombinatorialSummary, ls: LocalSystem) -> BoundReport:
    """Bound computation on a precomputed summary, with the residues as weights."""
    _require_nontrivial(cs, ls)
    return bound_spectrum(cs, ls.residues, (ls.order,))[0]


def h1_upper_bound(arr: WeightedArrangement, ls: LocalSystem) -> BoundReport:
    """Upper bound min(N0, NInfinity) on dim H^1 of the complement.

    The characteristic polynomials are built with weights equal to the
    local-system residues; the arrangement's own weights play no role
    here.  All monodromies must be nontrivial.
    """
    return bound_from_summary(compute_combinatorics(arr), ls)


def delta_f(cs: CombinatorialSummary) -> CyclotomicExponents:
    """gcd of the characteristic polynomials about zero and at infinity.

    For any root of unity other than 1 its multiplicity here is
    min(N0, NInfinity) for the corresponding local system.
    """
    return gcd_factored(charpoly_zero_closed(cs), charpoly_infinity(cs))
