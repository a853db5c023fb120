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
is reported as unavailable instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arrangement import CombinatorialSummary, WeightedArrangement, compute_combinatorics
from .errors import (
    BadOrder,
    InfinityMonodromyTrivial,
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
            raise ValueError("residue list must be non-empty")
        for r in self.residues:
            if type(r) is not int or not 0 <= r < self.order:
                raise ValueError(
                    f"residue {r!r} outside [0, {self.order}); use LocalSystem.create"
                )
        if gcd(self.order, *self.residues) != 1:
            raise ValueError(
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
        if not residues:
            raise ValueError("residue list must be non-empty")
        for r in residues:
            if type(r) is not int:
                raise ValueError(f"residues must be integers, got {r!r}")
        residues = tuple(r % order for r in residues)
        g = gcd(order, *residues)
        return cls(order // g, tuple(r // g for r in residues))

    @classmethod
    def equimonodromical(cls, order: int, d: int) -> "LocalSystem":
        """All monodromies equal to exp(2*pi*i/order)."""
        return cls.create(order, (1,) * d)

    @property
    def equimonodromic(self) -> bool:
        return len(set(self.residues)) == 1

    @property
    def has_trivial(self) -> bool:
        """True when some line's monodromy is 1 (residue 0, or order 1)."""
        return self.order == 1 or any(r == 0 for r in self.residues)

    @property
    def residues_gcd(self) -> int:
        """gcd of the residues alone; can exceed 1 even at minimal order."""
        return gcd(*self.residues)

    def eigenvalue(self) -> RootOfUnity:
        return RootOfUnity(1, self.order)


def canonical_local_system(monodromies, strict: bool = True) -> LocalSystem:
    """Build the local system from monodromy fractions k_j/N_j in [0, 1).

    The order is the lcm of the denominators and each residue is the
    fraction scaled to it; minimality gcd(residues, order) = 1 then holds
    automatically.  A fraction 0 means that line's monodromy is 1, which
    `strict` mode rejects.
    """
    fractions = [Fraction(m) for m in monodromies]
    if not fractions:
        raise ValueError("need at least one monodromy")
    for q in fractions:
        if not 0 <= q < 1:
            raise ValueError(f"monodromy fraction {q} outside [0, 1)")
    if strict and any(q == 0 for q in fractions):
        raise TrivialMonodromy("some monodromy equals 1")
    order = lcm(*(q.denominator for q in fractions))
    return LocalSystem.create(
        order, (q.numerator * (order // q.denominator) for q in fractions)
    )


def _require_nontrivial(cs: CombinatorialSummary, ls: LocalSystem) -> None:
    if len(ls.residues) != cs.d:
        raise LengthMismatch(f"{cs.d} lines but {len(ls.residues)} residues")
    if ls.has_trivial:
        trivial = [i for i, r in enumerate(ls.residues) if r % ls.order == 0]
        raise TrivialMonodromy(f"monodromy is 1 on lines {trivial or 'all'}")


def vertex_mult_zero(cs: CombinatorialSummary, ls: LocalSystem) -> int:
    """sum (m_v - 2) over vertices whose residue sum is divisible by the order.

    This is the multiplicity of exp(2*pi*i/N) in the characteristic
    polynomial about zero built with weights equal to the residues.
    """
    _require_nontrivial(cs, ls)
    return sum(
        v.multiplicity - 2
        for v in cs.vertices
        if sum(ls.residues[i] for i in v.incident) % ls.order == 0
    )


def vertex_mult_infinity(cs: CombinatorialSummary, ls: LocalSystem) -> int:
    """sum (k_j - 1) over direction classes with d_e - d_j divisible by the order.

    d_e and d_j are residue sums.  Requires the monodromy about the line
    at infinity to be nontrivial (order not dividing the total residue
    sum); otherwise the sum misses the (t^{d_e} - 1)^{p-2} contribution
    and the polynomial multiplicity is the only honest answer.
    """
    _require_nontrivial(cs, ls)
    d_e = sum(ls.residues)
    if d_e % ls.order == 0:
        raise InfinityMonodromyTrivial(f"order {ls.order} divides total weight {d_e}")
    return sum(
        g.count - 1
        for g in cs.directions
        if (d_e - sum(ls.residues[i] for i in g.members)) % ls.order == 0
    )


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


def bound_from_summary(cs: CombinatorialSummary, ls: LocalSystem) -> BoundReport:
    """Bound computation on a precomputed summary, with the residues as weights."""
    _require_nontrivial(cs, ls)
    a = ls.eigenvalue()
    n0 = charpoly_zero_closed(cs, ls.residues).root_multiplicity(a)
    n_inf = charpoly_infinity(cs, ls.residues).root_multiplicity(a)

    vsz = vertex_mult_zero(cs, ls)
    if vsz != n0:
        raise InternalCheckError(f"vertex sum {vsz} != polynomial multiplicity {n0}")
    if sum(ls.residues) % ls.order == 0:
        vsi = None
    else:
        vsi = vertex_mult_infinity(cs, ls)
        if vsi != n_inf:
            raise InternalCheckError(
                f"infinity vertex sum {vsi} != polynomial multiplicity {n_inf}"
            )

    return BoundReport(
        a=a,
        n0=n0,
        n_infinity=n_inf,
        bound=min(n0, n_inf),
        vertex_sum_zero=vsz,
        vertex_sum_infinity=vsi,
        all_lambda_nontrivial=True,
        normal_crossing_shortcut=not any(
            sum(ls.residues[i] for i in v.incident) % ls.order == 0 for v in cs.vertices
        ),
    )


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
