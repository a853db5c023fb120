"""Closed-form numerical invariants of an arrangement and its defining polynomial.

All formulas are exact integer expressions in the combinatorial summary:
the Euler characteristic of the complement (equal to the number of 2-cells
attached to a tube around the zero fiber), the first Betti number and genus
of the general fiber, the Milnor numbers of the fiber closures at the
points at infinity, the dicritic count, and the consistency identities
tying them together.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import CombinatorialSummary
from .errors import InternalCheckError, WeightedNotSupported


def mu_arrangement(cs: CombinatorialSummary) -> int:
    """1 - d + sum over m-fold vertices of n_m (m - 1).

    This is both the number of 2-spheres in the bouquet the zero fiber
    deformation-retracts to and the Euler characteristic of the complement.
    """
    return 1 - cs.d + sum(n * (m - 1) for m, n in cs.histogram.items())


def numbers_identity(cs: CombinatorialSummary) -> tuple[int, int]:
    """(vertex side, direction side); equal on every arrangement, b_1 if unweighted."""
    vertex_side = 1 - cs.d + sum(n * (m - 1) * m for m, n in cs.histogram.items())
    direction_side = (cs.d - 1) ** 2 - sum(g.count * (g.count - 1) for g in cs.directions)
    return vertex_side, direction_side


def betti1_general_fiber(cs: CombinatorialSummary) -> int:
    """b_1 of the general fiber: 1 + d_e(d - 1) - sum_j d_j k_j, over the arrangement's weights."""
    d_js = cs.class_sums(cs.weights)
    return 1 + sum(cs.weights) * (cs.d - 1) - sum(d * g.count for d, g in zip(d_js, cs.directions))


def genus_general_fiber(cs: CombinatorialSummary) -> int:
    """Genus of a smooth projective model of the general fiber (weights all 1)."""
    if not cs.is_unweighted:
        raise WeightedNotSupported("genus formula applies to all-ones weights only")
    value = (cs.d - 1) * (cs.d - 2) // 2 - sum(
        g.count * (g.count - 1) // 2 for g in cs.directions
    )
    if value < 0:
        raise InternalCheckError(f"negative genus {value}")
    return value


@dataclass(frozen=True)
class InvariantReport:
    mu: int
    chi_complement: int
    b1_fiber: int
    genus: int | None
    dicritics: int
    b1_complement: int
    kaliman_lhs: int
    kaliman_rhs: int
    numbers_identity_holds: bool
    infinity_mu: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "b1Complement": self.b1_complement,
            "b1Fiber": self.b1_fiber,
            "chiComplement": self.chi_complement,
            "dicritics": self.dicritics,
            "genus": self.genus,
            "infinityMu": list(self.infinity_mu),
            "kalimanLHS": self.kaliman_lhs,
            "kalimanRHS": self.kaliman_rhs,
            "mu": self.mu,
            "numbersIdentityHolds": self.numbers_identity_holds,
        }


def invariant_report(cs: CombinatorialSummary) -> InvariantReport:
    """Aggregate every closed-form invariant with its cross-checks.

    The dicritic count is sum_j k_j, which is d because the direction
    classes partition the lines (the battery's `direction-partition`
    check holds a summary to that).  The Kaliman comparison reports
    dicritics - 1 against sum over fibers of (component count - 1): the
    zero fiber has d components and every other fiber is irreducible, so
    both sides equal d - 1.  The general fiber closure has Milnor number
    d_e(d_j - k_j) + d_j(k_j - 2) + 1 at the j-th point at infinity, over
    the arrangement's own weights; it is zero exactly at smooth points.
    """
    mu = mu_arrangement(cs)
    d_e = sum(cs.weights)
    d_js = cs.class_sums(cs.weights)
    dicritics = sum(g.count for g in cs.directions)
    lhs, rhs = numbers_identity(cs)
    return InvariantReport(
        mu=mu,
        chi_complement=mu,
        b1_fiber=betti1_general_fiber(cs),
        genus=genus_general_fiber(cs) if cs.is_unweighted else None,
        dicritics=dicritics,
        b1_complement=cs.d,
        kaliman_lhs=dicritics - 1,
        kaliman_rhs=cs.d - 1,
        numbers_identity_holds=lhs == rhs,
        infinity_mu=tuple(
            d_e * (d_j - g.count) + d_j * (g.count - 2) + 1 for g, d_j in zip(cs.directions, d_js)
        ),
    )
