"""Self-verification battery: the identities every valid arrangement satisfies.

Each check recomputes both sides of an identity through independent code
paths and compares exactly.  The battery takes a combinatorial summary:
it runs in the `verify` command, on every census draw, and (on a doctored
summary) as a negative control in the tests.

Characteristic polynomials are compared in factored form.  The (t^m - 1)
are multiplicatively independent and Moebius inversion maps exponent maps
one-to-one onto cyclotomic exponents, so equal merged factor maps mean
equal rational functions; no divisor is enumerated.  A check's detail
string is built only when the check fails, and then shows the cyclotomic
forms as before.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .arrangement import CombinatorialSummary
from .errors import InputError, InternalCheckError
from .factored import FactoredUnityPoly
from .invariants import (
    betti1_general_fiber,
    genus_general_fiber,
    mu_arrangement,
    numbers_identity,
)
from .monodromy import (
    charpoly_infinity,
    charpoly_zero_closed,
    charpoly_zero_from_zeta,
    zeta_at_zero,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"detail": self.detail, "name": self.name, "passed": self.passed}


def _check(name: str, passed: bool, detail: Callable[[], str]) -> CheckResult:
    """The check's result; `detail` is called only when it failed."""
    return CheckResult(name, True) if passed else CheckResult(name, False, detail())


def run_battery(cs: CombinatorialSummary) -> list[CheckResult]:
    """Run every identity check on the summary; a doctored one provokes failures."""
    return _battery(cs, charpoly_zero_closed(cs), partial(charpoly_infinity, cs))


def _battery(cs: CombinatorialSummary, d_zero, infinity: Callable) -> list[CheckResult]:
    """`run_battery` given the polynomial about zero, and `infinity()` building the other.

    A failure of `infinity()` is the check "charpoly-computable".  The census
    passes the pair it also reads its bounds from.
    """
    results: list[CheckResult] = []

    incidence = sum(cs.multiplicities) + 2 * cs.double_points
    by_lines = sum(cs.line_vertex_counts)
    by_hist = sum(m * n for m, n in cs.histogram.items())
    results.append(
        _check(
            "incidence-count",
            by_lines == incidence == by_hist,
            lambda: f"per-line {by_lines}, per-vertex {incidence}, histogram {by_hist}",
        )
    )

    members: list[int] = []
    for g in cs.directions:
        members.extend(g.members)
    results.append(
        _check(
            "direction-partition",
            sorted(members) == list(range(cs.d)),
            lambda: "direction classes do not partition the lines",
        )
    )

    try:
        d_inf = infinity()
        b1 = betti1_general_fiber(cs)
        results.append(
            _check(
                "degree-identity",
                d_zero.degree() == d_inf.degree() == b1,
                lambda: f"deg zero {d_zero.degree()}, deg infinity {d_inf.degree()}, b1 {b1}",
            )
        )
        results.append(
            _check(
                "charpoly-exponents-nonnegative",
                not d_zero.has_negative_exponent()
                and not d_inf.has_negative_exponent(),
                lambda: f"zero {d_zero}, infinity {d_inf}",
            )
        )
        mult_one = d_inf.root_multiplicity(1)
        results.append(
            _check(
                "root-one-multiplicity",
                mult_one == cs.d - 1,
                lambda: f"multiplicity of 1 at infinity is {mult_one}, expected {cs.d - 1}",
            )
        )
        via_zeta = charpoly_zero_from_zeta(zeta_at_zero(cs))
        results.append(
            _check(
                "zeta-agreement",
                via_zeta == d_zero,
                lambda: f"zeta route {via_zeta.to_cyclotomic()}, "
                f"closed form {d_zero.to_cyclotomic()}",
            )
        )
    except (InputError, InternalCheckError) as exc:
        results.append(CheckResult("charpoly-computable", False, str(exc)))

    lhs, rhs = numbers_identity(cs)
    results.append(
        _check("numbers-identity", lhs == rhs, lambda: f"vertex side {lhs}, direction side {rhs}")
    )

    mu = mu_arrangement(cs)
    # d - sum of (m_v - 1): a vertex glues m_v points of the lines into one
    chi_fiber_zero = cs.d - sum(cs.multiplicities) + len(cs.multiplicities) - cs.double_points
    results.append(
        _check(
            "euler-consistency",
            mu == 1 - chi_fiber_zero and mu >= 0,
            lambda: f"mu {mu} vs 1 - chi(zero fiber) {1 - chi_fiber_zero}",
        )
    )

    if cs.is_unweighted:
        reduced_form = FactoredUnityPoly(
            [(1, mu + sum(cs.histogram.values()))]
            + [(m, n * (m - 2)) for m, n in cs.histogram.items()]
        )
        results.append(
            _check(
                "unweighted-specialization",
                reduced_form == d_zero,
                lambda: f"vertex-histogram form {reduced_form}, line-vertex form {d_zero}",
            )
        )
        try:
            genus_general_fiber(cs)  # raises on a negative genus
            results.append(CheckResult("genus-nonnegative", True))
        except (InputError, InternalCheckError) as exc:
            results.append(CheckResult("genus-nonnegative", False, str(exc)))

    return results


def battery_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
