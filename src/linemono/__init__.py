"""Exact monodromy invariants of weighted affine line arrangements.

From the coefficients and integer multiplicities of an affine line
arrangement over the Gaussian rationals, compute (all in exact integer
arithmetic): the combinatorial summary, the closed-form topological
invariants, the characteristic polynomials of the monodromy of the
defining polynomial about the zero fiber and at infinity, the stratified
zeta function, and upper bounds on twisted first cohomology of the
complement with rank-one local-system coefficients.
"""

from .arrangement import (
    CombinatorialSummary,
    DirectionClass,
    Line,
    WeightedArrangement,
    compute_combinatorics,
    load_arrangement,
    parse_arrangement,
)
from .census import CensusRow, RunConfig, run_census, summarize
from .checks import CheckResult, battery_passed, run_battery
from .errors import (
    BadGcd,
    BadOrder,
    BadResidues,
    BadWeight,
    DuplicateLine,
    ExpandTooLarge,
    IndexTooLarge,
    InputError,
    InternalCheckError,
    LengthMismatch,
    NegativeExponent,
    NotEssential,
    NotPolynomial,
    ParseError,
    TrivialMonodromy,
    WeightedNotSupported,
)
from .factored import EXPAND_LIMIT, INDEX_LIMIT, CyclotomicExponents, FactoredUnityPoly
from .invariants import InvariantReport, invariant_report
from .localsys import BoundReport, LocalSystem, bound_from_summary, delta_f
from .monodromy import (
    ZetaFunction,
    charpoly_infinity,
    charpoly_zero_closed,
    charpoly_zero_from_zeta,
    local_zeta,
    strata,
    zeta_at_zero,
)

__version__ = "0.1.0"

__all__ = [
    "BadGcd",
    "BadOrder",
    "BadResidues",
    "BadWeight",
    "BoundReport",
    "CensusRow",
    "CheckResult",
    "CombinatorialSummary",
    "CyclotomicExponents",
    "DirectionClass",
    "DuplicateLine",
    "EXPAND_LIMIT",
    "ExpandTooLarge",
    "FactoredUnityPoly",
    "INDEX_LIMIT",
    "IndexTooLarge",
    "InputError",
    "InternalCheckError",
    "InvariantReport",
    "LengthMismatch",
    "Line",
    "LocalSystem",
    "NegativeExponent",
    "NotEssential",
    "NotPolynomial",
    "ParseError",
    "RunConfig",
    "TrivialMonodromy",
    "WeightedArrangement",
    "WeightedNotSupported",
    "ZetaFunction",
    "battery_passed",
    "bound_from_summary",
    "charpoly_infinity",
    "charpoly_zero_closed",
    "charpoly_zero_from_zeta",
    "compute_combinatorics",
    "delta_f",
    "invariant_report",
    "load_arrangement",
    "local_zeta",
    "parse_arrangement",
    "run_battery",
    "run_census",
    "strata",
    "summarize",
    "zeta_at_zero",
]
