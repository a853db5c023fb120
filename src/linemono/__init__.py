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
    Vertex,
    WeightedArrangement,
    compute_combinatorics,
    load_arrangement,
    parse_arrangement,
)
from .census import (
    DIRECTIONS,
    CensusRow,
    RunConfig,
    draw_arrangement,
    run_census,
    summarize,
)
from .checks import CheckResult, battery_passed, run_battery
from .errors import (
    BadGcd,
    BadMonodromy,
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
from .exact import GaussianRational, RootOfUnity
from .factored import (
    EXPAND_LIMIT,
    INDEX_LIMIT,
    CyclotomicExponents,
    FactoredUnityPoly,
    gcd_factored,
)
from .invariants import (
    InvariantReport,
    betti1_general_fiber,
    genus_general_fiber,
    infinity_singularity_mu,
    invariant_report,
    mu_arrangement,
    numbers_identity,
)
from .localsys import (
    BoundReport,
    LocalSystem,
    bound_from_summary,
    canonical_local_system,
    delta_f,
    h1_upper_bound,
)
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
    "BadMonodromy",
    "BadOrder",
    "BadResidues",
    "BadWeight",
    "BoundReport",
    "CensusRow",
    "CheckResult",
    "CombinatorialSummary",
    "CyclotomicExponents",
    "DIRECTIONS",
    "DirectionClass",
    "DuplicateLine",
    "EXPAND_LIMIT",
    "ExpandTooLarge",
    "FactoredUnityPoly",
    "GaussianRational",
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
    "RootOfUnity",
    "RunConfig",
    "TrivialMonodromy",
    "Vertex",
    "WeightedArrangement",
    "WeightedNotSupported",
    "ZetaFunction",
    "battery_passed",
    "betti1_general_fiber",
    "bound_from_summary",
    "canonical_local_system",
    "charpoly_infinity",
    "charpoly_zero_closed",
    "charpoly_zero_from_zeta",
    "compute_combinatorics",
    "delta_f",
    "draw_arrangement",
    "gcd_factored",
    "genus_general_fiber",
    "h1_upper_bound",
    "infinity_singularity_mu",
    "invariant_report",
    "load_arrangement",
    "local_zeta",
    "mu_arrangement",
    "numbers_identity",
    "parse_arrangement",
    "run_battery",
    "run_census",
    "strata",
    "summarize",
    "zeta_at_zero",
]
