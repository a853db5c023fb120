"""Output checks: every command's stdout is checked against facts the
generator knows or that the output must satisfy on its own.

`check_command` returns None for a correct grid or expand command and a
one-line reason otherwise.  `check_census` splits a census command into
its arrangements and returns one (end offset, reason) pair per
arrangement, so that each arrangement counts as one op.
"""

from __future__ import annotations

import json
from fractions import Fraction

CENSUS_MAX_ORDER = 6  # the CLI default, which the census workload keeps


def factored_degree(factors: dict) -> int:
    return sum(int(m) * c for m, c in factors.items())


def factored_value(factors: dict, t: int) -> Fraction:
    """prod (t^m - 1)^c_m, exactly."""
    value = Fraction(1)
    for m, c in factors.items():
        value *= Fraction(t ** int(m) - 1) ** c
    return value


def dense_value(coefficients: list, t: int) -> int:
    value = 0
    for c in reversed(coefficients):
        value = value * t + c
    return value


def _charpoly_reason(out: dict, expect: dict, expanded: bool) -> str | None:
    b1 = expect["b1"]
    if out["degree"] != b1 or factored_degree(out["factors"]) != b1:
        return f"degree {out['degree']} != b1Fiber {b1}"
    if not expanded:
        return None
    coefficients = out["coefficients"]
    if len(coefficients) != b1 + 1 or not all(type(c) is int for c in coefficients):
        return f"{len(coefficients)} coefficients for degree {b1}"
    for t in (2, 3):
        if dense_value(coefficients, t) != factored_value(out["factors"], t):
            return f"expanded coefficients disagree with the factors at t={t}"
    return None


def _reason(argv: tuple, expect: dict, out: dict) -> str | None:
    kind = argv[0]
    if kind == "verify":
        return None if out["allPassed"] is True else "verify: allPassed is not true"
    if kind == "info":
        if out["numbersIdentityHolds"] is not True:
            return "info: numbersIdentityHolds is not true"
        if out["b1Fiber"] != expect["b1"] or out["combinatorics"]["d"] != expect["d"]:
            return "info: b1Fiber or d differs from the generated arrangement"
        return None
    if kind == "charpoly":
        return _charpoly_reason(out, expect, "--expand" in argv)
    if kind == "zeta":
        # (1 - t)/Z is the zero-fiber charpoly, whose degree is b1Fiber.
        degree = 1 - factored_degree(out["numerator"]) + factored_degree(out["denominator"])
        return None if degree == expect["b1"] else f"zeta: implied degree {degree}"
    if kind == "bound":
        if out["a"] != {"k": 1, "order": expect["order"]}:
            return f"bound: eigenvalue {out['a']}"
        if out["bound"] != min(out["N0"], out["NInfinity"]) or out["vertexSumZero"] != out["N0"]:
            return "bound: bound is not min(N0, NInfinity)"
        return None
    return f"no check for command {kind}"


def check_command(argv: tuple, expect: dict, rc, text: str) -> str | None:
    """None when a grid or expand command's output is correct."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _reason(argv, expect, json.loads(text))
    except ValueError:
        return "stdout is not JSON"
    except (KeyError, TypeError, AttributeError) as exc:
        return f"output lacks {exc!r}"


def _census_row_reason(row: dict, seed: int, index: int, order: int) -> str | None:
    if (row["seed"], row["index"], row["order"]) != (seed, index, order):
        return f"row out of sequence: {row['seed']}/{row['index']}/{row['order']}"
    if row["bound"] != min(row["N0"], row["NInfinity"]):
        return "bound is not min(N0, NInfinity)"
    tighter = (
        "zero" if row["N0"] < row["NInfinity"]
        else "infinity" if row["NInfinity"] < row["N0"]
        else "tie"
    )
    if row["tighter"] != tighter:
        return f"tighter is {row['tighter']}, expected {tighter}"
    if row["d"] != len(row["digest"]) or not 3 <= row["d"] <= 8:
        return "d does not match the line digest"
    return None


def check_census(expect: dict, rc, text: str) -> list[tuple[int, str | None]]:
    """(end offset of the arrangement's last row, reason) per arrangement.

    A nonzero exit or an unreadable summary fails every arrangement of the
    command; a bad row fails its own arrangement.
    """
    count, seed = expect["count"], expect["seed"]
    orders = range(2, CENSUS_MAX_ORDER + 1)
    per_row = len(orders)
    if rc != 0:
        return [(len(text), f"exit code {rc}")] * count
    lines = text.split("\n")
    offsets, end = [], 0
    for line in lines:
        end += len(line) + 1
        offsets.append(end)
    try:
        summary = json.loads("\n".join(lines[count * per_row :]))
        rows = [json.loads(line) for line in lines[: count * per_row]]
    except ValueError:
        return [(len(text), "census output is not JSON")] * count
    tallies = {"infinity": 0, "zero": 0, "tie": 0}
    result = []
    try:
        for index in range(count):
            reason = None
            for k, order in enumerate(orders):
                row = rows[index * per_row + k]
                reason = reason or _census_row_reason(row, seed, index, order)
                tallies[row["tighter"]] = tallies.get(row["tighter"], 0) + 1
            result.append((offsets[index * per_row + per_row - 1], reason))
        expected_summary = {
            "arrangements": count,
            "maxLines": 8,
            "maxOrder": CENSUS_MAX_ORDER,
            "rows": count * per_row,
            "seed": seed,
            "tighterInfinity": tallies["infinity"],
            "tighterZero": tallies["zero"],
            "ties": tallies["tie"],
        }
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [(len(text), f"census row lacks {exc!r}")] * count
    if summary != expected_summary:
        return [(offset, "summary counts do not match the rows") for offset, _ in result]
    return result
