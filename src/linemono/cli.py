"""Command-line front end.

Commands: info, charpoly, zeta, bound, verify, census.  All output is
UTF-8 JSON with lexicographically sorted keys.  Exit codes: 0 success,
1 invalid input (with a machine-readable error object), 2 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arrangement import compute_combinatorics, load_arrangement
from .census import CensusRow, RunConfig, run_census, summarize
from .checks import battery_passed, run_battery
from .errors import InputError, InternalCheckError, ParseError
from .invariants import invariant_report
from .localsys import LocalSystem, h1_upper_bound
from .monodromy import charpoly_infinity, charpoly_zero_closed, zeta_at_zero


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _emit_row(payload: dict, stream) -> None:
    stream.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def cmd_info(path: str) -> int:
    cs = compute_combinatorics(load_arrangement(path))
    report = invariant_report(cs)
    if not report.numbers_identity_holds:
        raise InternalCheckError("numerical-data identity failed")
    payload = report.to_json()
    payload["combinatorics"] = cs.to_json()
    _emit(payload)
    return 0


def cmd_charpoly(path: str, at: str, expand: bool) -> int:
    cs = compute_combinatorics(load_arrangement(path))
    poly = charpoly_infinity(cs) if at == "infinity" else charpoly_zero_closed(cs)
    payload: dict = {"at": at, "degree": poly.degree(), "factors": poly.to_json()}
    if expand:
        payload["coefficients"] = poly.expand()
    _emit(payload)
    return 0


def cmd_zeta(path: str) -> int:
    _emit(zeta_at_zero(compute_combinatorics(load_arrangement(path))).to_json())
    return 0


def cmd_bound(path: str, order: int, residues: list[int] | None) -> int:
    arr = load_arrangement(path)
    ls = LocalSystem.create(order, residues if residues else [1] * arr.d)
    if not ls.has_trivial and ls.residues_gcd > 1:
        print(
            f"note: residues share the factor {ls.residues_gcd} "
            f"(order {ls.order} is still minimal)",
            file=sys.stderr,
        )
    _emit(h1_upper_bound(arr, ls).to_json())
    return 0


def cmd_verify(path: str, summary_hook=None) -> int:
    """Run the identity battery; summary_hook is a test-only summary doctor."""
    summary = compute_combinatorics(load_arrangement(path))
    if summary_hook is not None:
        summary = summary_hook(summary)
    results = run_battery(summary)
    _emit(
        {
            "allPassed": battery_passed(results),
            "checks": [r.to_json() for r in results],
        }
    )
    return 0 if battery_passed(results) else 2


def cmd_census(seed: int, count: int, max_lines: int, max_order: int, out: str | None) -> int:
    config = RunConfig(seed=seed, count=count, max_lines=max_lines, max_order=max_order)
    rows: list[CensusRow] = []
    if out is None:
        for row in run_census(config):
            rows.append(row)
            _emit_row(row.to_json(), sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as stream:
            for row in run_census(config):
                rows.append(row)
                _emit_row(row.to_json(), stream)
    _emit(summarize(config, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linemono",
        description="Exact monodromy invariants of weighted affine line arrangements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="combinatorial summary and closed-form invariants")
    p.add_argument("file")

    p = sub.add_parser("charpoly", help="characteristic polynomial of the monodromy")
    p.add_argument("file")
    p.add_argument("--at", choices=("zero", "infinity"), required=True)
    p.add_argument("--expand", action="store_true", help="also emit dense coefficients")

    p = sub.add_parser("zeta", help="stratified zeta function about the zero fiber")
    p.add_argument("file")

    p = sub.add_parser("bound", help="upper bound for twisted first cohomology")
    p.add_argument("file")
    p.add_argument("--order", type=int, required=True, help="order N of the eigenvalue")
    p.add_argument(
        "--residues",
        help="comma-separated residues e_1,...,e_d (default: all ones)",
    )

    p = sub.add_parser("verify", help="run the identity battery on a file")
    p.add_argument("file")

    p = sub.add_parser("census", help="randomized bound-comparison census")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-lines", type=int, default=8, dest="max_lines")
    p.add_argument("--max-order", type=int, default=6, dest="max_order")
    p.add_argument("--out", default=None, help="JSONL output path (default: stdout)")

    return parser


def _parse_residues(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad residue list {text!r}") from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "info":
            return cmd_info(args.file)
        if args.command == "charpoly":
            return cmd_charpoly(args.file, args.at, args.expand)
        if args.command == "zeta":
            return cmd_zeta(args.file)
        if args.command == "bound":
            return cmd_bound(args.file, args.order, _parse_residues(args.residues))
        if args.command == "verify":
            return cmd_verify(args.file)
        if args.command == "census":
            return cmd_census(
                args.seed, args.count, args.max_lines, args.max_order, args.out
            )
        raise AssertionError(f"unhandled command {args.command}")
    except InputError as exc:
        _emit({"error": exc.code, "message": str(exc)})
        return 1
    except InternalCheckError as exc:
        _emit({"error": "InternalCheckError", "message": str(exc)})
        return 2
    except (OSError, ValueError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
