"""Command-line front end.

Commands: info, charpoly, zeta, bound, verify, census.  Each is one
`cmd_*` function of its parsed options, with the file's summary `cs` in
place of its path, that returns the payload and exit code; `_run` parses,
builds the summary, runs the command and emits the payload for them all.
All output is UTF-8 JSON with lexicographically sorted keys, written by
one emitter, `_emit`, whose bytes equal those of
`json.dumps(payload, sort_keys=True, indent=2)`.  `info`'s vertex rows,
the one output that grows with the number of vertices, are appended
inside it by `_vertex_rows` as pieces, straight from the pair loop's dict
of the summary, so `_emit`'s one join writes them.  `census` writes its rows as JSON lines by `_emit_row`,
from one template per draw (`_row_template`).  Exit codes:
0 success (and --help), 1 invalid input, usage errors included (with a
machine-readable error object), 2 internal invariant violation or a
failed `verify` check, and EXIT_CLOSED_STDOUT when stdout is closed
before the output is written (a reader such as `head` exited), with
nothing on stderr.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from functools import cache, partial
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii

from .arrangement import CombinatorialSummary, compute_combinatorics, load_arrangement
from .census import CensusRow, RunConfig, run_census, summarize
from .checks import battery_passed, run_battery
from .errors import FileError, InputError, InternalCheckError, NumberTooLong, ParseError
from .exact import rational_text
from .invariants import invariant_report
from .localsys import LocalSystem, bound_from_summary
from .monodromy import charpoly_infinity, charpoly_zero_closed, zeta_at_zero

EXIT_CLOSED_STDOUT = 141
"""128 + SIGPIPE: the status a shell reports for a process that signal ended."""

Result = tuple[dict, int]  # a command's payload and exit code


_INDENT = "  "
# A `partial` leaf appends its own text; as a container, a dict holding one is walked, not encoded.
_CONTAINERS = frozenset((dict, list, tuple, partial))


@cache
def _encoder(item_separator: str, key_separator: str):
    """CPython's C JSON encoder with sorted keys for one pair of separators, built once.

    `json.dumps` builds a new encoder on every call, and with `indent` set
    it runs the pure-Python one.
    """
    # Positional: markers (no cycle check), default, string encoder, indent,
    # key_separator, item_separator, sort_keys, skipkeys, allow_nan.
    return c_make_encoder(
        None, JSONEncoder().default, encode_basestring_ascii, None,
        key_separator, item_separator, True, False, True,
    )


@cache
def _level(level: int) -> tuple:
    """The text around the items of a container nested `level` deep, and its encoder.

    The line break before the first item, the separator before each later
    one, the line break before the closing bracket, and the C encoder that
    writes a container of scalars with that separator between its items.
    """
    first = "\n" + _INDENT * (level + 1)
    return first, "," + first, "\n" + _INDENT * level, _encoder("," + first, ": ")


def _indented(value, level: int, out: list[str]) -> None:
    """Append `value`, nested `level` deep, to `out` as `json.dumps(indent=2)` writes it.

    A container that holds only scalars (or nothing) is written by one
    call of the C encoder; only containers that hold containers are walked
    here.  The payload is built of plain dicts with str keys, lists,
    tuples and scalars, and of `partial` writers (such as `_vertex_rows`
    for `info`), called with the level and `out` to append their own text.
    """
    kind = type(value)
    if kind is partial:
        value(level, out)
        return
    first, separator, close, encode = _level(level)
    items = value.values() if kind is dict else value
    if kind not in _CONTAINERS or _CONTAINERS.isdisjoint(map(type, items)):
        text = "".join(encode(value, level))
        if kind in _CONTAINERS and value:  # the encoder puts no newline inside the brackets
            out += (text[0], first, text[1:-1], close, text[-1])
        else:
            out.append(text)
        return
    lead = first
    if kind is dict:
        out.append("{")
        for key, item in sorted(value.items()):
            out += (lead, encode_basestring_ascii(key), ": ")
            _indented(item, level + 1, out)
            lead = separator
        out += (close, "}")
    else:
        out.append("[")
        for item in value:
            out.append(lead)
            _indented(item, level + 1, out)
            lead = separator
        out += (close, "]")


def _emit(payload: dict) -> None:
    """Print `payload` as `json.dumps(payload, sort_keys=True, indent=2)` writes it."""
    out: list[str] = []
    _indented(payload, 0, out)
    print("".join(out))


def _row_template(row: CensusRow) -> str:
    """The %-template of the rows of `row`'s draw, with the fields fixed for the draw encoded.

    A filled row's bytes equal `json.dumps(row.to_json(), sort_keys=True,
    separators=(",", ":"))`.
    """
    encode = _encoder(",", ":")
    histogram = {str(m): n for m, n in row.histogram.items()}  # sorted as text, as to_json's are
    fixed = {"d": row.d, "digest": row.digest, "histogram": histogram, "index": row.index}
    head = "".join(encode(fixed, 0))[1:-1]  # digits, signs, commas and slashes: no "%"
    tail = "".join(encode({"p": row.p, "seed": row.seed}, 0))[1:-1]
    return f'{{"N0":%d,"NInfinity":%d,"bound":%d,{head},"order":%d,{tail},"tighter":"%s"}}\n'


def _emit_row(template: str, row: CensusRow, stream) -> None:
    """Write one census row as a JSON line, through its draw's `_row_template`."""
    stream.write(template % (row.n0, row.n_infinity, row.bound, row.order, row.tighter))


def _vertex_rows(cs: CombinatorialSummary, level: int, out: list[str]) -> None:
    """Append `info`'s "vertices" of `cs`, nested `level` deep, to `out` as `_indented` writes them.

    Written straight from the pair loop's dict, in vertex order
    (`cs.vertex_keys`): a double point's pair, smaller line first, or the
    sorted lines of a multiple point's set (a frozenset once
    `cs.vertex_table` is read).  Every row has the same four keys, so a
    row is appended as pieces: the constant texts between its values, and
    the texts of its lines, m, point and d(I_v).  A line index's or a
    coordinate's text, which many vertices share, is written once per call.
    """
    first, separator, close, _ = _level(level)
    key_first, key_separator, key_close, _ = _level(level + 1)
    item_first, item_separator, item_close, _ = _level(level + 2)
    part_first, part_separator, part_close, _ = _level(level + 3)
    head = f'{{{key_first}"incident": [{item_first}'
    multiplicity = f'{item_close}]{key_separator}"multiplicity": '
    point = f'{key_separator}"point": [{item_first}'
    weight_sum = f'{item_close}]{key_separator}"weightSum": '
    non_real = f'{{{part_first}"im": "%s"{part_separator}"re": "%s"{part_close}}}'
    names = list(map(str, range(cs.d)))
    weights = cs.weights

    @cache
    def coordinate(re: int, im: int, n: int) -> str:
        if im == 0:
            return f'"{rational_text(re, n)}"'
        return non_real % (rational_text(im, n), rational_text(re, n))

    points = cs._points
    end = key_close + "}"
    lead, between = "[" + first + head, end + separator + head
    for key in cs.vertex_keys():
        incident = points[key]
        if type(incident) is tuple:  # a double point's pair, in the order the loop met it
            i, j = incident if incident[0] < incident[1] else incident[::-1]
            out += (lead, names[i], item_separator, names[j], multiplicity, "2")
            d_v = weights[i] + weights[j]
        else:
            lines = sorted(incident)
            text = item_separator.join([names[i] for i in lines])
            out += (lead, text, multiplicity, str(len(lines)))
            d_v = sum(map(weights.__getitem__, lines))
        x_re, x_im, y_re, y_im, n = key
        out += (
            point, coordinate(x_re, x_im, n), item_separator, coordinate(y_re, y_im, n),
            weight_sum, str(d_v),
        )
        lead = between
    out.append(end + close + "]")


def cmd_info(cs: CombinatorialSummary) -> Result:
    report = invariant_report(cs)
    if not report.numbers_identity_holds:
        raise InternalCheckError("numerical-data identity failed")
    payload = report.to_json()
    payload["combinatorics"] = cs.json_without_vertices() | {
        "vertices": partial(_vertex_rows, cs)
    }
    return payload, 0


def cmd_charpoly(cs: CombinatorialSummary, at: str, expand: bool) -> Result:
    poly = charpoly_infinity(cs) if at == "infinity" else charpoly_zero_closed(cs)
    payload: dict = {"at": at, "degree": poly.degree(), "factors": poly.to_json()}
    if expand:
        payload["coefficients"] = poly.expand()
    return payload, 0


def cmd_zeta(cs: CombinatorialSummary) -> Result:
    return zeta_at_zero(cs).to_json(), 0


def cmd_bound(cs: CombinatorialSummary, order: int, residues: list[int] | None) -> Result:
    ls = LocalSystem.create(order, residues if residues else [1] * cs.d)
    report = bound_from_summary(cs, ls)  # raises unless every monodromy is nontrivial
    if ls.residues_gcd > 1:
        print(
            f"note: residues share the factor {ls.residues_gcd} "
            f"(order {ls.order} is still minimal)",
            file=sys.stderr,
        )
    return report.to_json(), 0


def cmd_verify(cs: CombinatorialSummary) -> Result:
    """Run the identity battery; exit 2 when a check fails."""
    results = run_battery(cs)
    passed = battery_passed(results)
    return {"allPassed": passed, "checks": [r.to_json() for r in results]}, 0 if passed else 2


def cmd_census(seed: int, count: int, max_lines: int, max_order: int, out: str | None) -> Result:
    """Stream the rows to `out` (default stdout); the payload is the summary."""
    config = RunConfig(seed=seed, count=count, max_lines=max_lines, max_order=max_order)

    def written(stream):
        chunk = io.StringIO()
        for row in run_census(config):
            if row.order == 2:  # a draw's first row
                template = _row_template(row)
            _emit_row(template, row, chunk)
            if row.order == config.max_order:  # an arrangement's rows go out in one write
                stream.write(chunk.getvalue())
                chunk = io.StringIO()
            yield row

    if out is None:
        return summarize(config, written(sys.stdout)), 0
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as stream:
            return summarize(config, written(stream)), 0
    except OSError as exc:
        raise FileError(str(exc)) from exc


def _integer(option: str):
    """Option parser whose failure is a ParseError, not an argparse exit 2."""

    def parse(text: str) -> int:
        try:
            return int(text)
        except ValueError as exc:
            raise ParseError(f"{option} must be an integer, got {text!r}") from exc

    return parse


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ParseErrors (exit 1), not exit 2."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every call."""
    parser = _Parser(
        prog="linemono",
        description="Exact monodromy invariants of weighted affine line arrangements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="combinatorial summary and closed-form invariants")
    p.set_defaults(run=cmd_info)
    p.add_argument("file")

    p = sub.add_parser("charpoly", help="characteristic polynomial of the monodromy")
    p.set_defaults(run=cmd_charpoly)
    p.add_argument("file")
    p.add_argument("--at", choices=("zero", "infinity"), required=True)
    p.add_argument("--expand", action="store_true", help="also emit dense coefficients")

    p = sub.add_parser("zeta", help="stratified zeta function about the zero fiber")
    p.set_defaults(run=cmd_zeta)
    p.add_argument("file")

    p = sub.add_parser("bound", help="upper bound for twisted first cohomology")
    p.set_defaults(run=cmd_bound)
    p.add_argument("file")
    p.add_argument(
        "--order", type=_integer("--order"), required=True, help="order N of the eigenvalue"
    )
    p.add_argument(
        "--residues",
        help="comma-separated residues e_1,...,e_d (default: all ones)",
    )

    p = sub.add_parser("verify", help="run the identity battery on a file")
    p.set_defaults(run=cmd_verify)
    p.add_argument("file")

    p = sub.add_parser("census", help="randomized bound-comparison census")
    p.set_defaults(run=cmd_census)
    p.add_argument("--seed", type=_integer("--seed"), default=1)
    p.add_argument("--count", type=_integer("--count"), default=200)
    p.add_argument("--max-lines", type=_integer("--max-lines"), default=RunConfig.max_lines)
    p.add_argument("--max-order", type=_integer("--max-order"), default=RunConfig.max_order)
    p.add_argument("--out", default=None, help="JSONL output path (default: stdout)")

    return parser


def _join_residues(argv: list[str]) -> list[str]:
    """`--residues VALUE` (or `--res VALUE`) as one token: argparse reads -1,1,1 as an option."""
    out: list[str] = []
    for arg in argv:
        if out and len(out[-1]) > 2 and "--residues".startswith(out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_residues(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad residue list {text!r}") from exc


def _discard_stdout() -> None:
    """Point stdout at the null device, so the final flush at exit cannot fail."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a file descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_CLOSED_STDOUT
    return code


def _run(argv: list[str] | None) -> int:
    """Parse, build the summary of the command's file, run the command, emit its payload."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        options = vars(build_parser().parse_args(_join_residues(argv)))
        del options["command"]
        run = options.pop("run")
        if options.get("residues") is not None:  # checked before the file is read
            options["residues"] = _parse_residues(options["residues"])
        if "file" in options:
            options["cs"] = compute_combinatorics(load_arrangement(options.pop("file")))
        payload, code = run(**options)
        _emit(payload)
        return code
    except (InputError, InternalCheckError) as exc:
        error = exc
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # CPython's int-to-text digit limit
            raise
        limit = sys.get_int_max_str_digits()
        error = NumberTooLong(f"a number to be written out has more than {limit} digits")
    _emit({"error": type(error).__name__, "message": str(error)})
    return 2 if isinstance(error, InternalCheckError) else 1


if __name__ == "__main__":
    sys.exit(main())
