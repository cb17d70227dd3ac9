"""Command line interface.

Five subcommands: ``count``, ``enumerate``, ``hooks``, ``verify``, and
``series``.  Verification reports serialize to text, json (an array of
objects matching ``REPORT_SCHEMA``), or csv with the same columns.  One
emitter writes the json and csv of ``hooks``, ``verify`` and ``series``
from rows and a column list; only the text layouts differ.  Output
is byte-identical across repeated runs with the same flags, including runs
that parallelize internally; pass ``--timing`` to trade that reproducibility
for wall-clock numbers in the ``elapsed_ms`` field.

Polynomials print as exact rational coefficient lists, lowest degree
first, in json and csv, and human-readable like ``(5/2)x^2 - (1/2)x`` in
text mode; a series check's tuple of Polys prints as one such list per
series coefficient.  Position sets are comma-separated 1-based positions; the
``verify --S all`` form expands to every subset of [1..m], or to [1..m]
alone for a family that only takes the full set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from itertools import islice, repeat

from .algebra import Poly, closed_phi, solve_phi
from .hooks import first_kind_hooks, second_kind_hooks, standard_hooks
from .identities import (
    FAMILIES,
    FAMILY_TABLE,
    VerificationReport,
    _grid,
    all_position_subsets,
    verify_suite,
)
from .trees import DecodeError, count_trees, decode, enumerate_trees

_COEFFICIENTS = {"type": "array", "items": {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}}
# A value is one coefficient list, one per series coefficient of a tuple of Polys, or null if none.
_VALUE = {"anyOf": [_COEFFICIENTS, {"type": "array", "items": _COEFFICIENTS}, {"type": "null"}]}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {"type": "string"},
        "m": {"type": ["integer", "null"]},
        "n": {"type": "integer"},
        "S": {"type": ["array", "null"], "items": {"type": "integer"}},
        "pass": {"type": "boolean"},
        "lhs": _VALUE,
        "rhs": _VALUE,
        "trees_visited": {"type": "integer"},
        "elapsed_ms": {"type": "number"},
    },
    "required": ["family", "m", "n", "S", "pass", "lhs", "rhs", "trees_visited", "elapsed_ms"],
    "additionalProperties": False,
}


def coefficient_strings(value: Poly | Fraction | tuple | None) -> list | None:
    """A Poly or Fraction as exact coefficient strings, lowest degree first, a Poly's
    read off its pair; a tuple of Polys as one such list per Poly; None (no value) as None."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return [coefficient_strings(p) for p in value]
    if isinstance(value, Fraction):
        return [str(value)]
    d, nums = value.pair
    gcds = map(math.gcd, nums, repeat(d))
    return [f"{c // g}/{d // g}" if g < d else str(c // g) for c, g in zip(nums, gcds)]


def report_to_dict(report: VerificationReport, timing: bool = False) -> dict:
    """One report as a json-ready dict matching ``REPORT_SCHEMA``."""
    spec = report.spec
    return {
        "family": spec.family,
        "m": spec.m,
        "n": spec.n,
        "S": sorted(spec.S) if spec.S is not None else None,
        "pass": report.passed,
        "lhs": coefficient_strings(report.lhs),
        "rhs": coefficient_strings(report.rhs),
        "trees_visited": report.trees_visited,
        "elapsed_ms": round(report.elapsed * 1000.0, 3) if timing else 0,
    }


def _cell(value):
    """One csv cell: positions joined by ",", coefficients by a space, series coefficients by ";"."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return ";".join(map(_cell, value))
        return ("," if value and isinstance(value[0], int) else " ").join(map(str, value))
    return value


def _emit(rows: list[dict], columns: list[str], fmt: str, text_lines, doc=None) -> str:
    """Rows as json (``doc`` in their place if given), csv, or the text lines,
    which are read only for text so that json and csv never build them."""
    if fmt == "json":
        return json.dumps(doc or rows, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(row[col]) for col in columns] for row in rows)
        return buf.getvalue()
    return "".join(line + "\n" for line in text_lines)


def _text(value) -> str:
    """A report value in text: "-" for None, a tuple of Polys as [P_0, P_1, ...]."""
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


def _report_lines(reports, rows):
    for report, row in zip(reports, rows):
        verdict = "PASS" if row["pass"] else "FAIL"
        s_text = "{" + ",".join(str(p) for p in row["S"]) + "}" if row["S"] is not None else "-"
        lhs, rhs = _text(report.lhs), _text(report.rhs)
        line = (
            f"{verdict} {row['family']} m={row['m'] if row['m'] is not None else '-'} "
            f"n={row['n']} S={s_text} trees={row['trees_visited']} lhs={lhs} rhs={rhs}"
        )
        if report.note:
            line += f" note={report.note}"
        yield line
    passed = sum(1 for row in rows if row["pass"])
    yield f"{passed}/{len(rows)} passed"


def render_reports(reports, fmt: str, timing: bool = False) -> str:
    """Render verification reports as text, json, or csv."""
    rows = [report_to_dict(r, timing) for r in reports]
    return _emit(rows, REPORT_SCHEMA["required"], fmt, _report_lines(reports, rows))


def _parse_positions(text: str) -> frozenset[int]:
    try:
        parts = [int(part) for part in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad position list {text!r}")
    if len(set(parts)) < len(parts):
        raise argparse.ArgumentTypeError(f"repeated position in {text!r}")
    return frozenset(parts)


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hooktrees",
        description="Exact hook-length statistics and identity verification "
        "on complete m-ary trees and plane forests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count complete m-ary trees")
    p.add_argument("--arity", type=_at_least(2), required=True, help="arity m >= 2")
    p.add_argument("--internal", type=_at_least(0), required=True, help="internal vertex count n >= 0")

    p = sub.add_parser("enumerate", help="stream preorder codes in canonical order")
    p.add_argument("--arity", type=_at_least(2), required=True)
    p.add_argument("--internal", type=_at_least(0), required=True)
    p.add_argument("--limit", type=_at_least(0), help="stop after this many trees")

    p = sub.add_parser("hooks", help="per-vertex hook statistics of one tree")
    p.add_argument("--arity", type=_at_least(2), required=True)
    p.add_argument("--code", type=str, required=True, help="preorder 0/1 code")
    p.add_argument("--S", type=_parse_positions, help="pruned positions, e.g. 1,2")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("verify", help="verify an identity family over a grid")
    p.add_argument("--family", type=str, required=True, choices=FAMILIES)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n-max", type=_at_least(0), required=True)
    p.add_argument("--S", type=lambda t: t if t == "all" else _parse_positions(t), help="1,2 or 'all'")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")
    p.add_argument("--timing", action="store_true", help="include wall-clock elapsed_ms")

    p = sub.add_parser("series", help="solve a series recurrence and compare closed forms")
    p.add_argument("--solver", choices=("omega", "phi"), required=True)
    p.add_argument("--a", type=_at_least(1), required=True)
    p.add_argument("--b", type=_at_least(1), required=True)
    p.add_argument("--s", type=_at_least(0), help="composition power (phi only)")
    p.add_argument("--order", type=_at_least(0), required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    return parser


def _cmd_count(args, parser) -> int:
    # The exact count is the whole output, so the interpreter's cap on the
    # digits of an int -> str conversion (4,300 by default) is lifted for it.
    count = count_trees(args.arity, args.internal)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = str(count)
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)
    return 0


def _cmd_enumerate(args, parser) -> int:
    try:
        for tree in islice(enumerate_trees(args.arity, args.internal), args.limit):
            print(tree.encode())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_hooks(args, parser) -> int:
    try:
        tree = decode(args.code, args.arity)
    except DecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        hbb = second_kind_hooks(tree, args.S) if args.S is not None else None
    except ValueError as exc:
        parser.error(str(exc))
    # The hooks come in preorder over internal vertices, and the code is the
    # preorder over all vertices, so each vertex's index is where its '1' is.
    indices = [pos for pos, ch in enumerate(args.code) if ch == "1"]
    columns = ["index", "h", "hcal"]
    values = [indices, standard_hooks(tree), first_kind_hooks(tree)]
    if hbb is not None:
        columns.append("hbb")
        values.append(hbb)
    rows = [dict(zip(columns, vertex)) for vertex in zip(*values)]
    s_list = sorted(args.S) if args.S is not None else None
    doc = {"arity": args.arity, "code": args.code, "S": s_list, "vertices": rows}
    # The title row goes through the same right-aligned layout as the values.
    titles = dict(zip(columns, ["index", "h", "hcal", f"hbb{{{_cell(s_list)}}}"]))
    lines = (
        f"{row['index']:>5} {row['h']:>4} {row['hcal']:>5}"
        + (f"  {row['hbb']}" if "hbb" in row else "")
        for row in [titles, *rows]
    )
    sys.stdout.write(_emit(rows, columns, args.format, lines, doc))
    return 0


def _cmd_verify(args, parser) -> int:
    family = args.family
    row = FAMILY_TABLE[family]
    if row.min_m is None:
        if args.m is not None:
            parser.error(f"--m is not accepted by family {family}")
    elif args.m is None:
        parser.error(f"--family {family} requires --m")
    if args.n_max < row.min_n:
        parser.error(f"--n-max {args.n_max} is below min_n = {row.min_n} of family {family}")

    subsets: list[frozenset[int] | None] = [None]
    if args.S is not None:
        if row.S == "none":
            parser.error(f"--S is not accepted by family {family}")
        if args.S == "all" and row.S == "full":
            subsets = [frozenset(range(1, args.m + 1))]
        elif args.S == "all":
            subsets = all_position_subsets(args.m)
        else:
            subsets = [args.S]

    grid = _grid((family,), (args.m,), lambda m: range(row.min_n, args.n_max + 1), lambda m: subsets)
    result = verify_suite(grid, jobs=args.jobs)
    sys.stdout.write(render_reports(result.reports, args.format, timing=args.timing))
    return 0 if result.all_passed else 1


def _cmd_series(args, parser) -> int:
    if args.solver == "omega" and args.s is not None:
        parser.error("--s is only accepted by the phi solver")
    s = args.s or 0  # omega is phi with s = 0
    series = solve_phi(args.a, args.b, s, args.order)

    rows = []
    for n in range(args.order + 1):
        expected = Poly([1]) if n == 0 else closed_phi(args.a, args.b, s, n)
        rows.append(
            {
                "n": n,
                "coefficients": coefficient_strings(series.coeffs[n]),
                "closed_form": coefficient_strings(expected),
                "match": series.coeffs[n] == expected,
            }
        )
    lines = (f"t^{row['n']}: {series.coeffs[row['n']]}  match={row['match']}" for row in rows)
    columns = ["n", "coefficients", "closed_form", "match"]
    sys.stdout.write(_emit(rows, columns, args.format, lines))
    return 0 if all(row["match"] for row in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "enumerate": _cmd_enumerate,
        "hooks": _cmd_hooks,
        "verify": _cmd_verify,
        "series": _cmd_series,
    }
    return handlers[args.command](args, parser)


if __name__ == "__main__":
    sys.exit(main())
