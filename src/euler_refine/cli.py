"""Command-line front end: tables, verification, ratios, export, bijection checks.

Exit codes: 0 on success (all checks passing), 1 when a verification
fails, 2 on usage or I/O errors, reported on one line without a
traceback.  All output is deterministic for fixed flags;
big integers are rendered as decimal strings in JSON and CSV so no
consumer ever sees a rounded value.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, TextIO

from . import seq, series
from .report import VerifyReport, render_csv, render_json, render_text_table, report_formats
from .verify import DOWN_UP, SEQUENCES, bijection_checks, run_verification

if TYPE_CHECKING:
    from fractions import Fraction

    from .report import CountTable

# verify and table count by merged prefix rows, one sweep per set of used
# values (2^n of them, not E_n leaves); bijection-check lists every
# permutation, and E_12 is 2.7 million of them.
DEFAULT_ENUM_CAP = 15
BIJECTION_ENUM_CAP = 11
FORMULA_CAP = 200


class CliError(Exception):
    """Usage-level error; rendered to stderr with exit status 2."""


def _check_max_n(max_n: int, cap: Optional[int] = None, formula: bool = False,
                 floor: str = "--max-n must be at least 2") -> None:
    """Reject --max-n below 2 with the message `floor` (unless empty),
    above the enumeration cap `cap` (unless None) and, with `formula`,
    above the formula cap."""
    if floor and max_n < 2:
        raise CliError(floor)
    if cap is not None and max_n > cap:
        raise CliError(
            f"--max-n {max_n} exceeds the enumeration cap {cap}; raise it with --cap")
    if formula and max_n > FORMULA_CAP:
        raise CliError(f"--max-n {max_n} exceeds the formula cap {FORMULA_CAP}")


def _emit(args: argparse.Namespace, **writers: Callable[[TextIO], object]) -> None:
    """Run the writer that --format names, and no other, on stdout or the file --out.

    A new or regular file is replaced atomically through a temporary file
    beside it, removed on any error, so `out` never holds partial output.
    Anything else, such as a symlink or /dev/stdout, is written in place,
    as a rename would replace the link or device node itself.
    """
    write, out = writers[args.format], args.out
    if not out:
        write(sys.stdout)
        return
    try:
        mode = os.lstat(out).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out, "w", encoding="utf-8") as fh:
            write(fh)
        return
    directory, name = os.path.split(out)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the user's path, not the temporary one
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with fh:
            if mode is not None:  # the replaced file keeps its permissions
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            write(fh)
        os.replace(tmp, out)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------- table

def cmd_table(args: argparse.Namespace) -> int:
    max_n = args.max_n
    names = [name for name in SEQUENCES if args.populations == "both" or name not in DOWN_UP]
    needs_enum = args.method in ("enum", "all")
    _check_max_n(max_n, args.cap if needs_enum else None, formula=True)

    ns = range(2, max_n + 1)
    ee = seq.euler_numbers(max_n) if args.method in ("formula", "all") else None
    tables: list[CountTable] = []
    if needs_enum:  # only the enumerating methods load the enumeration
        from . import perm

        tables = [perm.count_refinements(n) for n in ns]
    routes = {
        "formula": lambda s: [s.formula(ee, n) for n in ns],
        "egf": lambda s: series.extract_counts(s.series(max_n - s.offset))[
            2 - s.offset:],
        "enum": lambda s: [getattr(t, s.field) for t in tables],
    }
    label, route = ("enum=formula=egf", "formula") if args.method == "all" else (args.method,) * 2
    columns: dict[str, list[int]] = {}
    for name in names:
        spec = SEQUENCES[name]
        columns[name] = routes[route](spec)
        if args.method == "all":  # all three routes must agree
            for n, f, g, e in zip(ns, columns[name], routes["egf"](spec), routes["enum"](spec)):
                if not f == g == e:
                    print(f"error: route disagreement for {name} at n={n}: "
                          f"formula {f}, egf {g}, enum {e}", file=sys.stderr)
                    return 1

    headers = ["n"] + [f"{name}({label})" for name in names]
    rows = [[str(n)] + [str(columns[name][i]) for name in names] for i, n in enumerate(ns)]
    _emit(
        args,
        json=lambda fh: render_json({
            "methods": dict.fromkeys(names, label),
            "rows": [{"n": n, **{name: str(columns[name][i]) for name in names}}
                     for i, n in enumerate(ns)],
        }, fh),
        csv=lambda fh: render_csv(headers, rows, fh),
        table=lambda fh: fh.write(render_text_table(headers, rows)),
    )
    return 0


# ---------------------------------------------------------------- verify

def _emit_reports(reports: list[VerifyReport], args: argparse.Namespace) -> int:
    """Emit the reports; the exit status is 0 when all of them pass, else 1."""
    _emit(args, **report_formats(reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    _check_max_n(args.max_n, args.cap)
    if args.egf_order < 2:
        raise CliError("--egf-order must be at least 2")
    if args.egf_order > FORMULA_CAP - 2:
        raise CliError(
            f"--egf-order {args.egf_order} exceeds {FORMULA_CAP - 2}: its series checks "
            f"reach degree {args.egf_order + 2}, above the formula cap {FORMULA_CAP}"
        )
    return _emit_reports(run_verification(args.max_n, args.egf_order), args)


# ---------------------------------------------------------------- ratios

class RatioRow(NamedTuple):
    n: int
    nw_over_ne: Fraction
    down_over_up: Optional[Fraction]


def ratios_data(max_n: int) -> list[RatioRow]:
    from fractions import Fraction

    ee = seq.euler_numbers(max_n)
    rows = []
    for n in range(2, max_n + 1):
        ene, enw, eup, edown = (
            SEQUENCES[name].formula(ee, n) for name in ("Ene", "Enw", "Eup", "Edown")
        )
        rows.append(RatioRow(n, Fraction(enw, ene), Fraction(edown, eup) if eup else None))
    return rows


def minmax_deviation_nonincreasing(rows: list[RatioRow]) -> bool:
    """Whether |nw/ne - 1| never increases along even degrees >= 4."""
    deviations = [abs(r.nw_over_ne - 1) for r in rows if r.n % 2 == 0 and r.n >= 4]
    return all(b <= a for a, b in zip(deviations, deviations[1:]))


def _ratio_cells(x: Optional[Fraction]) -> list[str]:
    """A ratio as a fraction and a 10-digit decimal, or "undefined" twice."""
    from decimal import Decimal, localcontext

    if x is None:
        return ["undefined", "undefined"]
    with localcontext() as ctx:
        ctx.prec = 10
        return [f"{x.numerator}/{x.denominator}",
                str(Decimal(x.numerator) / Decimal(x.denominator))]


def cmd_ratios(args: argparse.Namespace) -> int:
    _check_max_n(args.max_n, formula=True)
    rows = ratios_data(args.max_n)
    monotone = minmax_deviation_nonincreasing(rows)

    def parity(r: RatioRow) -> str:
        return "even" if r.n % 2 == 0 else "odd"

    def cells(r: RatioRow) -> list[str]:
        return _ratio_cells(r.nw_over_ne) + _ratio_cells(r.down_over_up)

    def text(fh: TextIO) -> None:
        headers = ["n", "Enw/Ene", "decimal", "Edown/Eup", "decimal"]
        for p in ("even", "odd"):
            fh.write(f"{p} degrees:\n")
            fh.write(render_text_table(
                headers, [[str(r.n), *cells(r)] for r in rows if parity(r) == p]))
        fh.write(
            "deviation |Enw/Ene - 1| nonincreasing over even n: "
            + ("yes" if monotone else "no")
            + "\n(no limit is asserted; the table only reports values)\n"
        )

    keys = ("Enw/Ene", "Enw/Ene decimal", "Edown/Eup", "Edown/Eup decimal")
    _emit(
        args,
        json=lambda fh: render_json({
            "rows": [{"n": r.n, "parity": parity(r), **dict(zip(keys, cells(r)))}
                     for r in rows],
            "deviation |Enw/Ene - 1| nonincreasing over even n": monotone,
        }, fh),
        csv=lambda fh: render_csv(
            ["n", "parity", "Enw/Ene", "decimal", "Edown/Eup", "decimal"],
            [[str(r.n), parity(r), *cells(r)] for r in rows], fh,
        ),
        table=text,
    )
    return 0


# ---------------------------------------------------------------- export

def cmd_export(args: argparse.Namespace) -> int:
    name, max_n = args.sequence, args.max_n
    spec = SEQUENCES.get(name)
    if spec is None:
        raise CliError(f"unknown sequence {name!r}; valid names: {', '.join(SEQUENCES)}")
    _check_max_n(
        max_n, formula=True,
        floor="--max-n must be at least 2 for the refined sequences" if spec.offset else "",
    )
    if max_n < 0:
        raise CliError("--max-n must be nonnegative")
    ee = seq.euler_numbers(max_n)
    values = [spec.formula(ee, n) for n in range(spec.offset, max_n + 1)]
    _emit(
        args,
        bfile=lambda fh: fh.write("".join(f"{n} {v}\n" for n, v in enumerate(values, spec.offset))),
        json=lambda fh: render_json([str(v) for v in values], fh),
        csv=lambda fh: render_csv(
            ["n", name], [[str(n), str(v)] for n, v in enumerate(values, spec.offset)], fh
        ),
    )
    return 0


# ---------------------------------------------------------------- bijections

def cmd_bijection_check(args: argparse.Namespace) -> int:
    _check_max_n(args.max_n, args.cap)
    return _emit_reports(bijection_checks(args.max_n), args)


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euler-refine",
        description="Alternating-permutation refinements of the Euler numbers: "
        "tables, cross-verification, exact series, bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, max_n_default: int, formats=("table", "json", "csv"),
               cap: Optional[int] = None) -> None:
        """The options of every subcommand; a default `cap` adds --cap to those
        that enumerate."""
        sp.add_argument("--max-n", dest="max_n", type=int, default=max_n_default)
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", default=None, help="write output to a file")
        if cap is not None:
            sp.add_argument("--cap", type=int, default=cap, help=f"enumeration cap (default {cap})")

    sp = sub.add_parser("table", help="refined counting table")
    common(sp, 9, cap=DEFAULT_ENUM_CAP)
    sp.add_argument("--method", choices=("enum", "formula", "egf", "all"),
                    default="formula")
    sp.add_argument("--populations", choices=("updown", "both"), default="updown",
                    help="'both' adds the down-up columns Dup, Ddown")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="cross-check every identity three ways")
    common(sp, 10, cap=DEFAULT_ENUM_CAP)
    sp.add_argument("--egf-order", dest="egf_order", type=int, default=20)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("ratios", help="exact ratio tables for the two refinements")
    common(sp, 20)
    sp.set_defaults(func=cmd_ratios)

    sp = sub.add_parser("export", help="write one sequence as b-file, JSON or CSV")
    common(sp, 9, formats=("bfile", "json", "csv"))
    sp.add_argument("--sequence", required=True,
                    help=f"one of: {', '.join(SEQUENCES)}")
    sp.set_defaults(func=cmd_export)

    sp = sub.add_parser("bijection-check", help="exhaustive bijection verification")
    common(sp, 8, cap=BIJECTION_ENUM_CAP)
    sp.set_defaults(func=cmd_bijection_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cap", 0) < 0:  # ratios and export take no cap
        parser.error(f"--cap must be non-negative, got {args.cap}")
    try:
        if not args.out and sys.stdout is None:  # started with its standard output closed
            raise CliError("standard output is closed; write to a file with --out")
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
