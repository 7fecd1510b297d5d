"""Command-line front end: tables, verification, ratios, exploration, export.

Exit codes: 0 on success (all checks passing), 1 when a verification
fails, 2 on usage or I/O errors, reported on one line without a
traceback.  All output is deterministic for fixed flags;
big integers are rendered as decimal strings in JSON and CSV so no
consumer ever sees a rounded value.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import stat
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from . import perm, seq, series
from .report import VerifyReport
from .verify import bijection_checks, run_verification

DEFAULT_ENUM_CAP = 11
FORMULA_CAP = 200
CAP_ENV_VAR = "EULER_REFINE_CAP"
SEQUENCE_NAMES = ("E", "Ene", "Enw", "Eup", "Edown", "Dup", "Ddown")
ENUM_ONLY_NAMES = ("Dup", "Ddown")
CONJECTURE_MIN_TERMS = 8


class CliError(Exception):
    """Usage-level error; rendered to stderr with exit status 2."""


def enumeration_cap(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise CliError(f"{CAP_ENV_VAR} must be an integer, got {env!r}")
        if cap < 0:
            raise CliError(f"{CAP_ENV_VAR} must be non-negative, got {cap}")
        return cap
    return DEFAULT_ENUM_CAP


def _check_enum_range(max_n: int, cap: int) -> None:
    if max_n > cap:
        raise CliError(
            f"--max-n {max_n} exceeds the enumeration cap {cap}; "
            f"raise it with --cap or {CAP_ENV_VAR}"
        )


def _check_formula_range(max_n: int) -> None:
    if max_n > FORMULA_CAP:
        raise CliError(f"--max-n {max_n} exceeds the formula cap {FORMULA_CAP}")


# ---------------------------------------------------------------- rendering

def render_text_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def render_csv(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def render_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    """Write to stdout, or to the file `out`.

    A new or regular file is replaced atomically: the text goes to a
    temporary file beside `out` that is renamed over it, so `out` never
    holds partial output; on any error the temporary file is removed and
    `out` is left as it was.  Anything else, such as a symlink or a
    device like /dev/stdout, is written through in place, because a
    rename would replace the link or device node itself.
    """
    if not out:
        sys.stdout.write(text)
        return
    try:
        write_through = not stat.S_ISREG(os.lstat(out).st_mode)
    except FileNotFoundError:
        write_through = False
    if write_through:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    directory, name = os.path.split(out)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _decimal10(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 10
        return str(Decimal(value.numerator) / Decimal(value.denominator))


# ---------------------------------------------------------------- sequences

def _formula_value(name: str, n: int, euler: Sequence[int]) -> int:
    if name == "E":
        return euler[n]
    if name == "Ene":
        return seq.e_ne_nw_pair(n, euler)[0]
    if name == "Enw":
        return seq.e_ne_nw_pair(n, euler)[1]
    if name == "Eup":
        return seq.e_up_formula(n, euler)
    if name == "Edown":
        return seq.e_down_recurrence(n, euler)
    raise CliError(f"sequence {name} has no closed form; it is enumeration-only")


def _enum_value(name: str, table) -> int:
    return {
        "E": table.e,
        "Ene": table.ene,
        "Enw": table.enw,
        "Eup": table.eup,
        "Edown": table.edown,
        "Dup": table.dup,
        "Ddown": table.ddown,
    }[name]


def _egf_values(name: str, max_n: int) -> dict[int, int]:
    """Counts per degree n (2..max_n) read off the named series."""
    if name == "E":
        counts = series.extract_counts(series.sec_egf(max_n) + series.tan_egf(max_n))
        return {n: counts[n] for n in range(2, max_n + 1)}
    builders = {
        "Ene": series.ene_egf,
        "Enw": series.enw_egf,
        "Eup": series.eup_egf,
        "Edown": series.edown_egf,
    }
    if name not in builders:
        raise CliError(f"sequence {name} has no series; it is enumeration-only")
    counts = series.extract_counts(builders[name](max_n - 2))
    return {n: counts[n - 2] for n in range(2, max_n + 1)}


# ---------------------------------------------------------------- table

def cmd_table(args: argparse.Namespace) -> int:
    max_n = args.max_n
    if max_n < 2:
        raise CliError("--max-n must be at least 2")
    cap = enumeration_cap(args.cap)
    names = ["E", "Ene", "Enw", "Eup", "Edown"]
    if args.populations == "both":
        names += ["Dup", "Ddown"]
    needs_enum = args.method in ("enum", "all") or args.populations == "both"
    if needs_enum:
        _check_enum_range(max_n, cap)
    _check_formula_range(max_n)

    columns: dict[str, dict[int, int]] = {}
    methods: dict[str, str] = {}
    euler = seq.euler_numbers(max_n)
    tables = (
        {n: perm.count_refinements(n) for n in range(2, max_n + 1)} if needs_enum else {}
    )
    for name in names:
        if name in ENUM_ONLY_NAMES:
            columns[name] = {n: _enum_value(name, tables[n]) for n in range(2, max_n + 1)}
            methods[name] = "enum"
            continue
        if args.method == "enum":
            columns[name] = {n: _enum_value(name, tables[n]) for n in range(2, max_n + 1)}
            methods[name] = "enum"
        elif args.method == "egf":
            columns[name] = _egf_values(name, max_n)
            methods[name] = "egf"
        elif args.method == "formula":
            columns[name] = {n: _formula_value(name, n, euler) for n in range(2, max_n + 1)}
            methods[name] = "formula"
        else:  # all three routes must agree
            by_formula = {n: _formula_value(name, n, euler) for n in range(2, max_n + 1)}
            by_egf = _egf_values(name, max_n)
            by_enum = {n: _enum_value(name, tables[n]) for n in range(2, max_n + 1)}
            for n in range(2, max_n + 1):
                if not (by_formula[n] == by_egf[n] == by_enum[n]):
                    raise CliError(
                        f"route disagreement for {name} at n={n}: "
                        f"formula {by_formula[n]}, egf {by_egf[n]}, enum {by_enum[n]}"
                    )
            columns[name] = by_formula
            methods[name] = "enum=formula=egf"

    headers = ["n"] + [f"{name}({methods[name]})" for name in names]
    rows = [
        [str(n)] + [str(columns[name][n]) for name in names] for n in range(2, max_n + 1)
    ]
    if args.format == "json":
        payload = {
            "methods": methods,
            "rows": [
                {"n": n, **{name: str(columns[name][n]) for name in names}}
                for n in range(2, max_n + 1)
            ],
        }
        _emit(render_json(payload), args.out)
    elif args.format == "csv":
        _emit(render_csv(headers, rows), args.out)
    else:
        _emit(render_text_table(headers, rows), args.out)
    return 0


# ---------------------------------------------------------------- verify

def _render_reports(reports: list[VerifyReport], fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        _emit(render_json([r.to_json_dict() for r in reports]), out)
        return
    if fmt == "csv":
        headers = ["identity", "n", "label", "left", "right", "pass"]
        rows = [
            [r.identity, str(e.n), e.label, str(e.left), str(e.right), str(e.passed)]
            for r in reports
            for e in r.entries
        ]
        _emit(render_csv(headers, rows), out)
        return
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{status}] {r.identity} ({r.left_method} vs {r.right_method}): "
            f"{sum(e.passed for e in r.entries)}/{len(r.entries)} checks"
        )
        for e in r.failures():
            detail = f"    n={e.n} {e.label}: left={e.left} right={e.right}"
            if e.note:
                detail += f" ({e.note})"
            lines.append(detail)
    overall = "PASS" if all(r.passed for r in reports) else "FAIL"
    lines.append(f"overall: {overall}")
    _emit("\n".join(lines) + "\n", out)


def cmd_verify(args: argparse.Namespace) -> int:
    cap = enumeration_cap(args.cap)
    _check_enum_range(args.max_n, cap)
    if args.egf_order < 2:
        raise CliError("--egf-order must be at least 2")
    reports = run_verification(args.max_n, args.egf_order)
    _render_reports(reports, args.format, args.out)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------- ratios

@dataclass(frozen=True)
class RatioRow:
    n: int
    nw_over_ne: Fraction
    down_over_up: Optional[Fraction]


def ratios_data(max_n: int, euler: Optional[Sequence[int]] = None) -> list[RatioRow]:
    ee = euler if euler is not None else seq.euler_numbers(max_n)
    rows = []
    for n in range(2, max_n + 1):
        ene, enw = seq.e_ne_nw_pair(n, ee)
        eup = seq.e_up_formula(n, ee)
        edown = seq.e_down_recurrence(n, ee)
        rows.append(
            RatioRow(
                n,
                Fraction(enw, ene),
                Fraction(edown, eup) if eup else None,
            )
        )
    return rows


def minmax_deviation_nonincreasing(rows: list[RatioRow]) -> bool:
    """Whether |nw/ne - 1| never increases along even degrees >= 4."""
    deviations = [abs(r.nw_over_ne - 1) for r in rows if r.n % 2 == 0 and r.n >= 4]
    return all(b <= a for a, b in zip(deviations, deviations[1:]))


def cmd_ratios(args: argparse.Namespace) -> int:
    if args.max_n < 2:
        raise CliError("--max-n must be at least 2")
    _check_formula_range(args.max_n)
    rows = ratios_data(args.max_n)
    monotone = minmax_deviation_nonincreasing(rows)

    def fr(x: Optional[Fraction]) -> str:
        return "undefined" if x is None else f"{x.numerator}/{x.denominator}"

    def dec(x: Optional[Fraction]) -> str:
        return "undefined" if x is None else _decimal10(x)

    if args.format == "json":
        payload = {
            "rows": [
                {
                    "n": r.n,
                    "parity": "even" if r.n % 2 == 0 else "odd",
                    "Enw/Ene": fr(r.nw_over_ne),
                    "Enw/Ene decimal": dec(r.nw_over_ne),
                    "Edown/Eup": fr(r.down_over_up),
                    "Edown/Eup decimal": dec(r.down_over_up),
                }
                for r in rows
            ],
            "deviation |Enw/Ene - 1| nonincreasing over even n": monotone,
        }
        _emit(render_json(payload), args.out)
        return 0
    headers = ["n", "Enw/Ene", "decimal", "Edown/Eup", "decimal"]
    table_rows = {
        parity: [
            [str(r.n), fr(r.nw_over_ne), dec(r.nw_over_ne), fr(r.down_over_up), dec(r.down_over_up)]
            for r in rows
            if r.n % 2 == rem
        ]
        for parity, rem in (("even", 0), ("odd", 1))
    }
    if args.format == "csv":
        flat = [
            [str(r.n), "even" if r.n % 2 == 0 else "odd", fr(r.nw_over_ne),
             dec(r.nw_over_ne), fr(r.down_over_up), dec(r.down_over_up)]
            for r in rows
        ]
        _emit(render_csv(["n", "parity"] + headers[1:], flat), args.out)
        return 0
    parts = []
    for parity in ("even", "odd"):
        parts.append(f"{parity} degrees:\n")
        parts.append(render_text_table(headers, table_rows[parity]))
    parts.append(
        "deviation |Enw/Ene - 1| nonincreasing over even n: "
        + ("yes" if monotone else "no")
        + "\n(no limit is asserted; the table only reports values)\n"
    )
    _emit("".join(parts), args.out)
    return 0


# ---------------------------------------------------------------- openq

def _candidate_library(order: int) -> list[tuple[str, tuple[int, ...]]]:
    """Small sec/tan products (exponents <= 3, coefficients 1..3) and their sums."""
    sec = series.sec_egf(order)
    tan = series.tan_egf(order)
    powers: dict[tuple[int, int], series.TruncatedEGF] = {}
    for a in range(4):
        for b in range(4):
            f = series.one_egf(order)
            for _ in range(a):
                f = f * sec
            for _ in range(b):
                f = f * tan
            powers[(a, b)] = f

    def monomial_name(c: int, a: int, b: int) -> str:
        factors = []
        if a:
            factors.append("sec" + (f"^{a}" if a > 1 else ""))
        if b:
            factors.append("tan" + (f"^{b}" if b > 1 else ""))
        body = "*".join(factors)
        return body if c == 1 else f"{c}*{body}"

    monomials = [
        (monomial_name(c, a, b), powers[(a, b)].scale(c))
        for a in range(4)
        for b in range(4)
        if a or b
        for c in (1, 2, 3)
    ]
    seen: dict[tuple[int, ...], str] = {}
    out: list[tuple[str, tuple[int, ...]]] = []

    def add(name: str, f: series.TruncatedEGF) -> None:
        key = f.counts
        if key not in seen:
            seen[key] = name
            out.append((name, key))

    for name, f in monomials:
        add(name, f)
    for (n1, f1), (n2, f2) in combinations_with_replacement(monomials, 2):
        add(f"{n1} + {n2}", f1 + f2)
    return out


def openq_data(max_n: int) -> dict:
    tables = {n: perm.count_refinements(n) for n in range(2, max_n + 1)}
    rows = [
        {
            "n": n,
            "Dup": tables[n].dup,
            "Ddown": tables[n].ddown,
            "E": tables[n].e,
            "partition": tables[n].dup + tables[n].ddown == tables[n].e,
        }
        for n in range(2, max_n + 1)
    ]
    conjectures = []
    terms = max_n - 1
    if terms >= CONJECTURE_MIN_TERMS:
        order = max_n - 2
        targets = {
            "Dup": [tables[n].dup for n in range(2, max_n + 1)],
            "Ddown": [tables[n].ddown for n in range(2, max_n + 1)],
        }
        for name, counts in _candidate_library(order):
            for target_name, target in targets.items():
                if list(counts) == target:
                    conjectures.append((target_name, name))
    return {"rows": rows, "conjectures": conjectures, "terms": terms}


def cmd_openq(args: argparse.Namespace) -> int:
    if args.max_n < 2:
        raise CliError("--max-n must be at least 2")
    cap = enumeration_cap(args.cap)
    _check_enum_range(args.max_n, cap)
    data = openq_data(args.max_n)
    if args.format == "json":
        payload = {
            "rows": [
                {
                    k: (str(v) if isinstance(v, int) and not isinstance(v, bool) else v)
                    for k, v in row.items()
                }
                for row in data["rows"]
            ],
            "conjectures": [
                {
                    "sequence": target,
                    "series": name,
                    "status": "prefix match only, not a proof",
                }
                for target, name in data["conjectures"]
            ],
        }
        _emit(render_json(payload), args.out)
        return 0
    headers = ["n", "Dup(enum)", "Ddown(enum)", "E", "Dup+Ddown=E"]
    rows = [
        [str(r["n"]), str(r["Dup"]), str(r["Ddown"]), str(r["E"]), "ok" if r["partition"] else "BROKEN"]
        for r in data["rows"]
    ]
    if args.format == "csv":
        _emit(render_csv(headers, rows), args.out)
        return 0
    parts = [render_text_table(headers, rows)]
    if data["terms"] < CONJECTURE_MIN_TERMS:
        parts.append(
            f"conjecture scan skipped: {data['terms']} terms available, "
            f"{CONJECTURE_MIN_TERMS} needed\n"
        )
    elif not data["conjectures"]:
        parts.append("no candidate series matches the computed prefixes\n")
    else:
        for target, name in data["conjectures"]:
            parts.append(
                f"CONJECTURE: {target} counts (shifted two steps) match the series "
                f"{name} (prefix match only, not a proof)\n"
            )
    _emit("".join(parts), args.out)
    return 0


# ---------------------------------------------------------------- export

def export_values(name: str, max_n: int, cap: int) -> tuple[int, list[int]]:
    """(offset, values) for a named sequence up to degree max_n."""
    if name not in SEQUENCE_NAMES:
        raise CliError(
            f"unknown sequence {name!r}; valid names: {', '.join(SEQUENCE_NAMES)}"
        )
    if name == "E":
        _check_formula_range(max_n)
        return 0, seq.euler_numbers(max_n)
    if max_n < 2:
        raise CliError("--max-n must be at least 2 for the refined sequences")
    if name in ENUM_ONLY_NAMES:
        _check_enum_range(max_n, cap)
        tables = [perm.count_refinements(n) for n in range(2, max_n + 1)]
        return 2, [_enum_value(name, t) for t in tables]
    _check_formula_range(max_n)
    euler = seq.euler_numbers(max_n)
    return 2, [_formula_value(name, n, euler) for n in range(2, max_n + 1)]


def render_bfile(offset: int, values: Sequence[int]) -> str:
    return "".join(f"{offset + i} {v}\n" for i, v in enumerate(values))


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Read "index value" lines, skipping blanks and # comments."""
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        idx, val = line.split()
        entries.append((int(idx), int(val)))
    return entries


def cmd_export(args: argparse.Namespace) -> int:
    cap = enumeration_cap(args.cap)
    offset, values = export_values(args.sequence, args.max_n, cap)
    if args.format == "bfile":
        text = render_bfile(offset, values)
    elif args.format == "json":
        text = render_json([str(v) for v in values])
    elif args.format == "csv":
        text = render_csv(
            ["n", args.sequence],
            [[str(offset + i), str(v)] for i, v in enumerate(values)],
        )
    else:
        raise CliError("export supports --format bfile, json or csv")
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------- bijections

def cmd_bijection_check(args: argparse.Namespace) -> int:
    if args.max_n < 2:
        raise CliError("--max-n must be at least 2")
    cap = enumeration_cap(args.cap)
    _check_enum_range(args.max_n, cap)
    reports = bijection_checks(args.max_n)
    _render_reports(reports, args.format, args.out)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euler-refine",
        description="Alternating-permutation refinements of the Euler numbers: "
        "tables, cross-verification, exact series, bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, max_n_default: int, formats=("table", "json", "csv")) -> None:
        sp.add_argument("--max-n", dest="max_n", type=int, default=max_n_default)
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", default=None, help="write output to a file")
        sp.add_argument("--cap", type=int, default=None,
                        help=f"enumeration cap (default {DEFAULT_ENUM_CAP}, "
                             f"env {CAP_ENV_VAR})")

    sp = sub.add_parser("table", help="refined counting table")
    common(sp, 9)
    sp.add_argument("--method", choices=("enum", "formula", "egf", "all"),
                    default="formula")
    sp.add_argument("--populations", choices=("updown", "both"), default="updown",
                    help="'both' adds the down-up columns Dup, Ddown")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="cross-check every identity three ways")
    common(sp, 10)
    sp.add_argument("--egf-order", dest="egf_order", type=int, default=20)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("ratios", help="exact ratio tables for the two refinements")
    common(sp, 20)
    sp.set_defaults(func=cmd_ratios)

    sp = sub.add_parser("openq", help="down-up refinement data and conjecture scan")
    common(sp, 10)
    sp.set_defaults(func=cmd_openq)

    sp = sub.add_parser("export", help="write one sequence as b-file, JSON or CSV")
    common(sp, 9, formats=("bfile", "json", "csv"))
    sp.add_argument("--sequence", required=True,
                    help=f"one of: {', '.join(SEQUENCE_NAMES)}")
    sp.set_defaults(func=cmd_export)

    sp = sub.add_parser("bijection-check", help="exhaustive bijection verification")
    common(sp, 8)
    sp.set_defaults(func=cmd_bijection_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cap is not None and args.cap < 0:
        parser.error(f"--cap must be non-negative, got {args.cap}")
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
