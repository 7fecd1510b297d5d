"""Structured pass/fail records for identity checks, and the text, CSV
and JSON renderings of tables and report lists."""

from __future__ import annotations

import io
from typing import Callable, NamedTuple, Optional, Sequence


class CheckEntry(NamedTuple):
    """One compared pair of values; `note` records an error if a side failed."""

    n: int
    label: str
    left: object = None
    right: object = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.left is not None and self.right is not None and self.left == self.right


class VerifyReport:
    """Per-identity comparison record with one entry per checked index."""

    def __init__(self, identity: str, left_method: str, right_method: str,
                 entries: Optional[list[CheckEntry]] = None) -> None:
        self.identity = identity
        self.left_method = left_method
        self.right_method = right_method
        self.entries = [] if entries is None else entries

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "methods": [self.left_method, self.right_method],
            "pass": self.passed,
            "entries": [
                {
                    "n": e.n,
                    "label": e.label,
                    "left": None if e.left is None else str(e.left),
                    "right": None if e.right is None else str(e.right),
                    "pass": e.passed,
                    **({"note": e.note} if e.note else {}),
                }
                for e in self.entries
            ],
        }


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
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def render_json(obj) -> str:
    import json

    return json.dumps(obj, indent=2) + "\n"


def report_formats(reports: Sequence[VerifyReport]) -> dict[str, Callable[[], str]]:
    """The json, csv and table renderings of a report list, each built
    only when its builder is called."""

    def text() -> str:
        lines = []
        for r in reports:
            lines.append(
                f"[{'PASS' if r.passed else 'FAIL'}] {r.identity} "
                f"({r.left_method} vs {r.right_method}): "
                f"{sum(e.passed for e in r.entries)}/{len(r.entries)} checks"
            )
            lines += [f"    n={e.n} {e.label}: left={e.left} right={e.right}"
                      + (f" ({e.note})" if e.note else "") for e in r.failures()]
        lines.append(f"overall: {'PASS' if all(r.passed for r in reports) else 'FAIL'}")
        return "\n".join(lines) + "\n"

    return {
        "json": lambda: render_json([r.to_json_dict() for r in reports]),
        "csv": lambda: render_csv(
            ["identity", "n", "label", "left", "right", "pass"],
            [[r.identity, str(e.n), e.label, str(e.left), str(e.right), str(e.passed)]
             for r in reports for e in r.entries],
        ),
        "table": text,
    }
