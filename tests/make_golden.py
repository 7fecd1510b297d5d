"""Capture stdout, stderr and exit code of fixed CLI runs into golden_cli.json.gz.

Run from the repository root: PYTHONPATH=src python tests/make_golden.py
"""

import contextlib
import gzip
import io
import json
from pathlib import Path

from euler_refine.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json.gz")
CASES = [
    [cmd, "--max-n", n, *extra, "--format", fmt]
    for cmd, n, extra in (("verify", "6", ["--egf-order", "8"]), ("ratios", "12", []),
                          ("table", "12", ["--cap", "12", "--method", "all",
                                           "--populations", "both"]),
                          ("bijection-check", "6", []))
    for fmt in ("table", "json", "csv")
] + [
    ["table", "--max-n", "8", "--method", method, "--populations", pop, "--format", fmt]
    for method in ("enum", "formula", "egf", "all") for pop in ("updown", "both")
    for fmt in ("table", "json", "csv")
] + [
    ["export", "--sequence", name, "--max-n", "9", "--format", fmt]
    for name in ("E", "Ene", "Enw", "Eup", "Edown", "Dup", "Ddown")
    for fmt in ("bfile", "json", "csv")
] + [
    ["export", "--sequence", name, "--max-n", "30", "--format", fmt]
    for name in ("Dup", "Ddown") for fmt in ("bfile", "json", "csv")
]


def run(argv: list[str]) -> dict:
    """Run the CLI in this process and capture it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


if __name__ == "__main__":
    golden = {" ".join(argv): run(argv) for argv in CASES}
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    GOLDEN.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
