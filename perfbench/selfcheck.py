"""Check that the benchmark notices wrong output.

    python3 perfbench/selfcheck.py

Runs the cheapest workload command (``export``) through the untraced
and the traced run, once against its true reference and once against a
copy with one digit changed, and requires a zero failed ratio for the
first and a nonzero one for the second.  It also feeds :func:`check` a
``verify`` report with one entry marked failed.  Exits 0 when every
expectation holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import harness
import run

KEY = "export-eup-n200"


def corrupt(reference: bytes) -> bytes:
    """Change the last digit of the middle line."""
    lines = reference.splitlines(keepends=True)
    mid = len(lines) // 2
    line = lines[mid].rstrip(b"\n")
    digit = b"1" if line[-1:] != b"1" else b"2"
    lines[mid] = line[:-1] + digit + b"\n"
    return b"".join(lines)


def failed_ratio(trace: bool, reference: bytes) -> float:
    tally = run.Tally()
    do_run = run.traced_run if trace else run.untraced_run
    with contextlib.redirect_stdout(io.StringIO()):  # the traced run's span table
        do_run({KEY: harness.WORKLOADS["closed-form"][KEY]}, {KEY: reference}, 0.1,
               random.Random(0), tally)
    return tally.failed / tally.attempted


def main() -> int:
    try:
        harness.require_source()
        true_ref = harness.load_refs([KEY])[KEY]
    except harness.BenchError as exc:
        print(f"selfcheck: {exc}", file=sys.stderr)
        return 2
    bad_ref = corrupt(true_ref)
    problems = []
    for trace in (False, True):
        mode = "traced" if trace else "untraced"
        good, bad = failed_ratio(trace, true_ref), failed_ratio(trace, bad_ref)
        print(f"{mode}: failed_ratio {good:.4f} with the true reference, "
              f"{bad:.4f} with a corrupted one")
        if good != 0:
            problems.append(f"{mode} run fails against the true reference")
        if not bad > 0:
            problems.append(f"{mode} run accepts a corrupted reference")

    key = "verify-n11-egf20"
    verify_ref = harness.load_refs([key])[key]
    reports = json.loads(verify_ref)
    reports[0]["entries"][0]["pass"] = False
    outcome = harness.Outcome(0, json.dumps(reports).encode(), b"", 0.0)
    attempted, failed = harness.check(harness.WORKLOADS["enumerate"][key], outcome, verify_ref)
    print(f"report with one failed entry: {failed} of {attempted} checks failed")
    if failed != 2:  # the entry itself, and stdout differing from the reference
        problems.append(f"expected 2 failed checks for one failed entry, got {failed}")

    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
