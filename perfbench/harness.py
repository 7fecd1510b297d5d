"""Workload commands, exactness references and the two ways to run a command.

A command is run either as a user runs it, in a fresh interpreter
(:func:`run_subprocess`), or inside this process for the traced run
(:func:`run_in_process`).  Both hand their exit code and stdout to
:func:`check`, which compares stdout byte for byte with the reference
captured at the commit the benchmark was defined on and, for ``verify``
and ``bijection-check``, counts every JSON check entry.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFS = Path(__file__).resolve().parent / "refs"

# The console script `euler-refine` runs exactly this.
ENTRY = "import sys; from euler_refine.cli import main; sys.exit(main())"
SETUP = "from euler_refine.cli import build_parser; build_parser()"
# A fixed CPU-bound job that uses no euler_refine code (tuples, sorting,
# dicts, ints): its time in a fresh interpreter gauges the machine's speed.
GAUGE = """
acc = 0
for i in range(40_000):
    t = tuple((i * k) % 11 for k in range(6))
    acc = (acc + len({v: k for k, v in enumerate(sorted(t))})) % 1000003
"""

# Inputs are fixed degrees, so every output is exact and deterministic.
# Keys name the reference file of each command.
WORKLOADS: dict[str, dict[str, tuple[str, ...]]] = {
    "enumerate": {
        "verify-n11-egf20": ("verify", "--max-n", "11", "--egf-order", "20", "--format", "json"),
    },
    "closed-form": {
        "verify-n6-egf198": ("verify", "--max-n", "6", "--egf-order", "198", "--format", "json"),
        "table-egf-n200": ("table", "--method", "egf", "--max-n", "200"),
        "ratios-n200": ("ratios", "--max-n", "200"),
        "export-eup-n200": ("export", "--sequence", "Eup", "--max-n", "200"),
    },
    "bijection": {
        "bijection-check-n10": ("bijection-check", "--max-n", "10", "--format", "json"),
    },
}

# Subcommands whose JSON output is a list of reports with per-check entries.
REPORT_COMMANDS = ("verify", "bijection-check")

COMMAND_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here; no result may be printed."""


@dataclass(frozen=True)
class Outcome:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float
    max_rss_mb: float = 0.0


def require_source() -> None:
    if not (SRC / "euler_refine" / "cli.py").is_file():
        raise BenchError(f"no euler_refine sources under {SRC}")


def ref_path(key: str) -> Path:
    return REFS / f"{key}.out.gz"


def load_refs(keys: Sequence[str]) -> dict[str, bytes]:
    refs = {}
    for key in keys:
        path = ref_path(key)
        if not path.is_file():
            raise BenchError(f"missing reference {path}")
        refs[key] = gzip.decompress(path.read_bytes())
    return refs


def write_ref(key: str, stdout: bytes) -> None:
    REFS.mkdir(exist_ok=True)
    ref_path(key).write_bytes(gzip.compress(stdout, compresslevel=9, mtime=0))


def child_env() -> dict[str, str]:
    """The caller's environment with the sources importable and the default cap."""
    env = dict(os.environ)
    env.pop("EULER_REFINE_CAP", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_subprocess(code: str, args: Sequence[str], env: dict[str, str]) -> Outcome:
    """Run `python -c code args` to completion, timing it and reading its max RSS.

    The child is reaped with wait4 so its own resource usage, not a
    running maximum over all children, is reported.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(proc.returncode, out, err[0], seconds, usage.ru_maxrss / 1024)


def run_in_process(args: Sequence[str]) -> Outcome:
    """Call ``euler_refine.cli.main`` here, capturing what it writes."""
    from euler_refine import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(args))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - start
    return Outcome(rc, out.getvalue().encode(), err.getvalue().encode(), seconds)


def check(args: Sequence[str], outcome: Outcome, reference: bytes) -> tuple[int, int]:
    """(attempted, failed) checks for one command run.

    Two checks always: exit code 0 and stdout equal to the reference.
    Report commands add one check per JSON entry; output that does not
    parse counts as one more failed check.
    """
    attempted = 2
    failed = int(outcome.returncode != 0) + int(outcome.stdout != reference)
    if args[0] in REPORT_COMMANDS:
        try:
            entries = [e for r in json.loads(outcome.stdout) for e in r["entries"]]
        except (ValueError, TypeError, KeyError):
            return attempted + 1, failed + 1
        attempted += len(entries)
        failed += sum(1 for e in entries if e.get("pass") is not True)
    return attempted, failed


def first_difference(got: bytes, want: bytes) -> Optional[str]:
    """A one-line description of where two outputs part, or None if equal."""
    if got == want:
        return None
    for lineno, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), start=1):
        if a != b:
            return f"line {lineno}: got {a[:80]!r}, want {b[:80]!r}"
    return f"lengths differ: got {len(got)} bytes, want {len(want)}"
