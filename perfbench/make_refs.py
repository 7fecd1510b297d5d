"""Capture the exactness references: the stdout of every workload command.

    python3 perfbench/make_refs.py

Run from the root of a source checkout at the commit whose outputs are
the reference.  A command that exits non-zero is reported and no
reference is written for it.
"""

from __future__ import annotations

import sys

import harness


def main() -> int:
    harness.require_source()
    env = harness.child_env()
    status = 0
    for commands in harness.WORKLOADS.values():
        for key, args in commands.items():
            outcome = harness.run_subprocess(harness.ENTRY, args, env)
            if outcome.returncode != 0:
                print(f"{key}: exit {outcome.returncode}, not written", file=sys.stderr)
                status = 1
                continue
            harness.write_ref(key, outcome.stdout)
            print(f"{key}: {len(outcome.stdout)} bytes in {outcome.seconds:.2f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
