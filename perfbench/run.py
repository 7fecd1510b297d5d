"""Benchmark of the euler-refine CLI; see README.md in this directory.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` every
command of the workload runs as users run it, in a fresh interpreter,
one at a time (a closed loop with a single client), and the end-to-end
metrics are reported.  With ``--trace 1`` the same commands run in this
process, alternating an untraced pass with a pass traced by
``layers.py``, and the per-layer metrics are reported.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the run's metadata.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from typing import Callable

import harness
import layers

SETUP_STARTS_PER_ROUND = 4
# Gauge seconds at which the machine counts as running at reference speed.
REFERENCE_GAUGE_S = 0.2


class Tally:
    """Checks attempted and failed over a run, and the first few failures."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.notes: list[str] = []

    def add(self, key: str, args, outcome: harness.Outcome, reference: bytes) -> None:
        attempted, failed = harness.check(args, outcome, reference)
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 5:
            diff = harness.first_difference(outcome.stdout, reference) or "output matches"
            stderr = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.notes.append(f"{key}: exit {outcome.returncode}, {failed} failed; {diff}; "
                              f"stderr {stderr}")


def pass_order(commands: dict, rng: random.Random) -> list[str]:
    keys = sorted(commands)
    rng.shuffle(keys)
    return keys


def repeat(seconds: float, one_round: Callable[[], float]) -> int:
    """Run rounds while the next one, as long as the last, still fits in `seconds`.

    At least one round always runs.  Returns the number of rounds.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        last = one_round()
        rounds += 1
        if time.perf_counter() - start + last > seconds:
            return rounds


def untraced_run(commands: dict, refs: dict, seconds: float, rng: random.Random,
                 tally: Tally) -> tuple[dict, dict]:
    env = harness.child_env()
    setups, gauges, walls, peaks = [], [], [], []

    def one_pass() -> tuple[float, float]:
        start = time.perf_counter()
        peak = 0.0
        for key in pass_order(commands, rng):
            outcome = harness.run_subprocess(harness.ENTRY, commands[key], env)
            tally.add(key, commands[key], outcome, refs[key])
            peak = max(peak, outcome.max_rss_mb)
        return time.perf_counter() - start, peak

    def time_setups() -> None:
        for _ in range(SETUP_STARTS_PER_ROUND):
            outcome = harness.run_subprocess(harness.SETUP, (), env)
            tally.attempted += 1
            tally.failed += outcome.returncode != 0
            setups.append(outcome.seconds)
            gauges.append(harness.run_subprocess(harness.GAUGE, (), env).seconds)

    def one_round() -> float:
        # Set-up and the gauge are sampled between passes, so their medians cover the run.
        round_start = time.perf_counter()
        time_setups()
        wall, peak = one_pass()
        walls.append(wall)
        peaks.append(peak)
        return time.perf_counter() - round_start

    passes = repeat(seconds, one_round)
    time_setups()
    # On a shared machine the speed drifts with other tenants' load (pass
    # times on one input varied by up to 40% between runs), so times are
    # scaled to the reference speed by the gauge taken across the same run.
    scale = REFERENCE_GAUGE_S / statistics.median(gauges)
    values = {
        "wall_s": statistics.median(walls) * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": statistics.median(peaks),
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    samples = {"passes": passes, "setup_starts": len(setups), "pass_wall_s": walls,
               "unscaled_wall_s": statistics.median(walls),
               "unscaled_setup_s": statistics.median(setups), "gauge_s": gauges}
    return values, samples


def traced_run(commands: dict, refs: dict, seconds: float, rng: random.Random,
               tally: Tally) -> tuple[dict, dict]:
    sys.path.insert(0, str(harness.SRC))
    from euler_refine import perm

    clear_cache = perm.count_refinements.cache_clear
    untraced_walls, traced_walls, per_pass, tracers = [], [], [], []

    def one_pass(tracer: layers.Tracer | None) -> float:
        gc.collect()
        uninstall = layers.install(tracer) if tracer else None
        output_bytes = 0
        start = time.perf_counter()
        try:
            for key in pass_order(commands, rng):
                clear_cache()  # each command starts cold, as in a new interpreter
                outcome = harness.run_in_process(commands[key])
                tally.add(key, commands[key], outcome, refs[key])
                output_bytes += len(outcome.stdout)
        finally:
            if uninstall:
                uninstall()
        wall = time.perf_counter() - start
        if tracer:
            per_pass.append({**layers.metrics(tracer), "cli.output_bytes": output_bytes})
            tracers.append(tracer)
            traced_walls.append(wall)
        else:
            untraced_walls.append(wall)
        return wall

    rounds = repeat(seconds, lambda: one_pass(None) + one_pass(layers.Tracer()))
    print(layers.span_table(tracers[-1]))
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(untraced_walls))
    return values, {"rounds_of_untraced_and_traced_pass": rounds}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    path = harness.ROOT / "BENCHMARK.json"
    try:
        declared = json.loads(path.read_text())["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        raise harness.BenchError(f"cannot read metrics from {path}: {exc}")
    return {m["name"]: m["unit"] for m in declared}


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(harness.ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    commands = harness.WORKLOADS[args.workload]
    try:
        harness.require_source()
        refs = harness.load_refs(list(commands))
        units = declared_units(args.trace)
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    tally = Tally()
    run = traced_run if args.trace else untraced_run
    values, samples = run(commands, refs, args.seconds, rng, tally)
    if set(values) != set(units):
        print(f"perfbench: measured {sorted(set(values) ^ set(units))} "
              "not as BENCHMARK.json declares", file=sys.stderr)
        return 2

    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "samples": samples,
        "failed_ratio": tally.failed / tally.attempted,
        "commands": [" ".join(commands[k]) for k in sorted(commands)],
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
