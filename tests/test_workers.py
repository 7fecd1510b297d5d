"""The fork helper the bijection checks run on."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import euler_refine
from euler_refine.workers import map_dealt

PARENT = os.getpid()


def _where(x):
    """x, and whether it ran in this process; in a worker, -1 raises and
    a smaller x exits with code -x."""
    here = os.getpid() == PARENT
    if x < 0 and not here:
        if x == -1:
            raise ValueError("negative unit")
        os._exit(-x)
    return x, here


def test_results_come_in_unit_order_and_a_lost_shard_runs_here():
    # Dealt in turn: on two shards the worker takes the even positions.
    assert map_dealt(_where, [0, 1, 2, 3, 4, 5], 2) == [(x, x % 2 == 1) for x in range(6)]
    # -1 raises in its worker and -4 exits with code 4; their shards run here.
    assert map_dealt(_where, [-1, 2, 3, -4, 5, 6], 2) == [
        (-1, True), (2, True), (3, True), (-4, True), (5, True), (6, True)]
    assert map_dealt(_where, [2, -1, 3, -4, 5], 5) == [
        (2, False), (-1, True), (3, False), (-4, True), (5, True)]
    assert map_dealt(_where, [7, 8], 5) == [(7, False), (8, True)]
    assert map_dealt(_where, [7, 8, 9], 1) == [(7, True), (8, True), (9, True)]


def _sleep_or_fail(x):
    if os.getpid() != PARENT:
        time.sleep(60)
    raise RuntimeError("this process failed")


def test_a_failure_here_kills_and_reaps_the_workers():
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="this process failed"):
        map_dealt(_sleep_or_fail, [1, 2, 3], 3)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_never_flushes_stdio_or_runs_exit_handlers():
    # Text left in this process's stdout buffer, and an exit handler, each
    # show up once: a worker that flushed them would repeat them.
    src = str(Path(euler_refine.__file__).resolve().parent.parent)
    code = """if True:
        import atexit, sys
        from euler_refine.workers import map_dealt
        atexit.register(lambda: sys.stdout.write("exit handler;"))
        sys.stdout.write("buffered;")
        assert map_dealt(abs, [-1, -2, -3], 3) == [1, 2, 3]
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "buffered;exit handler;"
