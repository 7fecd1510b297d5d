"""The fork helper both sharded paths run on."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import euler_refine
from euler_refine.workers import map_shards

PARENT = os.getpid()


def _square_or_fail(x):
    """x squared; in a worker, a negative x raises (-1) or exits with code -x."""
    if x < 0 and os.getpid() != PARENT:
        if x == -1:
            raise ValueError("negative shard")
        os._exit(-x)
    return x * x


def test_results_come_in_shard_order_with_a_reason_for_each_missing_one():
    assert map_shards(_square_or_fail, [2, -1, 3, -4, 5]) == [
        4,
        "the worker raised ValueError: negative shard",
        9,
        "the worker exited with code 4 before returning its results",
        25,
    ]
    assert map_shards(_square_or_fail, [7]) == [49]


def _sleep_or_fail(x):
    if os.getpid() != PARENT:
        time.sleep(60)
    raise RuntimeError("this process failed")


def test_a_failure_here_kills_and_reaps_the_workers():
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="this process failed"):
        map_shards(_sleep_or_fail, [1, 2, 3])
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_never_flushes_stdio_or_runs_exit_handlers():
    # Text left in this process's stdout buffer, and an exit handler, each
    # show up once: a worker that flushed them would repeat them.
    src = str(Path(euler_refine.__file__).resolve().parent.parent)
    code = """if True:
        import atexit, sys
        from euler_refine.workers import map_shards
        atexit.register(lambda: sys.stdout.write("exit handler;"))
        sys.stdout.write("buffered;")
        assert map_shards(abs, [-1, -2, -3]) == [1, 2, 3]
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "buffered;exit handler;"
