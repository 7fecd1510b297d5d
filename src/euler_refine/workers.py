"""Run the units of one job in shards at the same time, in forked workers.

The bijection checks in :mod:`verify` use this.  The units are dealt
in turn to one shard per process; a shard whose results do not come
back from its worker runs again in this process, so the results never
depend on a worker.  It is built on ``os.fork``, ``os.pipe`` and
``pickle`` rather than ``multiprocessing``, whose import alone holds
about 1 MB more than a bare interpreter.  A worker inherits its shard
and sends back only the pickled results.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Callable, NoReturn, Sequence, TypeVar

U = TypeVar("U")
R = TypeVar("R")


def cpu_count() -> int:
    """The number of CPUs this process may run on (1 where the platform cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def map_dealt(work: Callable[[U], R], units: Sequence[U], count: int) -> list[R]:
    """`work` of every unit, in unit order, with `count` shards at the same time.

    The units are dealt in turn to `count` shards (one per unit when
    there are fewer units): shard i holds units i, i + count, ...  The
    last shard runs in this process and every other one in a forked
    worker; with one shard nothing is forked.  A shard whose worker
    cannot be forked, raises, or exits without sending its results runs
    in this process, so `work` must give the same result wherever it
    runs.
    """
    shards = [units[i::count] for i in range(min(count, len(units)))]
    if len(shards) > 1:
        # Imported here, so that a run that forks nothing does not hold its
        # 0.25 MB; the workers inherit it.
        import pickle
    results: list = [None] * len(shards)
    workers = []  # (shard index, pid, read end of the worker's pipe)
    running = set()
    try:
        for i, shard in enumerate(shards[:-1]):
            try:
                pid, pipe = _fork(work, shard)
            except OSError:
                continue  # the shard runs here below
            workers.append((i, pid, pipe))
            running.add(pid)
        results[-1] = _work_all(work, shards[-1])
        for i, pid, pipe in workers:
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.discard(pid)
            if code == 0 and payload:
                results[i] = pickle.loads(payload)
        for i, shard in enumerate(shards):
            if results[i] is None:
                results[i] = _work_all(work, shard)
    finally:
        for _, pid, pipe in workers:
            pipe.close()
            if pid in running:  # only when an exception is on its way out
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    # Unit k is item k // len(shards) of shard k % len(shards).
    return [results[k % len(shards)][k // len(shards)] for k in range(len(units))]


def _work_all(work: Callable[[U], R], shard: Sequence[U]) -> list[R]:
    return [work(unit) for unit in shard]


def _fork(work: Callable[[U], R], shard: Sequence[U]) -> tuple[int, BinaryIO]:
    """Start a worker on `shard`; returns its pid and the read end of its pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        os.close(read_end)
        _work_and_exit(work, shard, write_end)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _work_and_exit(work: Callable[[U], R], shard: Sequence[U], write_end: int) -> NoReturn:
    """The worker: send the pickled results and exit 0, or exit 1 with none.

    It leaves only through ``os._exit``, so it never flushes the stdio
    buffers it inherited and never runs the parent's exit handlers.
    """
    code = 1
    try:
        import pickle

        payload = pickle.dumps(_work_all(work, shard))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)
