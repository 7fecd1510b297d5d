"""Run the shards of one job at the same time, in forked worker processes.

Both sharded paths use this: the brute-force counts in :mod:`perm` and
the bijection checks in :mod:`verify`.  It is built on ``os.fork``,
``os.pipe`` and ``pickle`` rather than ``multiprocessing``, whose import
alone holds about 1 MB more than a bare interpreter.  A worker inherits
its shard and sends back only the pickled result.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Callable, NoReturn, Sequence, TypeVar, Union

S = TypeVar("S")
R = TypeVar("R")


def cpu_count() -> int:
    """The number of CPUs this process may run on (1 where the platform cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def map_shards(work: Callable[[S], R], shards: Sequence[S]) -> list[Union[R, str]]:
    """`work` of every shard, in shard order, all shards at the same time.

    The last shard runs in this process and every other one in a forked
    worker; with one shard nothing is forked.  A worker's entry is its
    shard's result or, when the worker returns none, a string that says
    why, so `work` must not return a string.  A shard whose worker
    cannot be forked runs in this process.
    """
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
                results[i] = work(shard)
                continue
            workers.append((i, pid, pipe))
            running.add(pid)
        results[-1] = work(shards[-1])
        for i, pid, pipe in workers:
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.discard(pid)
            if code == 0 and payload:
                results[i] = pickle.loads(payload)
            else:
                results[i] = f"the worker exited with code {code} before returning its results"
    finally:
        for _, pid, pipe in workers:
            pipe.close()
            if pid in running:  # only when an exception is on its way out
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _fork(work: Callable[[S], R], shard: S) -> tuple[int, BinaryIO]:
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


def _work_and_exit(work: Callable[[S], R], shard: S, write_end: int) -> NoReturn:
    """The worker: send the pickled result, or why there is none, and exit.

    It leaves only through ``os._exit``, so it never flushes the stdio
    buffers it inherited and never runs the parent's exit handlers.
    """
    import pickle

    code = 1
    try:
        try:
            payload = pickle.dumps(work(shard))
        except Exception as exc:
            payload = pickle.dumps(f"the worker raised {type(exc).__name__}: {exc}")
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)
