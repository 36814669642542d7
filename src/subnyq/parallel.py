"""Order-preserving parallel map over forked worker processes.

`map_ordered` cuts the items into one contiguous shard per worker.  The
calling process works through shard 0 itself; each other shard runs in a
child made by ``os.fork``, which inherits the function and the items as
they are in memory, so neither needs to pickle.  A child sends back one
pickled ``(ok, results-or-exception)`` over its own pipe and always ends
with ``os._exit``, so it runs no exit handler and flushes no inherited
buffer.  Results are joined in item order no matter how many workers run,
so every reduction downstream is reproducible bit for bit.

Processes, not threads: the subset kernels run many short numpy calls
whose Python steps hold the interpreter lock, so threads gained nothing
in a fresh CLI process.  Fork, not spawn: a spawned worker pays the
interpreter start and the numpy import again, more than a whole Landau
suite takes.  Fork is POSIX-only; where ``os.fork`` does not exist the map
runs serially, with the same results.  A worker inherits the caller's C
allocator settings, such as the freed memory that `cli.main` keeps.

The library starts no Python thread.  On Python 3.12 and later the
interpreter warns when a process that has other threads forks, which
includes the thread pool that numpy's OpenBLAS may start; that
combination is untested here.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["map_ordered"]


def _report(fn, shard, write_fd: int) -> None:
    """A worker's job: evaluate its shard and write the pickled outcome."""
    try:
        payload = pickle.dumps((True, [fn(item) for item in shard]), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # reported to the parent, which re-raises it
        try:
            payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        except Exception:  # an exception that does not pickle
            payload = pickle.dumps((False, ChildProcessError(f"{type(exc).__name__}: {exc}")))
    with os.fdopen(write_fd, "wb") as pipe:
        pipe.write(payload)


def map_ordered(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    """Apply `fn` to every item across up to `workers` processes, in item order.

    At most min(workers, len(items)) processes work, the caller included.
    An exception raised by `fn` reaches the caller with its type: the one of
    the earliest shard that failed, which is the one a serial map raises.
    A worker that ends without reporting raises ChildProcessError.  Every
    worker is reaped before this returns or raises.
    """
    fork = getattr(os, "fork", None)
    count = min(workers or 1, len(items))
    if fork is None or count <= 1:
        return [fn(item) for item in items]
    bounds = [len(items) * i // count for i in range(count + 1)]
    for stream in (sys.stdout, sys.stderr):  # no inherited buffer can print twice
        if stream is not None:
            stream.flush()
    children: list[tuple[int, int]] = []
    reports: list[bytes] = []
    statuses: list[int] = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the worker: report, then end without unwinding into the caller
                code = 1
                try:
                    os.close(read_fd)
                    _report(fn, items[lo:hi], write_fd)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [fn(item) for item in items[: bounds[1]]]
        for _, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                reports.append(pipe.read())
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            if len(reports) < len(children):  # an error or an interrupt: stop the rest
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _), status, report in zip(children, statuses, reports):
        if not report:
            raise ChildProcessError(
                f"worker {pid} ended without a result "
                f"(exit code {os.waitstatus_to_exitcode(status)})"
            )
        ok, value = pickle.loads(report)
        if not ok:
            raise value
        results.extend(value)
    return results
