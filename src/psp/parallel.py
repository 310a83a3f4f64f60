"""Independent work over every allowed core, in forked worker processes."""

from __future__ import annotations

import os
import pickle
import signal


def fork_map(fn, items):
    """Yield fn(item) for each item, in item order, from forked workers.

    There is a worker per CPU this process may run on (its affinity mask, so
    `taskset` caps it), at most one per item. With one item or one worker, or
    where fork is unavailable, each fn(item) runs here and no process starts.
    Worker w takes items w, w + workers, ... and pipes back each result in
    turn; this thread unpickles them, so the results land in this thread's
    heap. An exception raised in a worker is raised again here, at its item.
    """
    items = list(items)
    try:
        jobs = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        jobs = os.cpu_count() or 1
    jobs = min(jobs, len(items))
    if jobs <= 1 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    workers = []  # (pid, read end of its pipe)
    try:
        for w in range(jobs):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                _serve(fn, items[w::jobs], wr)
            os.close(wr)
            workers.append((pid, os.fdopen(r, "rb")))
        for i in range(len(items)):
            try:
                ok, result = pickle.load(workers[i % jobs][1])
            except EOFError:
                raise RuntimeError(f"fork_map: the worker for item {i} exited without its result") from None
            if not ok:
                raise result
            yield result
    finally:
        for pid, reader in workers:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn, items, fd) -> None:
    """A worker's life: pipe back (True, fn(item)) or (False, the exception)
    for each item, then exit without running the parent's exit code."""
    try:
        with os.fdopen(fd, "wb") as out:
            for item in items:
                try:
                    out.write(pickle.dumps((True, fn(item)), pickle.HIGHEST_PROTOCOL))
                except Exception as exc:
                    out.write(pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL))
                out.flush()
    finally:
        os._exit(0)  # a result or exception pickle cannot carry ends here, as EOF
