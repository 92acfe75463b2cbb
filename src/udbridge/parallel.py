"""Run independent jobs on forked processes.

`map_jobs(fn, items)` returns `[fn(x) for x in items]`. With
n = min(len(items), os.cpu_count()) processes, the caller runs items[0::n]
and forked child j runs items[j::n]. A child starts as a copy of the
caller, so `fn` and the items are never pickled and `fn` may be a closure;
only the results come back, pickled, through one pipe per child. The jobs
see the same data and seeds as in one process, so the results are the
same too.

Everything runs in the calling process when n < 2, when `os.fork` does
not exist, when another thread is alive (a forked copy of a threaded
process can deadlock on a lock that another thread held), and inside a
running `map_jobs`, in the caller or in a child, so that nested calls
never run more than n processes.
"""

import contextlib
import os
import pickle
import signal
import threading
import traceback

# True while a map_jobs call runs; a forked child inherits it.
_running = False


def map_jobs(fn, items) -> list:
    """`[fn(x) for x in items]`, in item order, on up to `os.cpu_count()`
    processes.

    The first job in item order that raised an Exception has it re-raised
    here, with its type, message and attributes (such as `.line`). A child
    that exits without sending its results counts as a RuntimeError naming
    its exit status. When the caller's first job fails, or anything else
    (such as KeyboardInterrupt) interrupts the call, every child is killed
    and reaped at once; a later job's failure waits for the children,
    whose jobs may come before it.
    """
    global _running
    items = list(items)
    n = min(len(items), os.cpu_count() or 1)
    if n < 2 or not can_fork():
        n = 1
    outer, _running = _running, True
    pids, pipes = [], []
    try:
        for j in range(1, n):
            pid, pipe = _fork(fn, items[j::n])
            pids.append(pid)
            pipes.append(pipe)
        parts = [_run(fn, items[0::n])]
        if parts[0] and not parts[0][0][0]:
            raise parts[0][0][1]  # item 0 failed: no child's failure can come first
        for pipe in pipes:
            blob = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if code == 0 and blob:
                parts.append(pickle.loads(blob))
            else:
                message = f"a map_jobs child exited with status {code} without its results"
                parts.append([(False, RuntimeError(message))])
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
        _running = outer
    pairs = [None] * len(items)
    for j, part in enumerate(parts):
        for i, pair in zip(range(j, len(items), n), part):
            pairs[i] = pair
    results = []
    # A process stops at its first failure, so every pair missing here
    # comes after a failure in item order.
    for ok, value in pairs:
        if not ok:
            raise value
        results.append(value)
    return results


def can_fork() -> bool:
    """Whether this process may fork: `os.fork` exists, no other thread is
    alive (a forked copy of a threaded process can deadlock on a lock that
    another thread held) and no `map_jobs` call is running."""
    return hasattr(os, "fork") and threading.active_count() == 1 and not _running


def _run(fn, items) -> list:
    """(ok, result or exception) per item, up to the first failure."""
    pairs = []
    for x in items:
        try:
            pairs.append((True, fn(x)))
        except Exception as err:
            pairs.append((False, err))
            break
    return pairs


def _fork(fn, items):
    """Fork a child that runs `fn` over `items`. Returns its pid and the
    read end of the pipe its pickled `_run` pairs arrive on."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # The child leaves only through os._exit: it never returns into the
        # caller's stack, flushes the caller's stdio buffers or runs atexit.
        code = 1
        try:
            os.close(read_fd)
            data = pickle.dumps(_run(fn, items))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        except Exception:
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
