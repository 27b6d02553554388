"""One fork pool for work that splits into independent items.

`map_groups` cuts items, in order, into one contiguous group per usable
core, with no flag, and runs the first group in the caller and each other
one in a child made by os.fork. `svm.solve_jobs` and the CLI's row
commands call it; each makes a group's result depend on its items alone,
so the output does not depend on the core count. Without os.fork or
os.sched_getaffinity (Windows, macOS) all items are one group, in-process.
"""

import os
import pickle
import signal
import warnings
from itertools import accumulate


def map_groups(fn, items, costs=None):
    """[fn(group) for each contiguous group of items], one group per core;
    costs (> 0, one per item, default all 1) balance the groups."""
    items = list(items)
    return _fork_map(fn, _groups(items, costs or [1] * len(items), _cores()))


def _cores():
    """The CPUs this process may run on, which sizes the pool; 1 where
    os.fork or os.sched_getaffinity is missing (Windows, macOS)."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _groups(items, costs, w):
    """items, in order, cut into at most w contiguous non-empty groups of
    about equal total cost (costs > 0): an item goes to the w-quantile in
    which the midpoint of its cost falls."""
    total = sum(costs)
    which = [int((end - cost / 2) * w // total) for end, cost in zip(accumulate(costs), costs)]
    groups = [[item for item, g in zip(items, which) if g == k] for k in range(w)]
    return [group for group in groups if group]


def _fork_map(fn, args):
    """[fn(arg) for arg in args]: this process runs fn(args[0]), a child
    made by os.fork each later one.

    A child inherits fn and its argument through the fork, so neither is
    pickled. It pickles back only its result, or the exception it raised,
    and the warnings it recorded, and always ends in os._exit, so it never
    returns into the caller's code. The parent reads each pipe to its end
    before reaping its child, since a result can exceed the pipe buffer.
    Then it re-issues a child's warnings in order and raises its exception,
    as the call would have in-process. Every child is reaped before this
    returns or raises; if the parent's own call raises, killed first.
    """
    children, raw, statuses = [], [], []
    try:
        for arg in args[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(fn, arg, write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        out = [fn(arg) for arg in args[:1]]
        raw = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    return out + [_unpack(data, status) for data, status in zip(raw, statuses)]


def _child(fn, arg, write):
    """The body of a `_fork_map` child: run fn(arg), send (ok, result or
    exception, warnings) through the pipe end `write`, exit. Never returns;
    the exit status is 0 only once the whole payload is written."""
    code = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                done = (True, fn(arg))
            except BaseException as exc:  # the parent raises it again
                done = (False, exc)
        warned = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        try:
            data = pickle.dumps((*done, warned), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, pickle.PicklingError(
                f"a worker's result could not be pickled: {exc!r}"), []))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _unpack(data, status):
    """A `_fork_map` child's payload and wait status -> its result."""
    if status != 0:
        raise ChildProcessError(f"a worker ended with wait status {status} before its result")
    ok, value, warned = pickle.loads(data)
    for message, category, filename, lineno in warned:
        warnings.warn_explicit(message, category, filename, lineno)
    if not ok:
        raise value
    return value
