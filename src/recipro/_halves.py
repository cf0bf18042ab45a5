"""Independent checks run as two halves, one of them in a forked child.

A suite whose checks are independent hands them to :func:`run_in_halves`.
When the call's work is large, two CPUs are usable, no other thread runs and
none of the functions the checks call is wrapped, the calling process checks
one half while exactly one ``os.fork()`` child checks the other and sends back
one flag byte per item through a pipe; otherwise every check runs here, in
order.  Either way the flags are the same, so a suite's result does not
depend on which way it ran.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

from .errors import InternalCheckError

# the least work, in the caller's steps (about 25-35 ns each), that is split.
# A split of trivial checks costs about 3 ms (fork, copy-on-write faults, pipe
# and wait; 2 vCPU, CPython 3.11.7).  At 5 * 10^5 steps the split gained
# nothing; at 10^6 (euler at 2,200 cases) it took 57-59 ms to 40, at 2 * 10^6
# 106-114 ms to 68-75.
_SPLIT_WORK = 1_000_000


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_in_halves(check: Callable[[object], bool], items: Sequence, work: Sequence[int],
                  callees: Sequence[Callable]) -> list[bool]:
    """[check(item) for item in items], the items split over two processes
    when that pays; work[i] is item i's cost in the caller's steps, and
    callees are the functions check calls.

    The split needs os.fork, at least two usable CPUs, no thread but this
    one (a forked child would hold only a copy of it, and none of the locks
    the others held), no callee with a __wrapped__ attribute (a tracer's or
    profiler's wrapper, as functools.wraps makes, counts only the calls made
    in its own process), and sum(work) >= _SPLIT_WORK.  Each item, in order, goes
    to the half with less work so far; the child checks its half, writes its
    flags and always ends with os._exit, and is reaped here even when a check
    of this half raises.  A child that exits nonzero or sends the wrong
    number of flags is an InternalCheckError.
    """
    if (not hasattr(os, "fork") or sum(work) < _SPLIT_WORK or _usable_cpus() < 2
            or threading.active_count() != 1 or any(hasattr(f, "__wrapped__") for f in callees)):
        return [check(item) for item in items]
    halves, loads = ([], []), [0, 0]
    for i, w in enumerate(work):
        side = loads[1] < loads[0]
        halves[side].append(i)
        loads[side] += w
    mine, theirs = halves
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: the flags do not depend on the split
        os.close(read_end)
        os.close(write_end)
        return [check(item) for item in items]
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(bytes(check(items[i]) for i in theirs))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    flags = [False] * len(items)
    try:
        # the read end closes before the wait, so a child still writing cannot block it
        with open(read_end, "rb") as pipe:
            for i in mine:
                flags[i] = check(items[i])
            sent = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or len(sent) != len(theirs):
        raise InternalCheckError(
            f"the child checking {len(theirs)} of {len(items)} items exited with code {code}"
            f" after sending {len(sent)} flags")
    for i, flag in zip(theirs, sent):
        flags[i] = bool(flag)
    return flags
