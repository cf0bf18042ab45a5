"""Independent checks run as two halves, one of them in a forked child.

A caller whose checks are independent hands them to :func:`run_in_halves`:
the ``lemma1`` and ``euler`` suites, whose checks give bools, and
``reciprocity_pipeline.verify_pairs``, whose checks give pair verdicts.
When the call's work is large, two CPUs are usable, no other thread runs and
none of the functions the checks call is wrapped, the calling process checks
the first items, until they hold half of the work, while exactly one
``os.fork()`` child checks the rest and sends back their results, pickled,
through a pipe; otherwise every check runs here, in order.  Either way the
results come back in item order and are the same, so a caller's output does
not depend on which way it ran.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import threading
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InternalCheckError, ReciproError

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


def run_in_halves(check: Callable[[object], object], items: Sequence, work: Iterable[int],
                  callees: Sequence[Callable]) -> Iterator:
    """check(item) for each item, in order, the items split over two processes
    when that pays; work yields each item's cost in the caller's steps, in
    item order, and is read at most once, and callees are the functions
    check calls.

    A generator: nothing is checked, and no process started, before the
    first result is drawn.  The split needs os.fork, at least two usable
    CPUs, no thread but this one (a forked child would hold only a copy of
    it, and none of the locks the others held), no callee with a __wrapped__
    attribute (a tracer's or profiler's wrapper, as functools.wraps makes,
    counts only the calls made in its own process), and
    sum(work) >= _SPLIT_WORK.  This process checks and yields the items of
    the least prefix that holds half of the work; the child checks the rest,
    pickles each result into a buffer and writes the buffer through a pipe
    in one write once it is done.  This process then reads the pipe to its
    end, reaps the child, and only then yields the child's results.

    A ReciproError that a check raises is raised here in its item's turn,
    as one process would raise it; the child sends it in place of its
    result and checks nothing after it.  The child always ends with
    os._exit, and is killed and reaped when this generator stops early: on
    an error, or when its caller stops drawing and closes it.  A child that
    exits nonzero, or whose stream is short or garbled, is an
    InternalCheckError, raised before any of its results is yielded when it
    exits nonzero, so a caller that stops at the last item still sees it.
    """
    pid = None
    if (hasattr(os, "fork") and _usable_cpus() >= 2 and threading.active_count() == 1
            and not any(hasattr(f, "__wrapped__") for f in callees)):
        loads = list(accumulate(work))
        if loads and loads[-1] >= _SPLIT_WORK:
            cut = next(k for k, load in enumerate(loads, 1) if 2 * load >= loads[-1])
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: the results do not depend on the split
                os.close(read_end)
                os.close(write_end)
    if pid is None:
        yield from map(check, items)
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            buffer = io.BytesIO()
            for item in items[cut:]:
                try:
                    pickle.dump(check(item), buffer, pickle.HIGHEST_PROTOCOL)
                except ReciproError as exc:  # sent in place of its result
                    pickle.dump(exc, buffer, pickle.HIGHEST_PROTOCOL)
                    break
            with open(write_end, "wb") as pipe:
                pipe.write(buffer.getbuffer())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    pipe, code = open(read_end, "rb"), None
    try:
        yield from map(check, items[:cut])
        data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        pipe.close()
        if code is None:  # stopped early: the child may still be checking
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = InternalCheckError(f"the child checking {len(items) - cut} of {len(items)} items"
                                f" exited with code {code} after sending {len(data)} bytes")
    if code:
        raise failed
    stream = io.BytesIO(data)
    for _ in range(cut, len(items)):
        try:
            result = pickle.load(stream)
        except Exception as exc:  # a short or garbled stream
            raise failed from exc
        if isinstance(result, ReciproError):
            raise result
        yield result
