"""Independent checks run as two halves, one of them in a forked child.

A caller whose checks are independent hands them to :func:`run_in_halves`:
the ``lemma1`` and ``euler`` suites, whose checks give bools, and
``reciprocity_pipeline.verify_pairs``, whose checks give pair verdicts.
When the call's work is large, two CPUs are usable, no other thread runs and
none of the functions the checks call is wrapped, the calling process checks
one half while exactly one ``os.fork()`` child checks the other and sends
back each result, pickled, through a pipe; otherwise every check runs here,
in order.  Either way the results come back in item order and are the same,
so a caller's output does not depend on which way it ran.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import threading
from collections import deque
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
    sum(work) >= _SPLIT_WORK.  Each item, in order, goes to the half with
    less work so far.  The child checks its half in order and writes each
    result, pickled after its length, through a write buffer (4 KB on Linux
    pipes), so it sends results in batches and runs at most a buffer and a
    pipe ahead.  This process yields every result in item order: its own in
    their turn, the child's as they come in.  While the child's next result
    is not in yet, it checks its own next items ahead of their turn and
    holds their results, so it holds only what it checked while it would
    have waited.

    A ReciproError that a check raises in the child, or here ahead of its
    item's turn, is raised here in that turn, as one process would raise
    it; the child sends it in place of its result and sends nothing after
    it.  The child always ends with os._exit.  It is reaped here once its
    last result is read, and killed and reaped when this generator stops
    early: on an error, or when its caller stops drawing and closes it.  A
    child that exits nonzero or sends too few results is an
    InternalCheckError.
    """
    pid = None
    if (hasattr(os, "fork") and _usable_cpus() >= 2 and threading.active_count() == 1
            and not any(hasattr(f, "__wrapped__") for f in callees)):
        theirs, loads = bytearray(), [0, 0]  # theirs[i] is 1 for the child's items
        for w in work:
            side = loads[1] < loads[0]
            theirs.append(side)
            loads[side] += w
        if sum(loads) >= _SPLIT_WORK:
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
            with open(write_end, "wb") as pipe:
                for item in (item for item, child in zip(items, theirs) if child):
                    result = _outcome(check, item)
                    data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                    pipe.write(len(data).to_bytes(4, "little") + data)
                    if isinstance(result, ReciproError):
                        break
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    inbox = _Inbox(read_end)
    mine = deque(item for item, child in zip(items, theirs) if not child)
    held = deque()  # outcomes of this process's items, checked ahead of their turn
    owed, code = sum(theirs), None
    try:
        for child in theirs:
            if not child:
                result = held.popleft() if held else check(mine.popleft())
            else:
                while mine and not inbox.ready():
                    held.append(_outcome(check, mine.popleft()))
                try:
                    result = inbox.take()
                except EOFError:  # the child ended short of this result
                    break
                owed -= 1
                if not owed:
                    code = _reap(pid, inbox)
                    if code:
                        break
            if isinstance(result, ReciproError):
                raise result
            yield result
        if code is None:
            code = _reap(pid, inbox)
    finally:
        if code is None:  # stopped early: the child may still be checking
            os.kill(pid, signal.SIGKILL)
            _reap(pid, inbox)
    if code or owed:
        raise InternalCheckError(
            f"the child checking {sum(theirs)} of {len(items)} items exited with code {code}"
            f" after sending {sum(theirs) - owed} results")


def _outcome(check: Callable[[object], object], item):
    """check(item), or the ReciproError it raised, to be raised again in the item's turn."""
    try:
        return check(item)
    except ReciproError as exc:
        return exc


class _Inbox:
    """The child's results as they come in through the pipe, each one sent as
    a pickle after its length in 4 little-endian bytes."""

    def __init__(self, fd: int):
        self.pipe = open(fd, "rb", buffering=0)
        self.poll = select.poll()
        self.poll.register(fd, select.POLLIN)
        self.data, self.results, self.ended = bytearray(), deque(), False

    def _read(self) -> None:
        """One read of the pipe; every result now whole is decoded into results."""
        chunk = self.pipe.read(1 << 16)
        self.ended = not chunk
        data, start = self.data, 0
        data += chunk
        # short of 4 bytes, data also falls short of 4 plus the length they begin
        while len(data) >= (end := start + 4 + int.from_bytes(data[start : start + 4], "little")):
            self.results.append(pickle.loads(data[start + 4 : end]))
            start = end
        del data[:start]

    def ready(self) -> bool:
        """True once a result is in or the child has closed the pipe, never waiting."""
        while not self.results and not self.ended:
            if not self.poll.poll(0):
                return False
            self._read()
        return True

    def take(self):
        """The next result, waiting for it; EOFError if the child closed the pipe first."""
        while not self.results:
            if self.ended:
                raise EOFError
            self._read()
        return self.results.popleft()


def _reap(pid: int, inbox: _Inbox) -> int:
    """Close the read end, then wait for the child: a child still writing cannot block it."""
    inbox.pipe.close()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
