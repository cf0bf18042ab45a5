"""Helpers for the tests of calls that may split over two processes."""

import functools
import os
import sys

import pytest


def usable_cpus(monkeypatch, n):
    """Make the split see n usable CPUs, as under taskset."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refuse_fork(monkeypatch):
    """Make any call of os.fork fail the test."""
    def refuse():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", refuse)


def count_forks(monkeypatch):
    """A list that gets one entry per os.fork call made in this process."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    return forks


def wrap_everywhere(monkeypatch, fn):
    """Replace fn with a functools.wraps wrapper in every recipro namespace that
    binds it, as the benchmark's tracer installs its wrappers."""
    wrapper = functools.wraps(fn)(lambda *args, **kwargs: fn(*args, **kwargs))
    for name, module in list(sys.modules.items()):
        if name == "recipro" or name.startswith("recipro."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
