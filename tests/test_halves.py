import functools
import os

import recipro
from recipro._halves import _SPLIT_WORK, run_in_halves
from _processes import count_forks, no_child_left, refuse_fork, usable_cpus


def test_a_child_stream_larger_than_a_pipe_comes_back_whole(monkeypatch, tmp_path):
    # the child's four results pickle to about 200 KB, over a 64 KB pipe
    log = tmp_path / "checked"

    def check(i):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {i}\n")
        return bytes([i]) * 50_000

    items = list(range(8))
    usable_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    results = list(run_in_halves(check, items, [_SPLIT_WORK] * 8))
    no_child_left()
    assert results == list(map(check, items))
    assert len(forks) == 1
    lines = [line.split() for line in log.read_text().splitlines()[:8]]
    assert sorted(int(i) for pid, i in lines if int(pid) != os.getpid()) == [4, 5, 6, 7]


def test_no_child_is_forked_for_an_empty_half(monkeypatch):
    # the last item holds more than half of the work, so this process takes every item
    usable_cpus(monkeypatch, 2)
    refuse_fork(monkeypatch)
    assert list(run_in_halves(str, [0], [_SPLIT_WORK])) == ["0"]
    assert list(run_in_halves(str, [0, 1, 2], [1, 1, 10**7])) == ["0", "1", "2"]


def test_a_wrapped_public_name_keeps_every_check_here(monkeypatch):
    # nothing in the package wraps its own public names, so no decorator turns the split off
    assert [name for name in recipro.__all__ if hasattr(getattr(recipro, name), "__wrapped__")] == []
    usable_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    exact = recipro.is_prime
    monkeypatch.setattr(recipro, "is_prime", lambda n: exact(n))
    assert list(run_in_halves(str, [0, 1], [_SPLIT_WORK] * 2)) == ["0", "1"]
    no_child_left()
    assert len(forks) == 1
    monkeypatch.setattr(recipro, "is_prime", functools.wraps(exact)(lambda n: exact(n)))
    assert list(run_in_halves(str, [0, 1], [_SPLIT_WORK] * 2)) == ["0", "1"]
    assert len(forks) == 1
