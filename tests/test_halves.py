import os

from recipro._halves import _SPLIT_WORK, run_in_halves
from _processes import count_forks, no_child_left, usable_cpus


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
    results = list(run_in_halves(check, items, [_SPLIT_WORK] * 8, (check,)))
    no_child_left()
    assert results == list(map(check, items))
    assert len(forks) == 1
    lines = [line.split() for line in log.read_text().splitlines()[:8]]
    assert sorted(int(i) for pid, i in lines if int(pid) != os.getpid()) == [4, 5, 6, 7]
