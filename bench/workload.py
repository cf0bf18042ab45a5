"""Run one workload in this process and write its raw measurements as JSON.

run.py starts this script in a fresh process per workload; it is not meant
to be run by hand:

    python3 bench/workload.py WORKLOAD SEED SECONDS TRACE RESULT_JSON

The process sets up several times (fresh import of the package from
``src/`` plus input generation) and keeps the median, runs one untimed
warm-up pass, then repeats timed passes until SECONDS would be exceeded.
Every pass, warm-up included, is checked by the oracle.  With TRACE=1 every
other pass runs under the tracer.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import importlib
import itertools
import io
import json
import math
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

SWEEP_MAX = 200
# pairs-cap: per band, one pair with pq just below each of PAIRS_PER_BAND
# log-spaced targets; the seed draws p, and q is the largest prime with
# pq <= target.  Pairs in the lower band take the materialised transversal
# (pq <= 200000), the upper band the streamed product; 2**21 is the stream
# cap.  Fixed targets keep the work per call, and so its latency
# percentiles, nearly independent of the seed.
PAIR_BANDS = ((100_000, 200_000), (200_000, 1 << 21))
PAIRS_PER_BAND = 24
# lemma-suites: (suite, n, seed or None for the workload seed).  lemma2 keeps
# seed 0: its cost is dominated by the few largest groups drawn, so its time
# moves up to 4x from one seed to the next.  wilson ignores its seed.
LEMMA_SUITES = (("lemma1", 2000, None), ("lemma2", 200, 0), ("euler", 10000, None),
                ("wilson", 1500, None))
# reference() takes REFERENCE_S at the reference speed, about its time on a
# 2.1 GHz Xeon vCPU with CPython 3.11 when the host is quiet.  A sample is
# taken between calls once REFERENCE_EVERY_S of call time has passed.
REFERENCE_S = 0.0074
REFERENCE_ORDERS = (16, 12, 15)
REFERENCE_EVERY_S = 0.25


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop, a gauge of host speed.

    On a shared host the speed of this process flips by up to 50% within a
    second and drifts over minutes, and not by the same amount for every
    kind of code.  The loop mixes the package's three kinds of inner loop.
    Each call's time is divided by the slowdown the loop measures around it,
    so times read as seconds at the reference speed.
    """
    start = perf_counter()
    acc = 1
    for i in range(1, 30_000):  # running modular products, as in factorial_mod
        acc = acc * i % 1_000_003
    for coords in itertools.product(*(range(n) for n in REFERENCE_ORDERS)):
        # group enumeration, as in rank2_quotient_enumerated
        if not any(tuple(2 * c % n for c, n in zip(coords, REFERENCE_ORDERS))):
            acc += 1
    pairs = [(k % 251, k % 257) for k in range(1, 12_000)]  # as in build_transversal
    acc += len({a * 257 + b for a, b in pairs})  # and verify_transversal
    return perf_counter() - start


def slowdown(before: float, after: float) -> float:
    return (before + after) / 2 / REFERENCE_S


@dataclass
class Call:
    """One public call of a pass, with what the oracle needs to check it."""

    argv: list[str] | None = None          # cli_report.main arguments
    out: str | None = None                 # report the call writes
    pairs: list[tuple[int, int]] = field(default_factory=list)
    suite: tuple[str, int, int] | None = None  # run_suite(which, n, seed)

    @property
    def items(self) -> int:
        """Work items: k-steps for a pair call, cases for a suite call."""
        if self.suite:
            return self.suite[1]
        return sum(p * q // 2 for p, q in self.pairs)


def sweep_calls(seed: int) -> list[Call]:
    primes = oracle.odd_primes_up_to(SWEEP_MAX)
    pairs = [(p, q) for i, p in enumerate(primes) for q in primes[i + 1 :]]
    out = str(WORK / "sweep-200.csv")
    return [Call(["sweep", "--max", str(SWEEP_MAX), "--out", out], out, pairs)]


def draw_pairs(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    primes = oracle.odd_primes_up_to(PAIR_BANDS[-1][1] // 3)
    pairs = []
    for lo, hi in PAIR_BANDS:
        for i in range(PAIRS_PER_BAND):
            target = int(lo * (hi / lo) ** ((i + 0.5) / PAIRS_PER_BAND))
            while True:
                p = rng.choice(primes[: bisect.bisect_right(primes, math.isqrt(target))])
                q = primes[bisect.bisect_right(primes, target // p) - 1]
                if p < q and lo < p * q <= hi:
                    break
            pairs.append((p, q))
    return pairs


def pairs_calls(seed: int) -> list[Call]:
    calls = []
    for i, (p, q) in enumerate(draw_pairs(seed)):
        out = str(WORK / f"pairs-cap-{i}.csv")
        calls.append(Call(["verify", "--p", str(p), "--q", str(q), "--out", out], out, [(p, q)]))
    return calls


def lemma_calls(seed: int) -> list[Call]:
    return [Call(suite=(which, n, seed if fixed is None else fixed))
            for which, n, fixed in LEMMA_SUITES]


BUILDERS = {"sweep-200": sweep_calls, "pairs-cap": pairs_calls, "lemma-suites": lemma_calls}


def setup(workload: str, seed: int):
    """Import the package afresh and build the inputs; returns (seconds, modules, calls)."""
    for name in [n for n in sys.modules if n == "recipro" or n.startswith("recipro.")]:
        del sys.modules[name]
    start = perf_counter()
    cli_report = importlib.import_module("recipro.cli_report")
    suites = importlib.import_module("recipro.suites")
    calls = BUILDERS[workload](seed)
    elapsed = perf_counter() - start
    if not Path(cli_report.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"recipro was imported from {cli_report.__file__}, not from {SRC}")
    return elapsed, (cli_report, suites), calls


def run_pass(modules, calls: list[Call]):
    """Run every call in turn; returns (latencies, slowdowns, outcomes).

    reference() runs before the first call, after the last, and between
    calls once REFERENCE_EVERY_S of call time has passed, outside the
    latencies.  A call's slowdown comes from the two samples around it.
    """
    cli_report, suites = modules
    latencies, outcomes, references, previous = [], [], [reference()], []
    since_reference = 0.0
    with contextlib.redirect_stdout(io.StringIO()):
        for call in calls:
            if since_reference >= REFERENCE_EVERY_S:
                references.append(reference())
                since_reference = 0.0
            previous.append(len(references) - 1)
            t0 = perf_counter()
            try:
                if call.suite:
                    outcome = suites.run_suite(*call.suite)
                else:
                    outcome = cli_report.main(call.argv)
            except Exception as exc:  # a crash fails the call's rows; the run goes on
                outcome = exc
            latencies.append(perf_counter() - t0)
            since_reference += latencies[-1]
            outcomes.append(outcome)
    references.append(reference())
    slowdowns = [slowdown(references[i], references[i + 1]) for i in previous]
    return latencies, slowdowns, outcomes


def check(call: Call, outcome) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one call's outcome."""
    if isinstance(outcome, Exception):
        attempted = call.suite[1] if call.suite else len(call.pairs)
        return attempted, attempted, [f"{call.argv or call.suite}: {outcome!r}"]
    if call.suite:
        which, n, _ = call.suite
        if outcome.n_pass == n and outcome.n_fail == 0:
            return n, 0, []
        return n, max(n - outcome.n_pass, 1), [f"{which}: {outcome.n_pass}/{n} pass"]
    failed, messages = oracle.check_pair_report(call.out, call.pairs)
    Path(call.out).unlink(missing_ok=True)
    if outcome != 0:
        failed = len(call.pairs)
        messages.append(f"{' '.join(call.argv)}: exit code {outcome}")
    return len(call.pairs), failed, messages


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, result_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    setups, setup_slowdowns, before = [], [], reference()
    for _ in range(SETUP_REPEATS):
        elapsed, modules, calls = setup(workload, seed)
        after = reference()
        setups.append(elapsed)
        setup_slowdowns.append(slowdown(before, after))
        before = after

    tracer = Tracer() if trace else None
    totals = {"attempted": 0, "failed": 0}
    messages: list[str] = []

    def checked_pass(traced: bool) -> dict:
        gc.collect()  # every pass starts from the same heap state
        if traced:
            tracer.reset()
            tracer.install()
        try:
            latencies, slowdowns, outcomes = run_pass(modules, calls)
        finally:
            if traced:
                tracer.uninstall()
        for call, outcome in zip(calls, outcomes):
            attempted, failed, problems = check(call, outcome)
            totals["attempted"] += attempted
            totals["failed"] += failed
            messages.extend(problems[: 20 - len(messages)])
        record = {"traced": traced, "latency_s": latencies, "slowdown": slowdowns}
        if traced:
            record.update(spans=dict(tracer.spans), counts=dict(tracer.counts))
        return record

    checked_pass(False)  # warm-up, untimed

    passes = []
    deadline = perf_counter() + seconds
    while True:
        passes.append(checked_pass(trace and len(passes) % 2 == 1))
        enough = len(passes) >= (2 * MIN_TRACED_PASSES if trace else MIN_PASSES)
        typical = statistics.median(sum(p["latency_s"]) for p in passes)
        if enough and perf_counter() + typical > deadline:
            break

    result = {
        "setup_s": setups,
        "setup_slowdown": setup_slowdowns,
        "passes": passes,
        "items_per_pass": sum(call.items for call in calls),
        "pairs_per_pass": sum(len(call.pairs) for call in calls),
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "messages": messages,
        "absent": tracer.absent if tracer else [],
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
