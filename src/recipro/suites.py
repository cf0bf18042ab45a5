"""Seeded randomized verification suites, shared by the CLI and the tests.

All randomness comes from ``random.Random(seed)``, i.e. the Mersenne Twister
(MT19937) as shipped with CPython.  Every generator documents its exact draw
sequence, so a case list is reproducible from the seed alone.  run_suite
refuses a suite name that is not one of SUITE_NAMES, and a case count or a
seed that is a bool or not an int, with DomainError, and more than
budget.SUITE_CASE_CAP cases with CapacityError, for every suite, before any
case is drawn or any prime is sieved.

A lemma1 or euler call over the bound of _halves.run_in_halves, with two
CPUs usable, no other thread running and no callee wrapped, checks half of
its cases in one forked child; its result is the same as in one process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt, prod
from typing import Iterable

from . import budget
from ._halves import run_in_halves
from .abelian_core import (
    AbelianGroup,
    element_order,
    rank2,
    sum_all_elements,
    two_torsion_subgroup,
)
from .errors import CapacityError, DomainError
from .quotient_rank import (
    rank2_quotient_enumerated,
    rank2_quotient_formula,
)
from .residue_arith import (
    _check_int,
    _euler_failures,
    factorial_residues,
    first_odd_primes,
    odd_primes_up_to,
    validate_odd_prime,
)

GROUP_MAX_ORDER = 1 << 12
GROUP_MAX_FACTORS = 4
GROUP_MAX_FACTOR_ORDER = 20
EVEN_FACTOR_CHOICES = (2, 4, 6, 8, 10, 12, 16, 20)
FORCED_EVEN_CASES = ((4, 4), (2, 4))
EULER_MAX_PRIME = 2000
EULER_MAX_NUMERATOR = 1_000_000
PAIR_MIN_EXCLUSIVE = 200
PAIR_MAX_PRODUCT = 200_000


def random_factor_lists(n_cases: int, seed: int) -> list[tuple[int, ...]]:
    """Random cyclic factor lists with group order at most GROUP_MAX_ORDER.

    Per case: draw k = randint(1, 4), then k draws of randint(1, 20); the
    whole list is rejected and redrawn while the product exceeds 2**12.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(n_cases):
        while True:
            k = rng.randint(1, GROUP_MAX_FACTORS)
            orders = tuple(
                rng.randint(1, GROUP_MAX_FACTOR_ORDER) for _ in range(k)
            )
            if prod(orders) <= GROUP_MAX_ORDER:
                break
        out.append(orders)
    return out


def random_even_factor_lists(n_cases: int, seed: int) -> list[tuple[int, ...]]:
    """Random all-even factor lists.

    Per case: draw k = randint(1, 4), then k choices from
    (2, 4, 6, 8, 10, 12, 16, 20).  Products never exceed 20**4 = 160000,
    which is inside budget.GROUP_ENUM_CAP = 2**22.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(n_cases):
        k = rng.randint(1, GROUP_MAX_FACTORS)
        out.append(tuple(rng.choice(EVEN_FACTOR_CHOICES) for _ in range(k)))
    return out


def random_euler_cases(n_cases: int, seed: int) -> list[tuple[int, int]]:
    """Random (q, p) pairs for the multiple-product identity.

    Per case: p = choice over the odd primes <= 2000, then
    q = randint(1, 10**6) redrawn while p divides q.
    """
    rng = random.Random(seed)
    primes = odd_primes_up_to(EULER_MAX_PRIME)
    cases = []
    for _ in range(n_cases):
        p = rng.choice(primes)
        qv = rng.randint(1, EULER_MAX_NUMERATOR)
        while qv % p == 0:
            qv = rng.randint(1, EULER_MAX_NUMERATOR)
        cases.append((qv, p))
    return cases


def random_prime_pairs(n_cases: int, seed: int) -> list[tuple[int, int]]:
    """Random pairs of odd primes p < q with p > PAIR_MIN_EXCLUSIVE (200) and
    pq <= PAIR_MAX_PRODUCT (200000).

    Per case: p = choice over the eligible smaller primes (those in
    (200, isqrt(200000)] with at least one partner), then q = choice over
    the odd primes in (p, 200000 // p].
    """
    all_primes = odd_primes_up_to(PAIR_MAX_PRODUCT // (PAIR_MIN_EXCLUSIVE + 1) + 1)
    candidates = []
    for p in all_primes:
        if p <= PAIR_MIN_EXCLUSIVE or p > isqrt(PAIR_MAX_PRODUCT):
            continue
        partners = [r for r in all_primes if p < r <= PAIR_MAX_PRODUCT // p]
        if partners:
            candidates.append((p, partners))
    rng = random.Random(seed)
    cases = []
    for _ in range(n_cases):
        p, partners = rng.choice(candidates)
        cases.append((p, rng.choice(partners)))
    return cases


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    n_pass: int
    n_fail: int
    failures: tuple[str, ...]

    @property
    def total(self) -> int:
        return self.n_pass + self.n_fail

    @property
    def all_pass(self) -> bool:
        return self.n_fail == 0


def _tally(suite: str, outcomes: Iterable[tuple[bool, str]]) -> SuiteResult:
    total, failures = 0, []
    for total, (ok, desc) in enumerate(outcomes, 1):
        if not ok:
            failures.append(desc)
    return SuiteResult(suite, total - len(failures), len(failures), tuple(failures[:20]))


def _lemma1_holds(orders: tuple[int, ...]) -> bool:
    G = AbelianGroup(orders)
    a = sum_all_elements(G)
    if rank2(G).rank == 1:
        torsion = two_torsion_subgroup(G)
        nontrivial = [e for e in torsion if any(e)]
        return len(torsion) == 2 and element_order(G, a) == 2 and nontrivial == [a]
    return not any(a)


def run_sum_elements_suite(n_cases: int, seed: int) -> SuiteResult:
    """Suite ``lemma1``: on random groups the sum of all elements is the
    identity exactly when the 2-rank differs from 1, and otherwise is the
    unique element of order 2.

    The groups are checked by _halves.run_in_halves, each weighed by the
    |G| * k coordinates sum_all_elements reads.
    """
    cases = random_factor_lists(n_cases, seed)
    callees = (sum_all_elements, rank2, two_torsion_subgroup, element_order, AbelianGroup.iter_coords)
    passed = run_in_halves(_lemma1_holds, cases, [prod(orders) * len(orders) for orders in cases],
                           callees)
    return _tally("lemma1", zip(passed, (f"orders={orders}" for orders in cases)))


def run_quotient_rank_suite(n_cases: int, seed: int) -> SuiteResult:
    """Suite ``lemma2``: closed-form quotient rank equals the enumerated rank.

    The first two cases are always the forced lists (4, 4) and (2, 4); the
    remaining n_cases - 2 are drawn by random_even_factor_lists.
    """
    cases = list(FORCED_EVEN_CASES[:n_cases])
    if n_cases > len(FORCED_EVEN_CASES):
        cases += random_even_factor_lists(n_cases - len(FORCED_EVEN_CASES), seed)
    outcomes = []
    for orders in cases:
        formula = rank2_quotient_formula(orders)
        enumerated = rank2_quotient_enumerated(orders)
        outcomes.append((formula == enumerated, f"orders={orders}"))
    return _tally("lemma2", outcomes)


def run_euler_suite(n_cases: int, seed: int) -> SuiteResult:
    """Suite ``euler``: the multiple-product identity on random (q, p), every
    case checked by one residue_arith._euler_failures call."""
    cases = random_euler_cases(n_cases, seed)
    failures = _euler_failures(cases)
    # a generator, so that only the descriptions of failures are held
    outcomes = ((i not in failures, f"q={qv} p={p}") for i, (qv, p) in enumerate(cases))
    return _tally("euler", outcomes)


def run_wilson_suite(n_cases: int, seed: int) -> SuiteResult:
    """Suite ``wilson``: (p-1)! = -1 mod p for the first n odd primes.

    One factorial_residues call serves every prime, each tested once, and
    checks the factorial loop cap; the SUITE_CASE_CAP-th odd prime, 1299721,
    is far below it.  Deterministic; the seed is accepted for interface
    uniformity only.
    """
    primes = [validate_odd_prime(p) for p in first_odd_primes(n_cases)]
    residues = factorial_residues([(p - 1, p) for p in primes])
    outcomes = [(r == p - 1, f"p={p}") for p, r in zip(primes, residues)]
    return _tally("wilson", outcomes)


_RUNNERS = {
    "lemma1": run_sum_elements_suite,
    "lemma2": run_quotient_rank_suite,
    "euler": run_euler_suite,
    "wilson": run_wilson_suite,
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(which: str, n_cases: int, seed: int) -> SuiteResult:
    if not isinstance(which, str) or which not in _RUNNERS:
        raise DomainError(f"unknown suite {which!r}; choose from {', '.join(SUITE_NAMES)}")
    if _check_int(n_cases, "n_cases") < 1:
        raise DomainError(f"n_cases must be >= 1, got {n_cases}")
    # a seed of None would draw from OS entropy, and no case list would repeat
    _check_int(seed, "seed")
    cap = budget.SUITE_CASE_CAP
    if n_cases > cap:
        raise CapacityError(f"{which} suite needs {n_cases} cases, over the cap of {cap}")
    return _RUNNERS[which](n_cases, seed)
