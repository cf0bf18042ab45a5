"""Seeded randomized verification suites, shared by the CLI and the tests.

All randomness comes from ``random.Random(seed)``, i.e. the Mersenne Twister
(MT19937) as shipped with CPython.  Every generator documents its exact draw
sequence, so a case list is reproducible from the seed alone.  The draws go
through _below, which calls the public ``Random.getrandbits`` as CPython's
own ``randrange``, ``randint`` and ``choice`` do, so each draw is the one
those calls make (checked on CPython 3.10 to 3.13).  run_suite
refuses a suite name that is not one of SUITE_NAMES, and a case count or a
seed that is a bool or not an int, with DomainError, and more than
budget.SUITE_CASE_CAP cases with CapacityError, for every suite, before any
case is drawn or any prime is sieved.

A lemma1 or euler call over the bound of _halves.run_in_halves, with two
CPUs usable, no other thread running and no public name wrapped, checks half
of its cases in one forked child; its result is the same as in one process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt, prod
from typing import Callable, Iterable, Sequence

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


def _below(bits: Callable[[int], int], n: int) -> int:
    """What ``Random.randrange(n)`` returns for n >= 1, bits being that
    Random's getrandbits: as CPython computes it, getrandbits(k) with
    k = n.bit_length(), drawn again while it is >= n.  ``randint(a, b)`` is
    a + _below(bits, b - a + 1) and ``choice(seq)`` is
    seq[_below(bits, len(seq))]."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_factor_lists(n_cases: int, seed: int) -> list[tuple[int, ...]]:
    """Random cyclic factor lists with group order at most GROUP_MAX_ORDER.

    Per case: draw k = randint(1, 4), then k draws of randint(1, 20); the
    whole list is rejected and redrawn while the product exceeds 2**12.
    Each randint is drawn by _below, as CPython's randint draws it.
    """
    bits = random.Random(seed).getrandbits
    out = []
    for _ in range(n_cases):
        while True:
            k = 1 + _below(bits, GROUP_MAX_FACTORS)
            orders = tuple(1 + _below(bits, GROUP_MAX_FACTOR_ORDER) for _ in range(k))
            if prod(orders) <= GROUP_MAX_ORDER:
                break
        out.append(orders)
    return out


def random_even_factor_lists(n_cases: int, seed: int) -> list[tuple[int, ...]]:
    """Random all-even factor lists.

    Per case: draw k = randint(1, 4), then k choices from
    (2, 4, 6, 8, 10, 12, 16, 20).  Products never exceed 20**4 = 160000,
    which is inside budget.GROUP_ENUM_CAP = 2**22.  Each randint and choice
    is drawn by _below, as CPython's randint and choice draw them.
    """
    bits = random.Random(seed).getrandbits
    n_choices = len(EVEN_FACTOR_CHOICES)
    out = []
    for _ in range(n_cases):
        k = 1 + _below(bits, GROUP_MAX_FACTORS)
        out.append(tuple(EVEN_FACTOR_CHOICES[_below(bits, n_choices)] for _ in range(k)))
    return out


def random_euler_cases(n_cases: int, seed: int) -> list[tuple[int, int]]:
    """Random (q, p) pairs for the multiple-product identity.

    Per case: p = choice over the odd primes <= 2000, then
    q = randint(1, 10**6) redrawn while p divides q.  Each choice and
    randint is drawn by _below, as CPython's choice and randint draw them.
    """
    bits = random.Random(seed).getrandbits
    primes = odd_primes_up_to(EULER_MAX_PRIME)
    n_primes = len(primes)
    cases = []
    for _ in range(n_cases):
        p = primes[_below(bits, n_primes)]
        qv = 1 + _below(bits, EULER_MAX_NUMERATOR)
        while qv % p == 0:
            qv = 1 + _below(bits, EULER_MAX_NUMERATOR)
        cases.append((qv, p))
    return cases


def random_prime_pairs(n_cases: int, seed: int) -> list[tuple[int, int]]:
    """Random pairs of odd primes p < q with p > PAIR_MIN_EXCLUSIVE (200) and
    pq <= PAIR_MAX_PRODUCT (200000).

    Per case: p = choice over the eligible smaller primes (those in
    (200, isqrt(200000)] with at least one partner), then q = choice over
    the odd primes in (p, 200000 // p].  Each choice is drawn by _below, as
    CPython's choice draws it.
    """
    all_primes = odd_primes_up_to(PAIR_MAX_PRODUCT // (PAIR_MIN_EXCLUSIVE + 1) + 1)
    candidates = []
    for p in all_primes:
        if p <= PAIR_MIN_EXCLUSIVE or p > isqrt(PAIR_MAX_PRODUCT):
            continue
        partners = [r for r in all_primes if p < r <= PAIR_MAX_PRODUCT // p]
        if partners:
            candidates.append((p, partners))
    bits = random.Random(seed).getrandbits
    cases = []
    for _ in range(n_cases):
        p, partners = candidates[_below(bits, len(candidates))]
        cases.append((p, partners[_below(bits, len(partners))]))
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


def _tally(suite: str, oks: Iterable[bool], cases: Sequence, describe: Callable[..., str]
           ) -> SuiteResult:
    """One bool per case, in case order; describe makes the text of a failing
    case, and runs only for the first 20 failures, the ones kept."""
    oks = list(oks)
    failed = [case for ok, case in zip(oks, cases) if not ok]
    described = tuple(map(describe, failed[:20]))
    return SuiteResult(suite, len(oks) - len(failed), len(failed), described)


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
    passed = run_in_halves(_lemma1_holds, cases, [prod(orders) * len(orders) for orders in cases])
    return _tally("lemma1", passed, cases, "orders={}".format)


def run_quotient_rank_suite(n_cases: int, seed: int) -> SuiteResult:
    """Suite ``lemma2``: closed-form quotient rank equals the enumerated rank.

    The first two cases are always the forced lists (4, 4) and (2, 4); the
    remaining n_cases - 2 are drawn by random_even_factor_lists.
    """
    cases = list(FORCED_EVEN_CASES[:n_cases])
    if n_cases > len(FORCED_EVEN_CASES):
        cases += random_even_factor_lists(n_cases - len(FORCED_EVEN_CASES), seed)
    oks = [rank2_quotient_formula(orders) == rank2_quotient_enumerated(orders) for orders in cases]
    return _tally("lemma2", oks, cases, "orders={}".format)


def run_euler_suite(n_cases: int, seed: int) -> SuiteResult:
    """Suite ``euler``: the multiple-product identity on random (q, p), every
    case checked by one residue_arith._euler_failures call."""
    cases = random_euler_cases(n_cases, seed)
    failures = _euler_failures(cases)
    return _tally("euler", (i not in failures for i in range(len(cases))), cases,
                  lambda case: "q={} p={}".format(*case))


def run_wilson_suite(n_cases: int, seed: int) -> SuiteResult:
    """Suite ``wilson``: (p-1)! = -1 mod p for the first n odd primes.

    One factorial_residues call serves every prime, each tested once, and
    checks the factorial loop cap; the SUITE_CASE_CAP-th odd prime, 1299721,
    is far below it.  Deterministic; the seed is accepted for interface
    uniformity only.
    """
    primes = [validate_odd_prime(p) for p in first_odd_primes(n_cases)]
    residues = factorial_residues([(p - 1, p) for p in primes])
    return _tally("wilson", [r == p - 1 for p, r in zip(primes, residues)], primes, "p={}".format)


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
