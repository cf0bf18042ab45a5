"""Exact modular arithmetic: primality, Legendre symbols, factorial products.

Python integers are arbitrary precision, so every product here is exact by
construction.  Legendre symbols are returned as the plain integers +1 / -1;
the value 0 never occurs because arguments must be coprime to the modulus
(anything else is a :class:`~recipro.errors.DomainError`).  Odd primes are
plain validated ints as well, see :func:`validate_odd_prime`.

Nothing in this module keeps state between calls but the square tables of
legendre_oracle, an lru_cache; every function may be called from several
threads at once.  A large batch of Euler-criterion checks may fork one child
process for half of its windows, but only while no other thread runs (see
_halves.run_in_halves).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, zip_longest
from math import isqrt, log, perm, prod
from typing import Iterable

from . import budget
from ._halves import run_in_halves
from .errors import DomainError, InternalCheckError

_INT64_LIMIT = 1 << 64

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24 and in
# particular for the full 64-bit range this module accepts.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (psi, k): the first k witnesses decide every n < psi, psi being the least
# strong pseudoprime to all of them (OEIS A014233); all 12 decide n < 2**64
_MR_PREFIXES = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9), (_INT64_LIMIT, 12),
)


def _check_int(n, name: str = "argument") -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    return n


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    Trial division by the twelve witnesses, then Miller-Rabin to the least
    prefix of them that is proven to decide n (_MR_PREFIXES): two bases below
    1,373,653, all twelve only from 3,825,123,056,546,413,051 on.
    """
    _check_int(n)
    if n < 0 or n >= _INT64_LIMIT:
        raise DomainError(f"is_prime expects 0 <= n < 2**64, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    # a composite below 41^2 has a prime factor of at most 37, and every
    # prime up to 37 is a witness, so trial division has decided n already
    if n < 41 * 41:
        return True
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for psi, k in _MR_PREFIXES:
        if n < psi:
            break
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_odd_prime(p: int) -> int:
    """Return p unchanged after checking it is an odd prime >= 3.

    is_prime refuses a p that is not an int, so p is checked once.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p == 2:
        raise DomainError("2 is not odd")
    return p


def _unit_mod(a: int, p: int) -> int:
    """a reduced into [1, p-1]; a multiple of p is out of contract."""
    _check_int(a)
    r = a % p
    if r == 0:
        raise DomainError(f"{a} is not a unit modulo {p}")
    return r


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol of a modulo the odd prime p, via a^((p-1)/2) mod p.

    Returns +1 or -1; a must be coprime to p.
    """
    p = validate_odd_prime(p)
    return euler_symbol(_unit_mod(a, p), p)


def euler_symbol(a: int, p: int) -> int:
    """(a/p) as +1 / -1 from one a^((p-1)/2) mod p, with nothing re-checked.

    For callers that already hold a validated odd prime p and an int a
    coprime to it; :func:`legendre_euler` is the checked entry point.
    """
    r = pow(a, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    # unreachable for prime p: the half power of a unit is a square root of 1
    raise InternalCheckError(f"{a}^(({p}-1)/2) mod {p} gave {r}, expected 1 or {p - 1}")


@lru_cache(maxsize=64)
def _square_residues(p: int) -> bytes:
    squares = bytearray(p)
    for x in range(1, (p - 1) // 2 + 1):
        squares[x * x % p] = 1
    return bytes(squares)


def legendre_oracle(a: int, p: int) -> int:
    """Legendre symbol by enumerating the nonzero squares modulo p.

    Independent of :func:`legendre_euler`; O(p), hence capped.  The squares
    are cached per prime as one byte per residue, 1 iff a nonzero square.
    """
    p = validate_odd_prime(p)
    budget.require_within(p, budget.SQUARE_ORACLE_CAP, "square enumeration")
    a = _unit_mod(a, p)
    return 1 if _square_residues(p)[a] else -1


def _block_products(step: int, points: list[tuple[int, int]], acc: int, done: int) -> list[int]:
    """acc * ((done+1) step)...(n step) mod m for each (n, m) in points, n ascending
    from done on, given acc = (1 step)...(done step) modulo the product of the moduli.

    Each multiple after done up to the last n is multiplied once, two consecutive ones
    per reduction (an odd gap to the next n takes its first one alone),
    modulo the product of the moduli still pending, which every pending m
    divides; each point is read off at its n, its m then leaving the product.
    """
    pending = prod(m for _, m in points)
    products = []
    for n, m in points:
        if (n - done) % 2:
            done += 1
            acc = acc * (done * step) % pending
        for t in range((done + 1) * step, n * step, 2 * step):
            acc = acc * t * (t + step) % pending
        done = n
        products.append(acc % m)
        pending //= m
    return products


# points per block of the remainder tree, and lanes per batch of euler left
# sides: blocks of 1, 4, 8 and 16 took 12.5, 10.6, 9.7 and 9.4 ms on the first
# 1,500 Wilson points; 12 to 24 lanes ran fastest
_BLOCK = 16


def _moduli_tree(blocks: list[list[tuple[int, int]]]) -> tuple:
    """(M,) for one block, else (M, left, right) over the two halves of the
    blocks, M being the product of every modulus below."""
    if len(blocks) == 1:
        return (prod(m for _, m in blocks[0]),)
    left, right = _moduli_tree(blocks[: len(blocks) // 2]), _moduli_tree(blocks[len(blocks) // 2 :])
    return left[0] * right[0], left, right


def _running_products(points: list[tuple[int, int]]) -> list[int]:
    """n! mod m for each (n, m) in points, n ascending.

    The points are cut into blocks of _BLOCK and served by the accumulating
    remainder tree of Costa, Gerbicz and Harvey over the blocks: the root
    holds X = n_0! mod M_root, n_0 being the least n; a node sends X mod
    M_left to its left half and X * (A_left mod M_right) mod M_right to its
    right half, A being the exact product of the integers a half spans and M
    the product of its moduli.  The root's X and each block, from its X and
    its first n on, are running products (_block_products); a block whose A
    a later block reads takes it from one math.perm.
    """
    if not points:
        return []
    blocks = [points[i : i + _BLOCK] for i in range(0, len(points), _BLOCK)]
    starts = [points[0][0]] + [block[-1][0] for block in blocks]
    products = []

    def descend(tree: tuple, x: int, lo: int, hi: int, carry: bool) -> int:
        """Serve blocks[lo:hi] from x; return their A if carry, else 1."""
        if hi - lo == 1:
            products.extend(_block_products(1, blocks[lo], x, starts[lo]))
            return perm(starts[hi], starts[hi] - starts[lo]) if carry else 1
        _, left, right = tree
        mid = (lo + hi) // 2
        a_left = descend(left, x % left[0], lo, mid, True)
        a_right = descend(right, x * (a_left % right[0]) % right[0], mid, hi, carry)
        return a_left * a_right if carry else 1

    tree = _moduli_tree(blocks)
    descend(tree, _block_products(1, [(starts[0], tree[0])], 1, 0)[0], 0, len(blocks), False)
    return products


def factorial_residues(points: Iterable[tuple[int, int]]) -> list[int]:
    """n! mod m for every (n, m) in points, in input order, from running products.

    All points are checked, and the factorial loop cap enforced, before any
    multiplication; :func:`_running_products` then takes every point, in
    ascending n, through a remainder tree over blocks of 16 running products
    (one block, and no tree node, for up to 16 points).
    """
    try:
        points = list(points)
    except TypeError:
        raise DomainError(
            f"factorial points must be an iterable of (n, m) pairs, got {points!r}") from None
    for point in points:
        try:
            n, m = point
        except (TypeError, ValueError):
            raise DomainError(f"factorial points must be (n, m) pairs, got {point!r}") from None
        _check_int(n)
        _check_int(m, "modulus")
        if n < 0:
            raise DomainError(f"factorial argument must be nonnegative, got {n}")
        if m < 2:
            raise DomainError(f"modulus must be >= 2, got {m}")
    top = max((n for n, _ in points), default=0)
    budget.require_within(top, budget.FACTORIAL_LOOP_CAP, "factorial loop")
    order = sorted(range(len(points)), key=lambda i: points[i][0])
    residues = [0] * len(points)
    for i, r in zip(order, _running_products([points[i] for i in order])):
        residues[i] = r
    return residues


def factorial_mod(n: int, m: int) -> int:
    """n! mod m: :func:`factorial_residues` on the one point (n, m)."""
    return factorial_residues([(n, m)])[0]


def wilson_check(p: int) -> bool:
    """True iff (p-1)! = -1 mod p, computed by the one-point running product
    (factorial_mod), which multiplies 2, 3, ..., p-1 themselves."""
    p = validate_odd_prime(p)
    return factorial_mod(p - 1, p) == p - 1


def _products_of_multiples(lanes: list[tuple[int, int]]) -> list[int]:
    """(qu)(2 qu)...((p-1)/2 * qu) mod p for each lane (qu, p), primes distinct, ascending.

    One step = qu (mod p) for every lane, by CRT, whose running product
    (_block_products) is read off at ((p-1)/2, p).
    """
    pending = prod(p for _, p in lanes)
    step = sum(qu * (c := pending // p) * pow(c, -1, p) for qu, p in lanes) % pending
    return _block_products(step, [((p - 1) // 2, p) for _, p in lanes], 1, 0)


def _euler_failures(cases: list[tuple[int, int]]) -> set[int]:
    """Indices of the cases (q, p) whose sides of Euler's criterion disagree.

    Each distinct p is tested for primality once, in order of first
    appearance, one factorial_residues call takes every half factorial, and
    every q is reduced to a unit, before any multiple is taken.  The distinct
    primes, ascending, are cut into windows of _BLOCK; the k-th case of each
    prime in a window is a lane of the window's k-th batch of left sides.
    The windows are checked by _halves.run_in_halves, each weighed by its
    lane multiples, the sum of (p-1)/2 over its cases; a window that fails is
    checked again here for the indices of its failures.
    """
    # every p is an int before any is hashed, so 7.0 or [7] raises DomainError
    primes = [validate_odd_prime(p) for p in dict.fromkeys(_check_int(p) for _, p in cases)]
    half_factorials = dict(zip(primes, factorial_residues([((p - 1) // 2, p) for p in primes])))
    units = [_unit_mod(qv, p) for qv, p in cases]
    ascending = sorted(primes)
    cases_of = {p: [] for p in ascending}
    for i, (_, p) in enumerate(cases):
        cases_of[p].append(i)
    windows = [ascending[w : w + _BLOCK] for w in range(0, len(ascending), _BLOCK)]

    def failures_in(window: list[int]) -> set[int]:
        failures = set()
        for batch in zip_longest(*map(cases_of.__getitem__, window)):
            batch = [i for i in batch if i is not None]
            lanes = [(units[i], cases[i][1]) for i in batch]
            for i, (qu, p), left in zip(batch, lanes, _products_of_multiples(lanes)):
                right = half_factorials[p] if euler_symbol(qu, p) == 1 else -half_factorials[p] % p
                if left != right:
                    failures.add(i)
        return failures

    work = [sum(len(cases_of[p]) * (p - 1) // 2 for p in window) for window in windows]
    passed = run_in_halves(lambda window: not failures_in(window), windows, work,
                           (_products_of_multiples, euler_symbol))
    return set().union(*(failures_in(w) for w, ok in zip(windows, passed) if not ok))


def euler_criterion_check(q: int, p: int) -> bool:
    """Check (q)(2q)...((p-1)/2 * q) = (q/p) * ((p-1)/2)!  (mod p).

    The one-case call of :func:`_euler_failures`, which the euler suite makes
    for all its cases.  The left side multiplies the multiples of q
    themselves; the right takes one Euler-criterion power (euler_symbol) and
    the half factorial.  p is tested for primality once.
    """
    return not _euler_failures([(q, p)])


def odd_primes_up_to(n: int) -> list[int]:
    """All odd primes <= n, ascending (sieve of Eratosthenes over the odd numbers)."""
    if _check_int(n, "bound") < 3:
        return []
    budget.require_within(n, budget.SIEVE_CAP, "prime sieve")
    sieve = bytearray([1]) * (n + 1)
    for i in range(3, isqrt(n) + 1, 2):
        if sieve[i]:
            sieve[i * i :: 2 * i] = bytes(len(range(i * i, n + 1, 2 * i)))
    return list(compress(range(3, n + 1, 2), sieve[3::2]))


def first_odd_primes(count: int) -> list[int]:
    """The first `count` odd primes, ascending, from one sieve up to Rosser's bound."""
    if _check_int(count, "count") < 0:
        raise DomainError(f"count must be nonnegative, got {count}")
    n = count + 1  # the last one needed is the n-th prime, 2 being skipped
    # Rosser: p_n < n (ln n + ln ln n) for n >= 6; below that p_n <= p_5 = 11
    bound = int(n * (log(n) + log(log(n)))) + 1 if n >= 6 else 11
    return odd_primes_up_to(bound)[:count]
