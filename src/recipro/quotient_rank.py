"""2-rank of an all-even cyclic product modulo its diagonal order-2 subgroup.

For G = Z/n_1 x ... x Z/n_k with every n_i even, the subgroup
Gamma = {0, (n_1/2, ..., n_k/2)} has two elements.  The 2-rank of G/Gamma
is computed by two independent routes:

* a closed-form case split: k when 4 divides every n_i, else k - 1;
* brute force, counting the g in G with 2g in Gamma.  Each two-torsion
  class of the quotient contributes exactly |Gamma| = 2 solutions, so the
  count is twice a power of two and its half gives the rank.  Every element
  of G is tallied, through itertools rather than a Python loop.

The quotient itself is never materialized; counting is all that is needed.
Pure functions over immutable inputs, safe for concurrent use.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import prod
from typing import Sequence

from . import budget
from .errors import DomainError, InternalCheckError


def _even_orders(orders: Sequence[int]) -> tuple[int, ...]:
    orders = tuple(orders)
    if not orders:
        raise DomainError("factor list must be nonempty")
    for n in orders:
        if not isinstance(n, int) or isinstance(n, bool) or n < 2 or n % 2:
            raise DomainError(f"factor orders must be even integers >= 2, got {n!r}")
    return orders


def rank2_quotient_formula(orders: Sequence[int]) -> int:
    """Closed form: k when 4 divides every order, else k - 1."""
    orders = _even_orders(orders)
    k = len(orders)
    return k if all(n % 4 == 0 for n in orders) else k - 1


def _doubling_codes(n: int) -> list[int]:
    """code[c] for c in Z/n: 0 when 2c = 0, 1 when 2c = n/2, 2 otherwise."""
    half = n // 2
    return [0 if d == 0 else 1 if d == half else 2 for d in (2 * c % n for c in range(n))]


def rank2_quotient_enumerated(orders: Sequence[int]) -> int:
    """Quotient 2-rank by counting the g in G with 2g in Gamma.

    Each factor's doubling codes are tabulated once, and their product yields
    one code tuple per element of G, in enumeration order; a Counter tallies
    them all.  2g = 0 exactly when every code is 0, and 2g is the nonzero
    element of Gamma exactly when every code is 1.  The tally must cover |G|
    elements and the count must be 2 * 2**rank; anything else signals a bug
    in this package rather than bad input, hence InternalCheckError.
    """
    orders = _even_orders(orders)
    order = prod(orders)
    budget.require_within(order, budget.GROUP_ENUM_CAP, "quotient two-torsion count")
    tally = Counter(product(*map(_doubling_codes, orders)))
    visited = sum(tally.values())
    if visited != order:
        raise InternalCheckError(f"tallied {visited} elements of a group of order {order}")
    k = len(orders)
    count = tally[(0,) * k] + tally[(1,) * k]
    half, rem = divmod(count, 2)
    if rem or half < 1 or half & (half - 1):
        raise InternalCheckError(f"solution count {count} is not twice a power of 2")
    return half.bit_length() - 1
