"""2-rank of an all-even cyclic product modulo its diagonal order-2 subgroup.

For G = Z/n_1 x ... x Z/n_k with every n_i even, the subgroup
Gamma = {0, (n_1/2, ..., n_k/2)} has two elements.  The 2-rank of G/Gamma
is computed by two independent routes:

* a closed-form case split: k when 4 divides every n_i, else k - 1;
* brute force, counting the g in G with 2g in Gamma.  Each two-torsion
  class of the quotient contributes exactly |Gamma| = 2 solutions, so the
  count is twice a power of two and its half gives the rank.  Every element
  of G gets one state byte from all its coordinates, through
  abelian_core._state_walk rather than a Python loop, and the bytes are
  counted.

The quotient itself is never materialized; counting is all that is needed.
Pure functions over immutable inputs, safe for concurrent use.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

from . import budget
from .abelian_core import _state_walk
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


# combine tables for codes: 0 while every code is 0, 1 while every code is 1, else 2
_SAME = tuple(bytes(s if t == s else 2 for t in range(256)) for s in range(3))


def rank2_quotient_enumerated(orders: Sequence[int]) -> int:
    """Quotient 2-rank by counting the g in G with 2g in Gamma.

    Each factor's doubling codes are tabulated once and walked into one state
    byte per element of G: 0 when every code is 0 (2g = 0), 1 when every code
    is 1 (2g is the nonzero element of Gamma), 2 otherwise.  The walk must
    cover |G| elements and the count of states 0 and 1 must be 2 * 2**rank;
    anything else signals a bug in this package rather than bad input, hence
    InternalCheckError.
    """
    orders = _even_orders(orders)
    order = prod(orders)
    budget.require_within(order, budget.GROUP_ENUM_CAP, "quotient two-torsion count")
    walk = _state_walk(list(map(_doubling_codes, orders)), _SAME)
    if len(walk) != order:
        raise InternalCheckError(f"tallied {len(walk)} elements of a group of order {order}")
    count = walk.count(0) + walk.count(1)
    half, rem = divmod(count, 2)
    if rem or half < 1 or half & (half - 1):
        raise InternalCheckError(f"solution count {count} is not twice a power of 2")
    return half.bit_length() - 1
