"""2-rank of an all-even cyclic product modulo its diagonal order-2 subgroup.

For G = Z/n_1 x ... x Z/n_k with every n_i even, the subgroup
Gamma = {0, (n_1/2, ..., n_k/2)} has two elements.  The 2-rank of G/Gamma
is computed by two independent routes:

* a closed-form case split: k when 4 divides every n_i, else k - 1;
* brute force, counting the g in G with 2g in Gamma.  Each two-torsion
  class of the quotient contributes exactly |Gamma| = 2 solutions, so the
  count is twice a power of two and its half gives the rank.  The count is
  read off abelian_core._doubling_walk, the one state byte per element that
  two_torsion_subgroup filters by, whose states 0 and 1 are 2g = 0 and 2g the
  nonzero element of Gamma.

The quotient itself is never materialized; counting is all that is needed.
Pure functions over immutable inputs, safe for concurrent use.
"""

from __future__ import annotations

from typing import Sequence

from .abelian_core import _doubling_walk
from .errors import DomainError, InternalCheckError


def _even_orders(orders: Sequence[int]) -> tuple[int, ...]:
    try:
        orders = tuple(orders)
    except TypeError:
        raise DomainError(
            f"factor orders must be an iterable of integers, got {orders!r}") from None
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


def rank2_quotient_enumerated(orders: Sequence[int]) -> int:
    """Quotient 2-rank by counting the g in G with 2g in Gamma.

    The count of states 0 and 1 in the doubling walk of G must be
    2 * 2**rank; anything else signals a bug in this package rather than bad
    input, hence InternalCheckError.
    """
    walk = _doubling_walk(_even_orders(orders))
    count = walk.count(0) + walk.count(1)
    half, rem = divmod(count, 2)
    if rem or half < 1 or half & (half - 1):
        raise InternalCheckError(f"solution count {count} is not twice a power of 2")
    return half.bit_length() - 1
