"""Exact arithmetic in finite abelian groups given as products of cyclic groups.

A group is described by its factor orders (n_1, ..., n_k); an element is its
tuple of reduced residues 0 <= g_i < n_i, one per factor, as iter_coords
yields it, and the identity is the all-zero tuple.  element_order is the only
function that takes an element from the caller, so it checks that every
coordinate is reduced.  Enumeration order is lexicographic on the coordinate
tuples (the rightmost coordinate varies fastest), and every operation that
walks the whole group is capacity-checked first.  The walks in
two_torsion_subgroup and sum_all_elements visit every element with no Python
bytecode per element: sum_all_elements through itertools and builtins, and
two_torsion_subgroup through _doubling_walk, which gives every element g one
state byte saying whether 2g is 0, (n_1/2, ..., n_k/2) or neither, built one
factor at a time by writing copies of the walk so far into a buffer of state
2 bytes.  quotient_rank counts the same bytes.

Values are immutable after construction and all operations are pure
functions, so everything here may be used concurrently without locking.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from . import budget
from .errors import DomainError, InternalCheckError


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product Z/n_1 x ... x Z/n_k; trivial factors n_i = 1 are allowed."""

    factor_orders: tuple[int, ...]

    def __post_init__(self):
        try:
            orders = tuple(self.factor_orders)
        except TypeError:
            raise DomainError(
                f"factor orders must be an iterable of integers, got {self.factor_orders!r}"
            ) from None
        for n in orders:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise DomainError(f"factor orders must be integers >= 1, got {n!r}")
        object.__setattr__(self, "factor_orders", orders)

    @property
    def order(self) -> int:
        return prod(self.factor_orders)

    def iter_coords(self) -> Iterator[tuple[int, ...]]:
        """All coordinate tuples in lexicographic order (capacity-checked)."""
        budget.require_within(self.order, budget.GROUP_ENUM_CAP, "group enumeration")
        return itertools.product(*(range(n) for n in self.factor_orders))


class Rank2Result(NamedTuple):
    rank: int


def _check_group(G: AbelianGroup, caller: str) -> None:
    if not isinstance(G, AbelianGroup):
        raise DomainError(f"{caller} needs an AbelianGroup, got {G!r}")


def element_order(G: AbelianGroup, coords: tuple[int, ...]) -> int:
    """Least m >= 1 with m*g = 0, i.e. lcm over factors of n_i / gcd(n_i, g_i).

    Raises DomainError unless coords holds one int 0 <= g_i < n_i per factor.
    """
    _check_group(G, "element_order")
    try:
        coords = tuple(coords)
    except TypeError:
        raise DomainError(f"coordinates must be an iterable of integers, got {coords!r}") from None
    orders = G.factor_orders
    if len(coords) != len(orders):
        raise DomainError(f"expected {len(orders)} coordinates, got {len(coords)}")
    for c, n in zip(coords, orders):
        if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < n:
            raise DomainError(f"coordinate {c!r} is not reduced modulo {n}")
    return lcm(*(n // gcd(n, c) for c, n in zip(coords, orders)))


def _doubling_codes(n: int) -> bytes:
    """code[c] for c in Z/n: 0 when 2c = 0, 1 when 2c = n/2 (n even), 2 otherwise.

    A table of the code of each value 2c mod n can take is read at 2c mod n by
    two C-level slices, one byte per coordinate.
    """
    code_of = bytearray([2]) * n
    code_of[n // 2] = 1 + n % 2  # 1 at n/2 for even n; for odd n, (n-1)/2 keeps 2
    code_of[0] = 0
    # c < n/2 reads 2c; the rest read 2c - n: the evens again for even n, the odds for odd n
    return bytes(code_of[0::2] + code_of[n % 2::2])


def _doubling_walk(orders: Sequence[int]) -> bytes:
    """One state byte per element g of Z/n_1 x ... x Z/n_k, in enumeration
    order: 0 when 2g = 0, 1 when 2g = (n_1/2, ..., n_k/2), 2 otherwise.

    Each factor's doubling codes are tabulated once.  The walk over the last
    factor is its code table; each slower factor grows it to one block of
    state 2 per table entry, then one regex scan finds the codes s = 0 or 1
    (c = 0, n/4, n/2, 3n/4 at most) and writes the walk so far, its state
    1 - s turned into 2, into their blocks, so no Python code runs per
    element.  With no factors there is one element, in state 0.  The walk must
    cover |G| elements; anything else is a bug here, hence InternalCheckError.
    """
    order = prod(orders)
    budget.require_within(order, budget.GROUP_ENUM_CAP, "group enumeration")
    walk = _doubling_codes(orders[-1]) if orders else b"\x00"
    for n in reversed(orders[:-1]):
        table = _doubling_codes(n)
        grown = bytearray([2]) * (len(table) * len(walk))
        for low in re.finditer(b"[\x00\x01]", table):
            c, s = low.start(), table[low.start()]
            grown[c * len(walk) : (c + 1) * len(walk)] = walk.replace(bytes([1 - s]), b"\x02")
        walk = grown
    if len(walk) != order:
        raise InternalCheckError(f"walked {len(walk)} elements of a group of order {order}")
    return walk


# translation table taking state 0 (2g = 0) to 1 and every other state to 0
_DOUBLES_TO_ZERO = bytes([1]).ljust(256, b"\0")


def two_torsion_subgroup(G: AbelianGroup) -> list[tuple[int, ...]]:
    """The coordinate tuples of all g with 2g = 0, in lexicographic order,
    by full enumeration: the group's own walk filtered by the doubling walk's
    state 0.  The result has 2**rank elements where rank counts the even
    factors.
    """
    _check_group(G, "two_torsion_subgroup")
    flags = _doubling_walk(G.factor_orders).translate(_DOUBLES_TO_ZERO)
    return list(itertools.compress(G.iter_coords(), flags))


def rank2(G: AbelianGroup) -> Rank2Result:
    """2-rank by the closed form: the number of even factor orders.

    2**rank equals the length of :func:`two_torsion_subgroup` whenever that
    enumeration is feasible.
    """
    _check_group(G, "rank2")
    return Rank2Result(rank=sum(1 for n in G.factor_orders if n % 2 == 0))


def sum_all_elements(G: AbelianGroup) -> tuple[int, ...]:
    """The coordinate tuple of the sum of every element of G, by honest full
    enumeration.

    Coordinate i is the sum of coordinate i over one full walk of G, so the
    group is walked once per factor and never held in memory.  The result is
    the identity (all zeros) unless the 2-rank is exactly 1, in which case it
    is the unique element of order 2.
    """
    _check_group(G, "sum_all_elements")
    return tuple(
        sum(map(itemgetter(i), G.iter_coords())) % n
        for i, n in enumerate(G.factor_orders)
    )
