"""Exact arithmetic in finite abelian groups given as products of cyclic groups.

A group is described by its factor orders (n_1, ..., n_k); an element is its
tuple of reduced residues 0 <= g_i < n_i, one per factor, as iter_coords
yields it, and the identity is the all-zero tuple.  element_order is the only
function that takes an element from the caller, so it checks that every
coordinate is reduced.  Enumeration order is lexicographic on the coordinate
tuples (the rightmost coordinate varies fastest), and every operation that
walks the whole group is capacity-checked first.  The walks in
two_torsion_subgroup and sum_all_elements visit every element, but run
through itertools and builtins, with no Python bytecode per element.

Values are immutable after construction and all operations are pure
functions, so everything here may be used concurrently without locking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Iterator, NamedTuple

from . import budget
from .errors import DomainError


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product Z/n_1 x ... x Z/n_k; trivial factors n_i = 1 are allowed."""

    factor_orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(self.factor_orders)
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


def element_order(G: AbelianGroup, coords: tuple[int, ...]) -> int:
    """Least m >= 1 with m*g = 0, i.e. lcm over factors of n_i / gcd(n_i, g_i).

    Raises DomainError unless coords holds one int 0 <= g_i < n_i per factor.
    """
    coords = tuple(coords)
    orders = G.factor_orders
    if len(coords) != len(orders):
        raise DomainError(f"expected {len(orders)} coordinates, got {len(coords)}")
    for c, n in zip(coords, orders):
        if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < n:
            raise DomainError(f"coordinate {c!r} is not reduced modulo {n}")
    return lcm(*(n // gcd(n, c) for c, n in zip(coords, orders)))


def two_torsion_subgroup(G: AbelianGroup) -> list[tuple[int, ...]]:
    """The coordinate tuples of all g with 2g = 0, in lexicographic order,
    by full enumeration.

    Each factor's flags 2c = 0 are tabulated once; their product runs in step
    with the walk over G, so one flag tuple is tested per element.  The
    result has 2**rank elements where rank counts the even factors.
    """
    orders = G.factor_orders
    flags = [[2 * c % n == 0 for c in range(n)] for n in orders]
    want = (True,) * len(orders)
    return list(itertools.compress(G.iter_coords(), map(want.__eq__, itertools.product(*flags))))


def rank2(G: AbelianGroup) -> Rank2Result:
    """2-rank by the closed form: the number of even factor orders.

    2**rank equals the length of :func:`two_torsion_subgroup` whenever that
    enumeration is feasible.
    """
    return Rank2Result(rank=sum(1 for n in G.factor_orders if n % 2 == 0))


def sum_all_elements(G: AbelianGroup) -> tuple[int, ...]:
    """The coordinate tuple of the sum of every element of G, by honest full
    enumeration.

    Coordinate i is the sum of coordinate i over one full walk of G, so the
    group is walked once per factor and never held in memory.  The result is
    the identity (all zeros) unless the 2-rank is exactly 1, in which case it
    is the unique element of order 2.
    """
    return tuple(
        sum(map(itemgetter(i), G.iter_coords())) % n
        for i, n in enumerate(G.factor_orders)
    )
