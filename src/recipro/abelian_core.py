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
two_torsion_subgroup through _state_walk, which gives every element one state
byte built from all its coordinates by bytes.translate and bytes.join.

Values are immutable after construction and all operations are pure
functions, so everything here may be used concurrently without locking.
"""

from __future__ import annotations

import itertools
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


def _state_walk(tables: Sequence[Sequence[int]], combine: Sequence[bytes]) -> bytes:
    """One state byte per element of Z/n_1 x ... x Z/n_k, in enumeration order.

    tables[i][c] is the state of coordinate c in factor i, and combine[s] is a
    256-byte translation table taking the state of the faster coordinates to
    their state combined with a slower coordinate in state s.  The walk over
    the last factor is its table; each slower factor joins, in the order of
    its table, one translated copy of that walk per distinct state, so no
    Python code runs per element.  With no factors there is one element, in
    state 1.
    """
    budget.require_within(prod(map(len, tables)), budget.GROUP_ENUM_CAP, "group enumeration")
    if not tables:
        return b"\x01"
    walk = bytes(tables[-1])
    for table in reversed(tables[:-1]):
        copies = {s: walk.translate(combine[s]) for s in set(table)}
        del walk  # the walk being joined and its copies then hold at most about 2|G| bytes
        # bytes.join holds an 80-byte buffer per piece, so pieces go in 4096 at a time
        walk = b"".join([b"".join(map(copies.__getitem__, table[i:i + 4096]))
                         for i in range(0, len(table), 4096)])
    return walk


# combine tables for flags: a slower coordinate with flag 0 clears, with flag 1 keeps
_AND = (bytes(256), bytes(range(256)))


def _torsion_flags(n: int) -> list[bool]:
    """flag[c] for c in Z/n: whether 2c = 0 (True is state 1, False state 0)."""
    return [2 * c % n == 0 for c in range(n)]


def two_torsion_subgroup(G: AbelianGroup) -> list[tuple[int, ...]]:
    """The coordinate tuples of all g with 2g = 0, in lexicographic order,
    by full enumeration.

    Each factor's flags 2c = 0 are tabulated once and walked, combined by AND,
    into one flag byte per element; the group's own walk is filtered by those
    bytes.  The walk must cover |G| elements, or the filter would stop early;
    anything else signals a bug in this package, hence InternalCheckError.
    The result has 2**rank elements where rank counts the even factors.
    """
    coords = G.iter_coords()  # capacity-checked before any flag is tabulated
    walk = _state_walk([_torsion_flags(n) for n in G.factor_orders], _AND)
    if len(walk) != G.order:
        raise InternalCheckError(f"flagged {len(walk)} elements of a group of order {G.order}")
    return list(itertools.compress(coords, walk))


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
