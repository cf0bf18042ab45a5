"""Independent brute-force oracles used only by the test suite.

Each function recomputes a result by a route deliberately different from the
library implementation, so that agreement is evidence rather than tautology.
"""

import itertools


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_below_by_sieve(limit):
    """All primes below limit, by crossing out every multiple of every prime
    (sieve of Eratosthenes over all integers, even ones included)."""
    composite = [False] * limit
    primes = []
    for n in range(2, limit):
        if not composite[n]:
            primes.append(n)
            for multiple in range(n * n, limit, n):
                composite[multiple] = True
    return primes


def strong_probable_prime(n, a):
    """True iff odd n > a passes the strong Fermat test to base a: writing
    n - 1 = 2^s * d with d odd, a^d = 1 or a^(2^i d) = -1 mod n for some i < s."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def torsion_by_factors(orders):
    """Two-torsion coordinate tuples from the per-factor solutions of 2x = 0.

    In Z/n those are {0} for odd n and {0, n/2} for even n; the product of
    the per-factor sets, taken in ascending order, is lexicographic.
    """
    per_factor = [(0,) if n % 2 else (0, n // 2) for n in orders]
    return [coords for coords in itertools.product(*per_factor)]


def sum_coords_formula(orders):
    """Coordinate i of the sum of all elements: (|G|/n_i) * (0+1+...+(n_i-1))."""
    total = 1
    for n in orders:
        total *= n
    return tuple((total // n) * (n * (n - 1) // 2) % n for n in orders)


def sum_by_element_loop(orders):
    """Sum of all elements of Z/n_1 x ... x Z/n_k, one Python step per element."""
    totals = [0] * len(orders)
    for coords in itertools.product(*(range(n) for n in orders)):
        for i, c in enumerate(coords):
            totals[i] += c
    return tuple(t % n for t, n in zip(totals, orders))


def torsion_by_element_loop(orders):
    """Coordinate tuples g with 2g = 0, by testing every element in turn."""
    return [
        coords
        for coords in itertools.product(*(range(n) for n in orders))
        if all(2 * c % n == 0 for c, n in zip(coords, orders))
    ]


def doubling_walk_by_element_loop(orders):
    """One state per element g, in enumeration order, from 2g folded one
    element at a time: 0 when 2g = 0, 1 when 2g = (n_1/2, ..., n_k/2), else 2.
    No factors: one element, state 0.
    """
    walk = []
    for coords in itertools.product(*(range(n) for n in orders)):
        doubled = [2 * c % n for c, n in zip(coords, orders)]
        if not any(doubled):
            walk.append(0)
        elif all(2 * d == n for d, n in zip(doubled, orders)):
            walk.append(1)
        else:
            walk.append(2)
    return bytes(walk)


def quotient_count_by_element_loop(orders):
    """Number of g with 2g in {0, (n_1/2, ..., n_k/2)}, one element at a time."""
    target = tuple(n // 2 for n in orders)
    count = 0
    for coords in itertools.product(*(range(n) for n in orders)):
        doubled = tuple(2 * c % n for c, n in zip(coords, orders))
        if not any(doubled) or doubled == target:
            count += 1
    return count


def factorial_by_running_product(n, m):
    """n! mod m for one point, multiplying 2, 3, ..., n and reducing modulo m each time."""
    acc = 1
    for k in range(2, n + 1):
        acc = acc * k % m
    return acc


def multiples_by_running_term(q, p):
    """(q)(2q)...((p-1)/2 * q) mod p, stepping the multiple by q and reducing it."""
    step = q % p
    left = 1
    term = 0
    for _ in range((p - 1) // 2):
        term += step
        if term >= p:
            term -= p
        left = left * term % p
    return left


def order_by_repeated_addition(coords, orders):
    acc = tuple(coords)
    m = 1
    while any(acc):
        acc = tuple((a + c) % n for a, c, n in zip(acc, coords, orders))
        m += 1
    return m


def quotient_rank_by_cosets(orders):
    """Quotient 2-rank by actually materializing the cosets.

    Builds every coset {g, g + gamma} of the diagonal subgroup, then counts
    the cosets C with C + C equal to the identity coset; that count is the
    two-torsion size of the quotient.
    """
    gamma = tuple(n // 2 for n in orders)

    def addc(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, orders))

    coset_of = {}
    cosets = []
    for g in itertools.product(*(range(n) for n in orders)):
        if g in coset_of:
            continue
        members = frozenset({g, addc(g, gamma)})
        index = len(cosets)
        cosets.append(members)
        for member in members:
            coset_of[member] = index
    identity_index = coset_of[tuple(0 for _ in orders)]
    count = 0
    for members in cosets:
        rep = next(iter(members))
        if coset_of[addc(rep, rep)] == identity_index:
            count += 1
    rank = count.bit_length() - 1
    assert count == 1 << rank, f"two-torsion count {count} is not a power of 2"
    return rank


def streamed_product(p, q):
    """Transversal product by one pass over k, skipping multiples of p or q.

    Tests the library's keep-mask route against a plain range loop that
    reduces each k before multiplying.
    """
    ap = aq = 1
    for k in range(1, p * q // 2 + 1):
        ra = k % p
        if ra == 0:
            continue
        rb = k % q
        if rb == 0:
            continue
        ap = ap * ra % p
        aq = aq * rb % q
    return ap, aq


def crt_transversal_ok(p, q, pairs):
    """True iff `pairs` is one representative per coset of {(1,1), (-1,-1)}.

    Checks the group-side statement pair by pair: every entry is a unit
    pair; its Chinese-remainder lift lands in (0, pq/2); the lifts are
    pairwise distinct; and there are (p-1)(q-1)/2 of them.  Distinct
    lower-half lifts rule out both duplicates and componentwise-negative
    pairs (x and -x lift to k and pq - k), and with the count they force one
    representative per coset.
    """
    n = p * q
    c1 = q * pow(q, -1, p)  # 1 mod p, 0 mod q
    c2 = p * pow(p, -1, q)  # 0 mod p, 1 mod q
    half = n // 2
    seen = set()
    count = 0
    for a, b in pairs:
        if not (0 < a < p and 0 < b < q):
            return False
        k = (a * c1 + b * c2) % n
        if k > half or k in seen:
            return False
        seen.add(k)
        count += 1
    return count == (p - 1) * (q - 1) // 2
