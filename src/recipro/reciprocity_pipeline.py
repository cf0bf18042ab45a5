"""End-to-end reciprocity verification for a pair of distinct odd primes.

Inside the units product F_p^x x F_q^x, the two-element subgroup
Gamma = {(1,1), (-1,-1)} has a canonical set of coset representatives:

    (k mod p, k mod q)  for 0 < k < pq/2 with p and q both not dividing k.

verify_pair runs every check for one pair: the coordinatewise product
of those representatives, checked exactly against a closed form built from
Legendre symbols; the validity of the representative set; the product's
place inside Gamma or its order-2 coset according to the 2-rank of the
quotient; the relation that rank predicts between (q/p) and (p/q); and the
reciprocity identity for the same two symbols.  The representatives are
described by one keep-mask over k, built once per pair when the transversal
is built; the product counts it and the validation checks those same bytes.
A mask of at most 32 KB (two bands) is read once for both moduli, a
longer one once per modulus in 16 KB bands; either way every k is read and
no closed form enters the product.
All named checks are recorded; a failure never aborts the remaining checks.

verify_pairs runs verify_pair over a run of pairs and holds, for that call
only, one discrete-log table for each prime found in two or more of them,
so the residue stage of such a prime is one C-level dot product.  A lone
pair, and verify_pair called on its own, count the residues one by one.
No table outlives its call.  It checks every pair's shape before the first
verdict, and a large enough run is split over two processes by
_halves.run_in_halves, with the same verdicts in the same order.

Pure functions throughout, apart from the tables dict each verify_pairs
call fills for itself; sweeps over many pairs may run concurrently.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Iterator, NamedTuple

from . import budget
from ._halves import run_in_halves
from .errors import DomainError, InternalCheckError
from .quotient_rank import rank2_quotient_formula
from .residue_arith import _check_int, euler_symbol, validate_odd_prime

RELATION_EQUAL = 1
RELATION_OPPOSITE = -1

# int.from_bytes costs least per byte on reads of about 4-20 KB, and a band
# of rows up to this long keeps each halving of the band sum cheap.  A mask
# no longer than two bands (32 KB) is read once for both moduli, as one read
# folded twice was timed faster at 21 KB and tied at 48 KB; a longer one is
# read in bands once per modulus, since one whole-mask read folded twice
# was timed slower on masks of 0.5 MB and more.
_BAND_BYTES = 16384


class UnitPair(NamedTuple):
    """A residue mod p paired with a residue mod q.

    The primes themselves live on the owning Transversal or PairVerdict.
    """

    a: int
    b: int


def _validate_pair(p: int, q: int) -> None:
    validate_odd_prime(p)
    validate_odd_prime(q)
    if p == q:
        raise DomainError("primes must be distinct")


def _precheck(p: int, q: int) -> None:
    """The check a Transversal makes of (p, q) before its primality tests.

    Each prime an int, odd and >= 3, the two distinct, and pq within the
    stream cap, in integer arithmetic.  A non-int, an even prime, a prime
    below 3, an equal pair or pq over the cap raises here, so verify_pairs
    and a Transversal of the pair raise the same error; an odd composite
    passes, and the Transversal's primality test finds it.
    """
    for m in (p, q):
        if _check_int(m) < 3 or m % 2 == 0:
            raise DomainError("2 is not odd" if m == 2 else f"{m} is not prime")
    if p == q:
        raise DomainError("primes must be distinct")
    budget.require_within(p * q, budget.STREAM_PRODUCT_CAP, "transversal")


@dataclass(frozen=True)
class Transversal:
    """Coset representatives (k mod p, k mod q), k ascending over (0, pq/2).

    mask holds pq/2 + 1 bytes, built once at construction: keep[k] is 1 iff
    p and q both do not divide k, so the marked k (never k = 0, a multiple
    of both) are exactly the k of the representatives, which are never
    formed.  The pair's shape and pq's cap for the pass over k are checked
    first, by _precheck, then each prime's primality, and only then is the
    mask built.
    """

    p: int
    q: int
    mask: bytearray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, q = self.p, self.q
        _precheck(p, q)
        validate_odd_prime(p)
        validate_odd_prime(q)
        half = p * q // 2
        keep = bytearray([1]) * (half + 1)
        keep[::p] = bytes(len(range(0, half + 1, p)))
        keep[::q] = bytes(len(range(0, half + 1, q)))
        object.__setattr__(self, "mask", keep)


def build_transversal(p: int, q: int) -> Transversal:
    """The canonical representative set for (p, q)."""
    return Transversal(p, q)


_LogTable = tuple[int, array]


def _primitive_root(m: int) -> int:
    """The least generator of the units mod the odd prime m.

    g generates iff g^((m-1)/r) != 1 for every prime r dividing m - 1; the
    r are found by trial division.
    """
    n, factors, r = m - 1, [], 2
    while r * r <= n:
        if n % r == 0:
            factors.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        factors.append(n)
    return next(g for g in range(2, m) if all(pow(g, (m - 1) // r, m) != 1 for r in factors))


def _log_table(m: int, g: int) -> array:
    """logs with g^logs[x] = x (mod m) for x = 1..m-1, by one walk of g's powers.

    logs[0] is 0 and never read.  The walk writes logs[g^e] = e for
    e = 0..m-2 and must visit all m - 1 units before returning to 1: it
    ends back at 1, and no earlier return rewrote logs[1].  Anything else
    is a bug here, hence InternalCheckError.
    """
    logs = array("I", [0]) * m
    x = 1
    for e in range(m - 1):
        logs[x] = e
        x = x * g % m
    if x != 1 or logs[1]:
        raise InternalCheckError(f"{g} does not generate the units mod {m}")
    return logs


def _product_mod(keep: bytearray, m: int, whole: int | None = None,
                 table: _LogTable | None = None) -> int:
    """Product of the marked k, mod m, for any 0/1 mask over k = 0, 1, ...

    The mask is cut into at most 255 rows of width w, the least multiple of
    m that leaves no more rows.  Given whole, the mask read as one
    little-endian int (product_over_transversal does so up to 32 KB), all
    of its rows are folded from that int.  Otherwise the mask is read in
    bands of whole rows, at most _BAND_BYTES long (one row when w is
    wider), and the bands are added as little-endian ints.
    The sum is then halved at a row boundary, its upper rows added onto its
    lower ones, until one row is left, so byte x of that row counts the
    marked k = x (mod w).  Each byte only ever sums the bytes of distinct
    rows, so no byte carries into the next.  As m divides w, those k are
    all x (mod m), so the product is prod_x x^(c_x) (mod m), c_x the count
    in byte x, and a marked multiple of m makes it 0.

    Given table, a generator g of the units mod the prime m and its logs,
    the product of the units is g^(sum_x c_x * logs[x mod m]), the sum one
    C-level dot product of the row with the logs, tiled to width w when
    w is wider than m.
    Otherwise each x is multiplied into the slot of its count and each slot
    is raised to its count once:
    prod_x x^(c_x) = prod_c (prod of the x with c_x = c)^c.
    """
    n = len(keep)
    w = m * max(1, -(-n // (255 * m)))
    rows = -(-n // w)
    if whole is None:
        band = max(1, min(rows, _BAND_BYTES // w))
        step = band * w
        view = memoryview(keep)
        total = sum(int.from_bytes(view[i : i + step], "little") for i in range(0, n, step))
    else:
        band, total = rows, whole
    bits = 8 * w
    while band > 1:
        band = -(-band // 2)
        cut = bits * band
        total = (total & ((1 << cut) - 1)) + (total >> cut)
    row = total.to_bytes(w, "little")
    if table is not None:
        g, logs = table
        if not _all_zero(row[::m]):
            return 0
        return pow(g, sum(map(mul, row, logs if w == m else logs * (w // m))) % (m - 1), m)
    # no class holds more marked k than there are rows
    by_count = [1] * (rows + 1)
    for x, c in enumerate(row):
        by_count[c] = by_count[c] * x % m
    acc = 1
    for c in range(1, len(by_count)):
        if by_count[c] != 1:
            acc = acc * pow(by_count[c], c, m) % m
    return acc


def _table(tables: dict[int, _LogTable | None] | None, m: int) -> _LogTable | None:
    """m's log table from tables, built on its first use; None when m has no slot."""
    if not tables or m not in tables:
        return None
    if tables[m] is None:
        g = _primitive_root(m)
        tables[m] = (g, _log_table(m, g))
    return tables[m]


def product_over_transversal(L: Transversal,
                             tables: dict[int, _LogTable | None] | None = None) -> UnitPair:
    """Componentwise product of all entries, read off L.mask.

    The mask is the one built with L, the same bytes verify_transversal
    checks.  A mask of at most 2 * _BAND_BYTES (32 KB) is read once, as
    one int that _product_mod folds for p and for q; a longer one is read
    in 16 KB bands once per modulus.  The coordinate mod m is the product
    of r^(number of marked k = r mod m) over all residues r, counted by
    _product_mod; every k is read and the entries are never formed.  A prime with a slot in
    tables (see verify_pairs) takes the residue stage through its log
    table, built here the first time, after L has validated the prime.
    """
    if not isinstance(L, Transversal):
        raise DomainError(f"product_over_transversal needs a Transversal, got {L!r}")
    keep, p, q = L.mask, L.p, L.q
    whole = int.from_bytes(keep, "little") if len(keep) <= 2 * _BAND_BYTES else None
    return UnitPair(_product_mod(keep, p, whole, _table(tables, p)),
                    _product_mod(keep, q, whole, _table(tables, q)))


def _closed_form(p: int, q: int, leg_qp: int, leg_pq: int) -> UnitPair:
    s1 = leg_qp * (-1 if (q - 1) // 2 % 2 else 1)
    s2 = leg_pq * (-1 if (p - 1) // 2 % 2 else 1)
    return UnitPair(1 if s1 == 1 else p - 1, 1 if s2 == 1 else q - 1)


def closed_form_product(p: int, q: int) -> UnitPair:
    """The pair ((-1)^((q-1)/2) * (q/p), (-1)^((p-1)/2) * (p/q)), in residues.

    Sign +1 maps to residue 1, sign -1 to p-1 (resp. q-1).
    """
    _validate_pair(p, q)
    return _closed_form(p, q, euler_symbol(q, p), euler_symbol(p, q))


def _all_zero(marks: bytearray) -> bool:
    """True iff every byte is 0, counted at C speed rather than item by item."""
    return marks.count(0) == len(marks)


def verify_transversal(L: Transversal) -> bool:
    """True iff L.mask marks exactly one k per coset of Gamma.

    Checked on the one mask built with L, the bytes product_over_transversal
    counts, with C-speed slices: it covers
    k = 0..pq//2; no multiple of p and no multiple of q is marked; and
    (p-1)(q-1)/2 k are marked.  That is enough: the units mod pq come in
    pairs k, pq - k (the CRT lifts of x and -x), exactly one of each pair
    lies in (0, pq/2), so marking only units, and as many as there are
    pairs, marks every lower-half unit and hence one k per coset.
    """
    if not isinstance(L, Transversal):
        raise DomainError(f"verify_transversal needs a Transversal, got {L!r}")
    p, q, keep = L.p, L.q, L.mask
    return (
        len(keep) == p * q // 2 + 1
        and _all_zero(keep[::p])
        and _all_zero(keep[::q])
        and keep.count(1) == (p - 1) * (q - 1) // 2
    )


def predicted_symbol_relation(p: int, q: int, rank: int) -> int:
    """+1 when (q/p) and (p/q) must agree, -1 when they must be opposite.

    Rank 2 forces equality; rank 1 forces equality unless p = q = 3 (mod 4),
    where the leading signs cancel and the symbols flip.
    """
    if rank > 1 or p % 4 != q % 4:
        return RELATION_EQUAL
    return RELATION_OPPOSITE


@dataclass(frozen=True)
class PairVerdict:
    """Every checked identity for one prime pair, plus the overall verdict."""

    p: int
    q: int
    rank: int
    product_L: UnitPair
    closed_form: UnitPair
    legendre_qp: int
    legendre_pq: int
    predicted_relation: int
    qr_identity_holds: bool
    checks: dict[str, bool]

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())

    def __reduce__(self):
        # pickled as plain values, as a split verify_pairs call's child sends
        # each verdict: a third of the time of pickling the objects themselves
        return (_verdict, (self.p, self.q, self.rank, *self.product_L, *self.closed_form,
                           self.legendre_qp, self.legendre_pq, self.predicted_relation,
                           self.qr_identity_holds, tuple(self.checks), tuple(self.checks.values())))


def _verdict(p, q, rank, a, b, closed_a, closed_b, leg_qp, leg_pq, predicted, qr_holds,
             names, flags) -> PairVerdict:
    """The PairVerdict that PairVerdict.__reduce__ flattened."""
    return PairVerdict(p, q, rank, UnitPair(a, b), UnitPair(closed_a, closed_b), leg_qp, leg_pq,
                       predicted, qr_holds, dict(zip(names, flags)))


def verify_pair(p: int, q: int,
                tables: dict[int, _LogTable | None] | None = None) -> PairVerdict:
    """Run every verification step for one pair of distinct odd primes.

    Named checks recorded in the verdict:

    * ``product_matches_closed_form`` -- transversal product equals the
      Legendre closed form, coordinatewise and exactly;
    * ``transversal_valid`` -- the mask the product read marks exactly one
      k per coset of Gamma (checked for every pair);
    * ``rank_sign_dichotomy`` -- the product lies in Gamma, {(1, 1),
      (p-1, q-1)} in residues, when the quotient rank is 2 and in its
      order-2 coset {(1, q-1), (p-1, 1)} when it is 1;
    * ``relation_matches_symbols`` -- the relation predicted from the rank
      and the residues of p, q mod 4 holds between the computed symbols;
    * ``qr_identity`` -- the reciprocity identity for the pair.

    A failed check marks the verdict failed without aborting the rest.
    p and q are validated once, by build_transversal; the two Legendre
    symbols are computed once each and feed the closed form, the relation
    and the reciprocity identity, and the rank is the closed form applied
    to (p - 1, q - 1).  tables, from verify_pairs, holds the log tables the
    product may use; the verdict is the same with or without them.
    """
    L = build_transversal(p, q)
    product = product_over_transversal(L, tables)
    leg_qp = euler_symbol(q, p)
    leg_pq = euler_symbol(p, q)
    closed = _closed_form(p, q, leg_qp, leg_pq)
    rank = rank2_quotient_formula((p - 1, q - 1))
    predicted = predicted_symbol_relation(p, q, rank)
    qr_holds = leg_pq * leg_qp == (-1 if ((p - 1) // 2) * ((q - 1) // 2) % 2 else 1)

    checks: dict[str, bool] = {}
    checks["product_matches_closed_form"] = product == closed
    checks["transversal_valid"] = verify_transversal(L)
    if rank > 1:
        checks["rank_sign_dichotomy"] = product in ((1, 1), (p - 1, q - 1))
    else:
        checks["rank_sign_dichotomy"] = product in ((1, q - 1), (p - 1, 1))
    checks["relation_matches_symbols"] = leg_qp == predicted * leg_pq
    checks["qr_identity"] = qr_holds

    return PairVerdict(
        p=p,
        q=q,
        rank=rank,
        product_L=product,
        closed_form=closed,
        legendre_qp=leg_qp,
        legendre_pq=leg_pq,
        predicted_relation=predicted,
        qr_identity_holds=qr_holds,
        checks=checks,
    )


def verify_pairs(pairs: Iterable[tuple[int, int]]) -> Iterator[PairVerdict]:
    """verify_pair on every pair, yielding the verdicts in pair order.

    Before the first verdict, every pair is checked by _precheck, the check
    each Transversal makes first, so a malformed pair, an even or equal
    prime, or a pair over the stream cap raises before any pair is verified,
    with the error the pair's own Transversal raises; a composite odd prime
    still raises when its pair's turn comes, from the one primality test its
    Transversal makes.

    The pairs are checked by _halves.run_in_halves, each weighed by
    530 + pq // 12 of its steps (about 30 ns each): about 16 us per pair
    plus 4.8 ns per k-step, fitted on sweeps to 150 and 200 in one process.
    So a sweep to 200 (990 pairs) may run in two processes, its first 711
    pairs here and the last 279 in the child, whose verdicts come back once
    it is done; a sweep to 150 (561 pairs) does not.  verify_pair and the
    functions it calls are read at call time, so a replacement of
    verify_pair is the one called, and a wrapped one keeps the call in one
    process.

    Each prime found in two or more of the pairs gets a slot in one tables
    dict, held by this call alone; its log table is built when its first
    pair's product needs it, once its Transversal has validated it, so no
    prime is tested twice.  A split call's child fills its own copy of the
    dict, so each process builds the tables its own pairs use.  A prime in
    one pair only keeps the per-residue loop, which costs less than
    building a table.
    """
    try:
        pairs = [(p, q) for p, q in pairs]
        counts = Counter(m for pair in pairs for m in pair)
    except (TypeError, ValueError):
        raise DomainError(
            f"verify_pairs needs an iterable of (p, q) pairs, got {pairs!r}") from None
    for p, q in pairs:
        _precheck(p, q)
    tables: dict[int, _LogTable | None] = {m: None for m, n in counts.items() if n > 1}
    callees = (verify_pair, build_transversal, product_over_transversal, verify_transversal,
               validate_odd_prime, euler_symbol, rank2_quotient_formula)
    yield from run_in_halves(lambda pair: verify_pair(*pair, tables), pairs,
                             (530 + p * q // 12 for p, q in pairs), callees)
