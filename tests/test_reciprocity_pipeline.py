import os
import pickle
import random
import threading
import time
from itertools import compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recipro import (
    CapacityError,
    DomainError,
    InternalCheckError,
    Transversal,
    UnitPair,
    build_transversal,
    closed_form_product,
    legendre_euler,
    odd_primes_up_to,
    product_over_transversal,
    verify_pair,
    verify_pairs,
    verify_transversal,
)
from recipro import reciprocity_pipeline, residue_arith
from recipro.reciprocity_pipeline import _log_table, _primitive_root, _product_mod
from _oracles import crt_transversal_ok, streamed_product
from _processes import count_forks, no_child_left, refuse_fork, usable_cpus, wrap_everywhere

SMALL_PAIRS = [
    (p, q)
    for i, p in enumerate(odd_primes_up_to(60))
    for q in odd_primes_up_to(60)[i + 1 :]
]
# every odd prime with an odd prime partner r != p, pr <= 2 * 10**5
PROPERTY_PRIMES = odd_primes_up_to(200_000 // 3)
SWEEP_200_PAIRS = [
    (p, q)
    for i, p in enumerate(odd_primes_up_to(200))
    for q in odd_primes_up_to(200)[i + 1 :]
]


# maps each byte to its lowest bit
LOW_BIT = bytes(b & 1 for b in range(256))


def marked_ks(L):
    """The k that L's mask marks, ascending."""
    return [k for k in range(len(L.mask)) if L.mask[k]]


def entries(L):
    """The representatives (k mod p, k mod q) of the marked k, k ascending."""
    return [(k % L.p, k % L.q) for k in marked_ks(L)]


# Mask faults on a pair (p, q), each tripping one or more of the four
# conditions verify_transversal checks on the mask.
def shift_by_one(keep, p, q):
    return bytearray(1) + keep[:-1]


def unmark_1(keep, p, q):
    # count: one k short
    keep[1] = 0
    return keep


def mark_p(keep, p, q):
    # multiples of p, and the count
    keep[p] = 1
    return keep


def swap_1_for_p(keep, p, q):
    # multiples of p only
    keep[1], keep[p] = 0, 1
    return keep


def swap_1_for_q(keep, p, q):
    # multiples of q only
    keep[1], keep[q] = 0, 1
    return keep


def extend_and_swap_1_for_pq_minus_1(keep, p, q):
    # length only: k = pq - 1 is a unit, the negation of k = 1
    keep += bytes(p * q - len(keep))
    keep[1], keep[p * q - 1] = 0, 1
    return keep


MASK_FAULTS = [
    shift_by_one, unmark_1, mark_p, swap_1_for_p, swap_1_for_q,
    extend_and_swap_1_for_pq_minus_1,
]


def tamper_mask(monkeypatch, tamper, builds=None):
    """Apply tamper to the mask of the first `builds` transversals built
    (of every one when None), at construction, before anything reads it."""
    original = Transversal.__post_init__
    built = []

    def tampered(L):
        original(L)
        built.append(L)
        if builds is None or len(built) <= builds:
            object.__setattr__(L, "mask", tamper(L.mask, L.p, L.q))

    monkeypatch.setattr(Transversal, "__post_init__", tampered)
    return built


class TestBuildTransversal:
    def test_3_5(self):
        L = build_transversal(3, 5)
        # k runs over {1, 2, 4, 7}
        assert marked_ks(L) == [1, 2, 4, 7]
        assert entries(L) == [(1, 1), (2, 2), (1, 4), (1, 2)]
        assert len(entries(L)) == 4 == (3 - 1) * (5 - 1) // 2

    def test_3_7(self):
        L = build_transversal(3, 7)
        # k runs over {1, 2, 4, 5, 8, 10}
        assert entries(L) == [(1, 1), (2, 2), (1, 4), (2, 5), (2, 1), (1, 3)]
        assert len(entries(L)) == 6

    def test_size_formula(self):
        for p, q in SMALL_PAIRS:
            assert len(marked_ks(build_transversal(p, q))) == (p - 1) * (q - 1) // 2

    @pytest.mark.parametrize("p,q", [(3, 3), (4, 5), (3, 2), (3, 9)])
    def test_domain_errors(self, p, q):
        with pytest.raises(DomainError):
            build_transversal(p, q)

    def test_capacity(self):
        # 449 * 457 = 205193 builds; 1021 * 2063 = 2106323 is over the
        # product cap 2**21
        assert build_transversal(449, 457).p == 449
        with pytest.raises(CapacityError):
            build_transversal(1021, 2063)

    def test_direct_construction_is_capped(self):
        # the cap lives on Transversal itself, so no pair skips it
        with pytest.raises(CapacityError):
            Transversal(1021, 2063)

    def test_prime_errors_come_before_the_cap(self):
        # 1021 * 2064 is also over the cap, but 2064 is not prime
        with pytest.raises(DomainError, match="not prime"):
            Transversal(1021, 2064)


class TestProduct:
    def test_3_5(self):
        assert product_over_transversal(build_transversal(3, 5)) == UnitPair(2, 1)

    def test_3_7(self):
        assert product_over_transversal(build_transversal(3, 7)) == UnitPair(2, 1)

    def test_matches_closed_form_small_sweep(self):
        for p, q in SMALL_PAIRS:
            L = build_transversal(p, q)
            assert product_over_transversal(L) == closed_form_product(p, q), (p, q)

    @pytest.mark.parametrize(
        "p,q",
        [(3, 5), (7, 11), (13, 19), (31, 37), (3, 199), (13, 1009), (17, 1009), (179, 181),
         (181, 191), (197, 199), (31, 2003), (181, 359), (181, 367), (11, 5981), (449, 457),
         (1021, 2053), (17, 123341), (5, 419429)],
    )
    def test_matches_streamed_oracle(self, p, q):
        # Each shape of the reads and folds, at 16 KB bands.  A mask of at
        # most 32 KB is read once and folded from all of its rows for both
        # moduli: rows of width m up to (197, 199); 253 rows of 2m mod p in
        # (13, 1009) and (17, 1009); 251 rows of 4m mod 31 and 16 rows mod
        # 2003 in (31, 2003); and (181, 359), at 32,490 bytes the longest
        # mask here read once.  Past 32 KB each modulus sums its own bands of
        # whole rows and folds the sum: rows of 132 bytes (12m) in bands of
        # 124 rows, the last of 2, mod 11, and three full bands of 2 rows mod
        # 5981, in (11, 5981), at 32,896 bytes the shortest banded mask here;
        # two bands of 90 rows and a last band of 4 mod 181, and two of 44
        # and a last of 3 mod 367, in (181, 367); 7 bands of about 35 rows,
        # the last partial, in (449, 457).  Wider rows, up to
        # 255: bands of 3 rows of 5105 bytes mod 1021 and of 2 rows mod 2053
        # in (1021, 2053), just under the product cap, and of 3 rows mod p in
        # (17, 123341) and (5, 419429); rows past 8 KB, one per band with
        # nothing folded, mod q in both (9 and 3 rows)
        assert product_over_transversal(build_transversal(p, q)) == streamed_product(p, q)

    @pytest.mark.parametrize("p,q", [(7, 11), (3, 199), (13, 1009), (17, 1009), (181, 191),
                                     (181, 359), (181, 367)])
    def test_marked_multiples_zero_the_product(self, p, q):
        # a marked multiple of p (of q) must zero coordinate a (b), whether
        # the mask is read once, (7, 11) to (181, 359) at 32,490 bytes, or in
        # bands, (181, 367) at 33,214 bytes
        L = build_transversal(p, q)
        L.mask[p] = L.mask[q] = 1
        assert product_over_transversal(L) == UnitPair(0, 0)

    @pytest.mark.parametrize("p,q,one_read", [(181, 359, True), (181, 367, False)])
    def test_one_read_up_to_two_bands(self, monkeypatch, p, q, one_read):
        # a mask of at most 2 * 16 KB, (181, 359) at 32,490 bytes, reaches
        # _product_mod as one int for both moduli; (181, 367), at 33,214
        # bytes, as no int, so each modulus reads it in bands
        wholes = []

        def spy(keep, m, whole=None, table=None):
            wholes.append(whole)
            return _product_mod(keep, m, whole, table)

        monkeypatch.setattr(reciprocity_pipeline, "_product_mod", spy)
        L = build_transversal(p, q)
        assert product_over_transversal(L) == streamed_product(p, q)
        expected = int.from_bytes(L.mask, "little") if one_read else None
        assert wholes == [expected, expected]

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.sampled_from([3, 5, 7, 11, 13, 1009]),
        rows=st.integers(0, 6 * 255),
        extra=st.integers(0, 1008),
        seed=st.none() | st.integers(0, 2**32 - 1),
        units_only=st.booleans(),
    )
    # all ones, at the longest mask of 255 rows of m and one k past it,
    # where a 256th row would carry out of the byte of residue 0
    @example(m=3, rows=255, extra=0, seed=None, units_only=False)
    @example(m=3, rows=255, extra=1, seed=None, units_only=False)
    @example(m=1009, rows=255, extra=0, seed=None, units_only=False)
    @example(m=1009, rows=255, extra=1, seed=None, units_only=False)
    # one band of 129 rows of 7, so each fold but the last splits unevenly
    @example(m=7, rows=129, extra=0, seed=1, units_only=True)
    # rows of 91, bands of 180 rows, and a last band of 39
    @example(m=13, rows=6 * 255, extra=12, seed=2, units_only=True)
    # rows of 9081 bytes, past 8 KB: one row per band and nothing folded
    @example(m=1009, rows=2045, extra=1008, seed=3, units_only=True)
    def test_grouped_product_on_any_mask(self, m, rows, extra, seed, units_only):
        # the reads, the folds and both residue stages, the grouping by count
        # and the log table, must hold for any 0/1 mask of 0 to about
        # 6 * 255 * m bytes, not just a transversal's, read in bands or handed
        # over whole as one int: rows whole rows of m plus extra % m k, every
        # k marked when seed is None, and the multiples of m cleared when
        # units_only.  Past 255 rows of m the row is wider than m and the
        # table is tiled across it.
        n = rows * m + extra % m
        if seed is None:
            keep = bytearray([1]) * n
        else:
            keep = bytearray(random.Random(seed).randbytes(n).translate(LOW_BIT))
        if units_only:
            keep[::m] = bytes(len(keep[::m]))
        expected = 1
        for k in compress(range(n), keep):
            expected = expected * k % m
        got = _product_mod(keep, m)
        assert got == expected
        whole = int.from_bytes(keep, "little")
        assert _product_mod(keep, m, whole) == expected
        table = (g := _primitive_root(m), _log_table(m, g))
        assert _product_mod(keep, m, table=table) == expected
        assert _product_mod(keep, m, whole, table) == expected
        if any(keep[::m]):
            assert got == 0


class TestLogTable:
    def test_every_odd_prime_to_1450(self):
        # g^logs[x] = x for every unit x, and the logs are 0..m-2, each once
        for m in odd_primes_up_to(1450):
            g = _primitive_root(m)
            logs = _log_table(m, g)
            assert len(logs) == m
            assert all(pow(g, logs[x], m) == x for x in range(1, m))
            assert sorted(logs[1:]) == list(range(m - 1))

    @pytest.mark.parametrize("m,g", [(7, 2), (7, 1), (7, 6), (13, 4), (3, 3)])
    def test_non_generator_raises(self, m, g):
        # 2 has order 3 mod 7, 1 order 1, 6 = -1 order 2, 4 order 6 mod 13,
        # and 3 = 0 mod 3 is no unit
        with pytest.raises(InternalCheckError):
            _log_table(m, g)


class TestClosedForm:
    @pytest.mark.parametrize(
        "p,q,expected",
        [(3, 5, (2, 1)), (3, 7, (2, 1)), (5, 13, (4, 12))],
    )
    def test_examples(self, p, q, expected):
        assert closed_form_product(p, q) == UnitPair(*expected)

    def test_coordinates_are_signs(self):
        for p, q in SMALL_PAIRS:
            a, b = closed_form_product(p, q)
            assert a in (1, p - 1)
            assert b in (1, q - 1)


class TestVerifyTransversal:
    def test_built_lists_pass(self):
        for p, q in [(3, 5), (3, 7), (5, 13), (17, 19)]:
            assert verify_transversal(build_transversal(p, q))

    def test_agrees_with_crt_oracle_on_sweep_200(self):
        for p, q in SWEEP_200_PAIRS:
            L = build_transversal(p, q)
            assert verify_transversal(L) and crt_transversal_ok(p, q, entries(L)), (p, q)

    @pytest.mark.parametrize("fault", MASK_FAULTS)
    @pytest.mark.parametrize("p,q", [(7, 11), (3, 199), (13, 1009)])
    def test_faults_agree_with_crt_oracle(self, monkeypatch, fault, p, q):
        tamper_mask(monkeypatch, fault)
        L = build_transversal(p, q)
        assert not verify_transversal(L)
        assert not crt_transversal_ok(p, q, entries(L))

    # The CRT oracle, pair by pair, on listed pairs that no mask can describe

    def test_listed_canonical_pairs_pass(self):
        assert crt_transversal_ok(3, 5, entries(build_transversal(3, 5)))

    def test_duplicate_appended(self):
        pairs = entries(build_transversal(3, 5))
        assert not crt_transversal_ok(3, 5, pairs + [pairs[0]])

    def test_duplicate_in_place_of_an_entry(self):
        # the count still matches, so only the distinct-lift check can catch it
        pairs = entries(build_transversal(3, 5))
        assert not crt_transversal_ok(3, 5, pairs[:-1] + [pairs[0]])

    def test_entry_replaced_by_negation(self):
        # (2, 4) = -(1, 1) lifts to k = 14, outside (0, pq/2)
        pairs = entries(build_transversal(3, 5))
        assert not crt_transversal_ok(3, 5, [(2, 4)] + pairs[1:])

    def test_entry_dropped(self):
        pairs = entries(build_transversal(3, 5))
        assert not crt_transversal_ok(3, 5, pairs[1:])

    def test_non_unit_entry(self):
        pairs = entries(build_transversal(3, 5))
        assert not crt_transversal_ok(3, 5, [(0, 1)] + pairs[1:])

    def test_gamma_equivalent_pair_present(self):
        # replace the second entry with the negation of the first
        pairs = entries(build_transversal(3, 7))
        assert not crt_transversal_ok(3, 7, [pairs[0], (2, 6)] + pairs[2:])


class TestVerifyPair:
    def test_3_5(self):
        v = verify_pair(3, 5)
        assert v.rank == 1
        assert v.legendre_qp == -1 and v.legendre_pq == -1
        assert v.predicted_relation == 1
        assert v.product_L == UnitPair(2, 1)
        assert v.qr_identity_holds
        assert v.all_pass
        assert set(v.checks) == {
            "product_matches_closed_form",
            "transversal_valid",
            "rank_sign_dichotomy",
            "relation_matches_symbols",
            "qr_identity",
        }

    def test_3_7(self):
        v = verify_pair(3, 7)
        assert v.rank == 1
        assert v.legendre_qp == 1 and v.legendre_pq == -1
        assert v.predicted_relation == -1
        assert v.qr_identity_holds and v.all_pass

    def test_5_13(self):
        v = verify_pair(5, 13)
        assert v.rank == 2
        # product lies in {(1,1), (p-1,q-1)}: coordinates are the same sign
        assert v.product_L == UnitPair(4, 12)
        assert v.legendre_qp == v.legendre_pq
        assert v.all_pass

    def test_symmetry(self):
        for p, q in [(3, 5), (3, 7), (5, 13), (7, 19)]:
            a, b = verify_pair(p, q), verify_pair(q, p)
            assert a.qr_identity_holds == b.qr_identity_holds
            assert a.rank == b.rank

    def test_sign_dichotomy_small_sweep(self):
        for p, q in SMALL_PAIRS:
            v = verify_pair(p, q)
            assert v.product_L.a in (1, p - 1) and v.product_L.b in (1, q - 1), (p, q)
            signs = (1 if v.product_L.a == 1 else -1) * (1 if v.product_L.b == 1 else -1)
            assert signs == (1 if v.rank == 2 else -1), (p, q)

    @pytest.mark.parametrize(
        "p,q,product,in_class",
        [
            # rank 2: the class is Gamma = {(1, 1), (-1, -1)}
            (5, 13, (1, 1), True),
            (5, 13, (4, 12), True),
            (5, 13, (1, 12), False),
            (5, 13, (4, 1), False),
            (5, 13, (2, 1), False),
            # rank 1: the class is the coset {(1, -1), (-1, 1)}
            (7, 11, (1, 10), True),
            (7, 11, (6, 1), True),
            (7, 11, (1, 1), False),
            (7, 11, (6, 10), False),
            (7, 11, (3, 1), False),
            # p = 3: the residue 2 is -1 mod 3 but no sign mod 7
            (3, 7, (1, 6), True),
            (3, 7, (2, 1), True),
            (3, 7, (1, 1), False),
            (3, 7, (2, 6), False),
            (3, 7, (1, 2), False),
        ],
    )
    def test_rank_sign_check_is_class_membership(self, monkeypatch, p, q, product, in_class):
        monkeypatch.setattr(
            reciprocity_pipeline, "product_over_transversal",
            lambda L, tables=None: UnitPair(*product),
        )
        assert verify_pair(p, q).checks["rank_sign_dichotomy"] is in_class

    def test_transversal_validated_for_large_pairs(self):
        # the largest pairs the product cap admits are validated too
        for p, q in [(401, 503), (1021, 2053), (3, 699037)]:
            v = verify_pair(p, q)
            assert v.checks["transversal_valid"], (p, q)
            assert v.all_pass, (p, q)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_pairs_pass_and_match_oracle(self, data):
        p = data.draw(st.sampled_from(PROPERTY_PRIMES), label="p")
        q = data.draw(
            st.sampled_from([r for r in PROPERTY_PRIMES if r != p and p * r <= 200_000]),
            label="q",
        )
        v = verify_pair(p, q)
        assert v.all_pass
        assert v.product_L == streamed_product(p, q)
        L = build_transversal(p, q)
        assert verify_transversal(L) and crt_transversal_ok(p, q, entries(L))

    @pytest.mark.parametrize("p,q", [(3, 3), (4, 5), (3, 2)])
    def test_domain_errors(self, p, q):
        with pytest.raises(DomainError):
            verify_pair(p, q)

    def test_capacity(self):
        # 1021 * 2063 = 2106323 > 2**21
        with pytest.raises(CapacityError):
            verify_pair(1021, 2063)


def failed_checks(verdict):
    return {name for name, ok in verdict.checks.items() if not ok}


class TestFaultInjection:
    """Each injected fault trips exactly the named checks that depend on it."""

    def test_k_shifted_by_one(self, monkeypatch):
        tamper_mask(monkeypatch, shift_by_one)
        assert failed_checks(verify_pair(7, 11)) == {
            "product_matches_closed_form",
            "transversal_valid",
            "rank_sign_dichotomy",
        }

    def test_k_dropped(self, monkeypatch):
        # k = 1 contributes (1, 1): the product cannot notice it is gone
        tamper_mask(monkeypatch, unmark_1)
        assert failed_checks(verify_pair(7, 11)) == {"transversal_valid"}

    def test_non_unit_k_marked(self, monkeypatch):
        # k = 7 is (0, 7): the product's first coordinate becomes 0
        tamper_mask(monkeypatch, mark_p)
        assert failed_checks(verify_pair(7, 11)) == {
            "product_matches_closed_form",
            "transversal_valid",
            "rank_sign_dichotomy",
        }

    def test_one_fault_in_the_one_mask_trips_product_and_validation(self, monkeypatch):
        # a pair builds its mask once, so a fault in that one build reaches
        # both the product and the validation; no clean copy is checked
        built = tamper_mask(monkeypatch, mark_p, builds=1)
        assert failed_checks(verify_pair(7, 11)) == {
            "product_matches_closed_form",
            "transversal_valid",
            "rank_sign_dichotomy",
        }
        assert len(built) == 1

    def test_k_1_swapped_for_a_multiple_of_p(self, monkeypatch):
        # the count and length hold; only the multiples-of-p condition fails
        tamper_mask(monkeypatch, swap_1_for_p)
        assert failed_checks(verify_pair(7, 11)) == {
            "product_matches_closed_form",
            "transversal_valid",
            "rank_sign_dichotomy",
        }

    def test_k_1_swapped_for_a_multiple_of_q(self, monkeypatch):
        # k = 11 is (4, 0): the product's second coordinate becomes 0
        tamper_mask(monkeypatch, swap_1_for_q)
        assert failed_checks(verify_pair(7, 11)) == {
            "product_matches_closed_form",
            "transversal_valid",
            "rank_sign_dichotomy",
        }

    def test_mask_extended_past_half(self, monkeypatch):
        # k = 76 is (-1, -1): it negates both coordinates, so their signs
        # still differ and only the length condition sees the upper half
        tamper_mask(monkeypatch, extend_and_swap_1_for_pq_minus_1)
        assert failed_checks(verify_pair(7, 11)) == {
            "product_matches_closed_form",
            "transversal_valid",
        }

    def test_legendre_symbol_flipped(self, monkeypatch):
        def flipped(a, p):
            symbol = legendre_euler(a, p)
            return -symbol if (a, p) == (11, 7) else symbol

        monkeypatch.setattr(reciprocity_pipeline, "euler_symbol", flipped)
        assert failed_checks(verify_pair(7, 11)) == {
            "product_matches_closed_form",
            "relation_matches_symbols",
            "qr_identity",
        }

    def test_wrong_rank(self, monkeypatch):
        # 7 = 11 = 3 (mod 4): the true rank is 1
        monkeypatch.setattr(reciprocity_pipeline, "rank2_quotient_formula", lambda orders: 2)
        assert failed_checks(verify_pair(7, 11)) == {
            "rank_sign_dichotomy",
            "relation_matches_symbols",
        }


def record_log_tables(monkeypatch, perturb=None):
    """The primes whose log tables get built, in build order; perturb(m, logs)
    may change each table before it is used."""
    original = reciprocity_pipeline._log_table
    built = []

    def recorded(m, g):
        logs = original(m, g)
        built.append(m)
        if perturb is not None:
            perturb(m, logs)
        return logs

    monkeypatch.setattr(reciprocity_pipeline, "_log_table", recorded)
    return built


class TestVerifyPairs:
    def test_matches_verify_pair_on_sweep_200(self):
        expected = [verify_pair(p, q) for p, q in SWEEP_200_PAIRS]
        assert list(verify_pairs(SWEEP_200_PAIRS)) == expected

    def test_one_table_per_shared_prime_in_first_use_order(self, monkeypatch):
        built = record_log_tables(monkeypatch)
        assert all(v.all_pass for v in verify_pairs([(5, 7), (3, 11), (3, 7), (13, 17)]))
        assert built == [7, 3]

    @pytest.mark.parametrize("pairs", [[(3, 5)], [(3, 5), (7, 11)], []])
    def test_unshared_primes_build_no_table(self, monkeypatch, pairs):
        def refuse(m, g):
            raise AssertionError(f"a table was built for {m}, in one pair only")

        monkeypatch.setattr(reciprocity_pipeline, "_log_table", refuse)
        assert [(v.p, v.q) for v in verify_pairs(pairs) if v.all_pass] == pairs

    def test_each_call_builds_its_own_tables(self, monkeypatch):
        built = record_log_tables(monkeypatch)
        pairs = [(3, 5), (3, 7), (5, 7)]
        first = list(verify_pairs(pairs))
        assert built == [3, 5, 7]
        assert list(verify_pairs(pairs)) == first
        assert built == [3, 5, 7] * 2

    def test_verdicts_follow_verify_pair_replacements(self, monkeypatch):
        calls = []

        def recorded(p, q, tables=None):
            calls.append((p, q, sorted(tables)))
            return (p, q)

        monkeypatch.setattr(reciprocity_pipeline, "verify_pair", recorded)
        assert list(verify_pairs([(3, 5), (3, 7), (11, 13)])) == [(3, 5), (3, 7), (11, 13)]
        assert calls == [(3, 5, [3]), (3, 7, [3]), (11, 13, [3])]

    def test_marked_multiple_of_p_zeroes_that_pair_on_the_table_path(self, monkeypatch):
        # 3's table is built for (3, 5), so (3, 7) reads its marked k = 3
        # through the table stage, which must give 0, not g^(sum of logs);
        # mod 7 that k is 3, times the closed form's 1
        def mark_p_of_3_7(keep, p, q):
            if (p, q) == (3, 7):
                keep[p] = 1
            return keep

        built = record_log_tables(monkeypatch)
        tamper_mask(monkeypatch, mark_p_of_3_7)
        verdicts = list(verify_pairs([(3, 5), (3, 7), (5, 7)]))
        assert built == [3, 5, 7]
        assert verdicts[1].product_L == UnitPair(0, 3)
        assert failed_checks(verdicts[1]) == {
            "product_matches_closed_form",
            "transversal_valid",
            "rank_sign_dichotomy",
        }
        assert verdicts[0].all_pass and verdicts[2].all_pass

    def test_perturbed_table_entry_fails_exactly_the_pairs_of_its_prime(self, monkeypatch):
        # log 1 = 0 turned into 1 multiplies each product mod 13 by g^(c_1),
        # c_1 the marked k = 1 (mod 13): no pair here has 12 | c_1
        def perturb(m, logs):
            if m == 13:
                logs[1] += 1

        record_log_tables(monkeypatch, perturb)
        failed = [(v.p, v.q) for v in verify_pairs(SMALL_PAIRS)
                  if not v.checks["product_matches_closed_form"]]
        assert failed == [(p, q) for p, q in SMALL_PAIRS if 13 in (p, q)]


class TestFailFast:
    """verify_pairs checks every pair's shape before the first verdict and
    before any fork, with no primality test."""

    @pytest.mark.parametrize("bad,error,message", [
        ((3, 4), DomainError, "^4 is not prime$"),
        ((2, 5), DomainError, "^2 is not odd$"),
        ((1, 5), DomainError, "^1 is not prime$"),
        ((7, 7), DomainError, "^primes must be distinct$"),
        ((3.0, 5), DomainError, "^argument must be an integer, got 3.0$"),
        ((5, True), DomainError, "^argument must be an integer, got True$"),
        ((1447, 1451), CapacityError, "^transversal needs 2099597 steps"),
        # shape before primality: the even 2 before the composite 9, the
        # sign before is_prime's range, the cap before is_prime's range
        ((9, 2), DomainError, "^2 is not odd$"),
        ((-5, 7), DomainError, "^-5 is not prime$"),
        ((2**64 + 1, 3), CapacityError, "^transversal needs 55340232221128654851 steps"),
    ])
    def test_a_bad_last_pair_raises_before_the_first_verdict(self, bad, error, message,
                                                             monkeypatch):
        # the same error the pair's own Transversal gives
        with pytest.raises(error, match=message):
            Transversal(*bad)

        def refuse(n):
            raise AssertionError(f"{n} was tested for primality")

        monkeypatch.setattr(residue_arith, "is_prime", refuse)
        usable_cpus(monkeypatch, 2)
        refuse_fork(monkeypatch)
        verdicts = verify_pairs(SWEEP_200_PAIRS + [bad])
        with pytest.raises(error, match=message):
            next(verdicts)

    def test_a_composite_prime_is_found_in_its_turn(self):
        pairs = SMALL_PAIRS[:5] + [(3, 9)] + SMALL_PAIRS[5:]
        verdicts = verify_pairs(pairs)
        assert [(v.p, v.q) for _, v in zip(range(5), verdicts)] == SMALL_PAIRS[:5]
        with pytest.raises(DomainError, match="^9 is not prime$"):
            next(verdicts)


def record_processes(monkeypatch, log):
    """Make verify_pair write the id of its process and its pair to log before
    it checks the pair.  The replacement has no __wrapped__ and recipro's own
    verify_pair is left as it is, so a call may still split."""
    exact = reciprocity_pipeline.verify_pair

    def recorded(p, q, tables=None):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {p} {q}\n")
        return exact(p, q, tables)

    monkeypatch.setattr(reciprocity_pipeline, "verify_pair", recorded)


def child_positions(monkeypatch, log):
    """The positions in SWEEP_200_PAIRS that a split verify_pairs checks in its
    child, the pairs after the least prefix that holds half of the work; a
    change to any pair's work may move that split.  Undoes every patch the
    test has made so far."""
    usable_cpus(monkeypatch, 2)
    record_processes(monkeypatch, log)
    assert all(v.all_pass for v in verify_pairs(SWEEP_200_PAIRS))
    no_child_left()
    pid_of = {}
    for line in log.read_text().splitlines():
        pid, p, q = map(int, line.split())
        pid_of[p, q] = pid
    monkeypatch.undo()
    return {i for i, pair in enumerate(SWEEP_200_PAIRS) if pid_of[pair] != os.getpid()}


class TestTwoProcesses:
    """verify_pairs over SWEEP_200_PAIRS, whose work is over the bound at
    which run_in_halves splits, gives the same verdicts, errors included,
    in one process and in two."""

    def test_split_matches_one_process_with_mask_faults_in_both_halves(self, monkeypatch,
                                                                       tmp_path):
        # each fault writes the id of the process it ran in
        faults = tmp_path / "faults"
        bad = {SWEEP_200_PAIRS[i] for i in (0, 1, 2, 3, 500, 501, 988, 989)}

        def shift_bad(keep, p, q):
            if (p, q) not in bad:
                return keep
            with open(faults, "a") as f:
                f.write(f"{os.getpid()}\n")
            return shift_by_one(keep, p, q)

        tamper_mask(monkeypatch, shift_bad)
        forks = count_forks(monkeypatch)
        usable_cpus(monkeypatch, 1)
        one = list(verify_pairs(SWEEP_200_PAIRS))
        assert set(faults.read_text().split()) == {str(os.getpid())} and not forks
        usable_cpus(monkeypatch, 2)
        faults.write_text("")
        two = list(verify_pairs(SWEEP_200_PAIRS))
        no_child_left()
        assert len(forks) == 1 and len(set(faults.read_text().split())) == 2
        assert [(v.p, v.q) for v in one if not v.all_pass] == [
            pair for pair in SWEEP_200_PAIRS if pair in bad]
        assert two == one

    def test_a_composite_prime_in_the_childs_half_raises_in_its_turn(self, monkeypatch,
                                                                      tmp_path):
        # the middle of the child's half, which the lighter (3, 9) cannot move out of it
        in_child = sorted(child_positions(monkeypatch, tmp_path / "halves"))
        i = in_child[len(in_child) // 2]
        pairs = list(SWEEP_200_PAIRS)
        pairs[i] = (3, 9)
        log = tmp_path / "pids"
        record_processes(monkeypatch, log)
        runs = {}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            verdicts = []
            with pytest.raises(DomainError, match="^9 is not prime$"):
                verdicts.extend(verify_pairs(pairs))
            no_child_left()
            runs[cpus] = verdicts
        assert len(runs[1]) == i and runs[2] == runs[1]
        tested = [int(line.split()[0]) for line in log.read_text().splitlines()
                  if line.endswith(" 3 9")]
        assert tested[0] == os.getpid() and tested[1] != os.getpid()

    @pytest.mark.parametrize("first", ["child", "this process"])
    def test_the_first_error_in_pair_order_is_raised(self, first, monkeypatch, tmp_path):
        # an error at i, the last pair of this process's half, and one at j,
        # the first of the child's; first names the process that finds its
        # error first in time, while the other sleeps 0.5 s before raising
        in_child = child_positions(monkeypatch, tmp_path / "halves")
        j = min(in_child)
        i = j - 1
        faulty = {SWEEP_200_PAIRS[i]: "at i", SWEEP_200_PAIRS[j]: "at j"}
        parent, exact, raised = os.getpid(), reciprocity_pipeline.verify_pair, tmp_path / "raised"

        def failing(p, q, tables=None):
            if (p, q) in faulty:
                if (os.getpid() == parent) == (first == "child"):
                    time.sleep(0.5)
                with open(raised, "a") as f:
                    f.write(f"{faulty[p, q]}\n")
                raise DomainError(faulty[p, q])
            return exact(p, q, tables)

        monkeypatch.setattr(reciprocity_pipeline, "verify_pair", failing)
        usable_cpus(monkeypatch, 2)
        verdicts = []
        with pytest.raises(DomainError, match="^at i$"):
            verdicts.extend(verify_pairs(SWEEP_200_PAIRS))
        no_child_left()
        assert verdicts == [exact(p, q) for p, q in SWEEP_200_PAIRS[:i]]
        # a sleeping child is killed before it raises
        assert raised.read_text().splitlines()[0] == ("at j" if first == "child" else "at i")

    @pytest.mark.parametrize("death,code", [("exit", 3), ("raise", 1)])
    def test_a_child_that_dies_is_an_internal_check_error(self, death, code, monkeypatch):
        parent, exact = os.getpid(), reciprocity_pipeline.verify_pair

        def dying(p, q, tables=None):
            if os.getpid() != parent:
                if death == "exit":
                    os._exit(3)
                raise ZeroDivisionError("a fault in the child")
            return exact(p, q, tables)

        monkeypatch.setattr(reciprocity_pipeline, "verify_pair", dying)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(InternalCheckError, match=f"exited with code {code} after sending 0"):
            list(verify_pairs(SWEEP_200_PAIRS))
        no_child_left()

    def test_a_caller_that_stops_drawing_leaves_no_child(self, monkeypatch):
        parent, exact, slept = os.getpid(), reciprocity_pipeline.verify_pair, []

        def slow_in_the_child(p, q, tables=None):
            if os.getpid() != parent and not slept:
                slept.append(None)
                time.sleep(60)
            return exact(p, q, tables)

        monkeypatch.setattr(reciprocity_pipeline, "verify_pair", slow_in_the_child)
        usable_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        verdicts = verify_pairs(SWEEP_200_PAIRS)
        assert next(verdicts).all_pass
        start = time.monotonic()
        verdicts.close()
        # the child is killed, not waited for
        assert time.monotonic() - start < 10
        assert len(forks) == 1
        no_child_left()

    def test_a_verdict_pickles_as_itself(self):
        v = verify_pair(197, 199)
        assert pickle.loads(pickle.dumps(v)) == v
        stub = reciprocity_pipeline.PairVerdict(3, 5, 1, UnitPair(2, 1), UnitPair(2, 1), -1, -1,
                                                1, True, {"qr_identity": False})
        assert pickle.loads(pickle.dumps(stub)) == stub

    @pytest.mark.parametrize("why", ["one CPU", "a second thread", "a wrapped verify_pair",
                                     "a wrapped is_prime", "a sweep to 150"])
    def test_fork_is_not_called(self, why, monkeypatch):
        usable_cpus(monkeypatch, 1 if why == "one CPU" else 2)
        refuse_fork(monkeypatch)
        pairs = SWEEP_200_PAIRS
        if why == "a wrapped verify_pair":
            wrap_everywhere(monkeypatch, reciprocity_pipeline.verify_pair)
        if why == "a wrapped is_prime":
            # reached only through validate_odd_prime
            wrap_everywhere(monkeypatch, residue_arith.is_prime)
        if why == "a sweep to 150":
            pairs = [(p, q) for p, q in SWEEP_200_PAIRS if q <= 150]
            assert len(pairs) == 561
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(30,))
        if why == "a second thread":
            thread.start()
        try:
            assert [(v.p, v.q) for v in verify_pairs(pairs) if v.all_pass] == pairs
        finally:
            stop.set()
            if thread.is_alive():
                thread.join(timeout=30)
        assert not thread.is_alive()


class TestValidateOnce:
    def test_verify_pair_tests_primality_twice(self, monkeypatch):
        calls = []
        original = residue_arith.is_prime

        def counted(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(residue_arith, "is_prime", counted)
        assert verify_pair(7, 11).all_pass
        assert sorted(calls) == [7, 11]

    def test_verify_pairs_tests_primality_twice_per_pair(self, monkeypatch):
        # building a table tests no prime again
        calls = []
        original = residue_arith.is_prime

        def counted(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(residue_arith, "is_prime", counted)
        assert all(v.all_pass for v in verify_pairs(SMALL_PAIRS))
        assert sorted(calls) == sorted(m for pair in SMALL_PAIRS for m in pair)

    @pytest.mark.parametrize(
        "fn", [closed_form_product],
        ids=lambda fn: fn.__name__,
    )
    @pytest.mark.parametrize("p,q", [(5, 5), (9, 7)])
    def test_public_functions_still_validate(self, fn, p, q):
        with pytest.raises(DomainError):
            fn(p, q)


class TestQrIdentity:
    """verify_pair's qr_identity check, against symbols computed on their own."""

    @pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (5, 13), (7, 11)])
    def test_examples_and_symmetry(self, p, q):
        assert verify_pair(p, q).checks["qr_identity"]
        assert verify_pair(q, p).checks["qr_identity"]

    def test_matches_direct_symbols(self):
        for p, q in SMALL_PAIRS:
            lhs = legendre_euler(p, q) * legendre_euler(q, p)
            rhs = -1 if ((p - 1) // 2) * ((q - 1) // 2) % 2 else 1
            assert verify_pair(p, q).qr_identity_holds == (lhs == rhs)
