import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recipro import (
    CapacityError,
    DomainError,
    budget,
    euler_criterion_check,
    factorial_mod,
    factorial_residues,
    first_odd_primes,
    is_prime,
    legendre_euler,
    legendre_oracle,
    odd_primes_up_to,
    residue_arith,
    validate_odd_prime,
    wilson_check,
)
from _oracles import (
    factorial_by_running_product,
    multiples_by_running_term,
    primes_below_by_sieve,
    strong_probable_prime,
    trial_division_is_prime,
)


class TestIsPrime:
    @pytest.mark.parametrize("n,expected", [(2, True), (91, False), (97, True)])
    def test_examples(self, n, expected):
        assert is_prime(n) is expected

    def test_small_edge_cases(self):
        assert not is_prime(0)
        assert not is_prime(1)

    def test_matches_trial_division(self):
        for n in range(2000):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_strong_pseudoprimes(self):
        # composites that fool Miller-Rabin on small witness subsets
        assert not is_prime(3215031751)       # 151 * 751 * 28351
        assert not is_prime(3825123056546413051)

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(18446744073709551557)  # largest prime below 2**64

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            is_prime(-7)
        with pytest.raises(DomainError):
            is_prime(1 << 64)
        with pytest.raises(DomainError):
            is_prime(2.0)


class TestWitnessPrefixes:
    """is_prime runs Miller-Rabin on the least prefix of its witnesses proven to
    decide n: below psi_k, the least strong pseudoprime to the first k of them."""

    # OEIS A014233, with the rows psi_8 = psi_7 and psi_10 = psi_11 = psi_9
    # merged; psi_12 exceeds 2**64, so all twelve decide every n is_prime accepts
    PUBLISHED = [
        (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
        (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9), (2**64, 12),
    ]

    def test_table_is_the_published_one(self):
        assert list(residue_arith._MR_PREFIXES) == self.PUBLISHED

    def test_matches_sieve_below_1400000(self):
        # one, two and three bases, across psi_1 = 2047 and psi_2 = 1373653
        assert list(filter(is_prime, range(1_400_000))) == primes_below_by_sieve(1_400_000)

    @pytest.mark.parametrize("psi,k", PUBLISHED[:-1])
    def test_bound_is_tight(self, psi, k):
        # psi passes the first k bases, so a shorter prefix would call it prime
        assert all(strong_probable_prime(psi, a) for a in residue_arith._MR_WITNESSES[:k])
        assert is_prime(psi) is False

    @pytest.mark.parametrize("psi", [psi for psi, _ in PUBLISHED if psi <= 3474749660383])
    def test_neighbours_match_trial_division(self, psi):
        for n in (psi - 2, psi + 2):
            assert is_prime(n) == trial_division_is_prime(n), n


class TestValidateOddPrime:
    def test_accepts(self):
        assert validate_odd_prime(3) == 3
        assert validate_odd_prime(997) == 997

    @pytest.mark.parametrize("bad", [4, 9, 2, 1, 0, -3])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            validate_odd_prime(bad)


class TestLegendre:
    @pytest.mark.parametrize(
        "a,p,expected", [(5, 3, -1), (1, 7, 1), (2, 7, 1)]
    )
    def test_euler_examples(self, a, p, expected):
        assert legendre_euler(a, p) == expected

    @pytest.mark.parametrize(
        "a,p,expected", [(3, 5, -1), (4, 11, 1), (7, 3, 1)]
    )
    def test_oracle_examples(self, a, p, expected):
        assert legendre_oracle(a, p) == expected

    def test_reduces_argument_first(self):
        assert legendre_euler(10, 7) == legendre_euler(3, 7)
        assert legendre_euler(-1, 7) == legendre_euler(6, 7)

    def test_multiple_of_p_rejected(self):
        with pytest.raises(DomainError):
            legendre_euler(14, 7)
        with pytest.raises(DomainError):
            legendre_oracle(0, 5)

    def test_composite_modulus_rejected(self):
        with pytest.raises(DomainError):
            legendre_euler(2, 9)

    def test_oracle_capacity(self):
        with pytest.raises(CapacityError):
            legendre_oracle(2, 100003)

    def test_euler_equals_oracle_small(self):
        for p in odd_primes_up_to(200):
            for a in range(1, p):
                assert legendre_euler(a, p) == legendre_oracle(a, p), (a, p)

    def test_euler_equals_oracle_at_the_largest_prime_below_the_cap(self):
        p = 99991
        assert len(residue_arith._square_residues(p)) == p  # one byte per residue
        assert all(legendre_oracle(a, p) == legendre_euler(a, p) for a in range(1, p))

    def test_residue_census(self):
        for p in odd_primes_up_to(100):
            plus = sum(1 for a in range(1, p) if legendre_euler(a, p) == 1)
            assert plus == (p - 1) // 2

    def test_multiplicative(self):
        rng = random.Random(13)
        primes = odd_primes_up_to(500)
        for _ in range(500):
            p = rng.choice(primes)
            a = rng.randint(1, p - 1)
            b = rng.randint(1, p - 1)
            assert legendre_euler(a * b, p) == legendre_euler(a, p) * legendre_euler(b, p)


class TestFactorialMod:
    @pytest.mark.parametrize("n,m,expected", [(0, 7, 1), (4, 5, 4), (3, 7, 6)])
    def test_examples(self, n, m, expected):
        assert factorial_mod(n, m) == expected

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            factorial_mod(-1, 7)
        with pytest.raises(DomainError):
            factorial_mod(3, 1)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            factorial_mod(10_000_001, 7)


def watch_moduli(points):
    """The points with each modulus replaced by an equal int that logs every
    time it is divided out of another int, and that log."""
    divided_out = []

    class Watched(int):
        def __rfloordiv__(self, other):
            divided_out.append(int(self))
            return other // int(self)

    return [(n, Watched(m)) for n, m in points], divided_out


class TestFactorialResidues:
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(2, 60)), max_size=12))
    @example([(5, 6), (0, 2), (5, 6), (1, 9), (3, 4), (1, 2), (7, 2)])
    @example([(2, 3), (4, 5), (7, 11), (8, 13)])
    @settings(max_examples=300)
    def test_matches_running_product_pointwise(self, points):
        # unsorted and repeated n, n in {0, 1}, m = 2, repeated and composite moduli;
        # gaps of 1, 2 and 3 from one answered n to the next
        watched, divided_out = watch_moduli(points)
        assert factorial_residues(watched) == [
            factorial_by_running_product(n, m) for n, m in points
        ]
        # each answered point's modulus leaves the pending product once
        assert sorted(divided_out) == sorted(m for _, m in points)

    def test_empty(self):
        assert factorial_residues([]) == []

    @pytest.mark.parametrize(
        "bad,error",
        [((3, 1), DomainError), ((-1, 7), DomainError), ((2, 7.0), DomainError),
         ((budget.FACTORIAL_LOOP_CAP + 1, 7), CapacityError)],
    )
    def test_bad_last_point_raises_before_any_multiplication(self, bad, error, monkeypatch):
        # every k comes from a range built after validation; none may be built
        ranges = []
        monkeypatch.setattr(
            residue_arith, "range", lambda *args: ranges.append(args) or range(*args),
            raising=False,
        )
        with pytest.raises(error):
            factorial_residues([(50, 7), (20, 9), bad])
        assert ranges == []

    def test_factorial_mod_is_the_one_point_case(self, monkeypatch):
        calls = []
        batched = residue_arith.factorial_residues
        monkeypatch.setattr(
            residue_arith, "factorial_residues",
            lambda points: calls.append(list(points)) or batched(points),
        )
        assert factorial_mod(6, 7) == 6
        assert calls == [[(6, 7)]]


class TestRemainderTree:
    """More than 16 points make a remainder tree of more than one block of 16."""

    @given(
        st.lists(st.tuples(st.integers(0, 200), st.integers(2, 60)), min_size=17, max_size=300)
        # sparse points: a block may start hundreds to thousands of integers
        # past the end of the one before it, so its carry spans that gap
        | st.lists(
            st.tuples(st.integers(0, 5000), st.integers(2, 2**31)), min_size=17, max_size=60
        )
    )
    @example([(0, 2)] * 9 + [(1, 3)] * 9)  # n in {0, 1} only: nothing to multiply
    @example([(n // 3, 2 + n % 7) for n in range(300, 0, -1)])  # runs of n cut by blocks
    @example([(n, 4) for n in range(17)] + [(60, 9)] * 40)
    # the root's X is one running product over about 80,000 integers
    @example([(80_000 + i, 10**9 + 7) for i in range(17)])
    # block 1 starts 4,985 integers past the end of block 0
    @example([(i, 10**9 + 7) for i in range(16)] + [(5000, 10**9 + 7)])
    @settings(max_examples=100, deadline=None)
    def test_matches_running_product_pointwise(self, points):
        # unsorted and repeated n, n in {0, 1}, repeated and composite moduli
        assert factorial_residues(points) == [
            factorial_by_running_product(n, m) for n, m in points
        ]

    def test_far_first_point_carries_no_long_span(self, monkeypatch):
        # 17 points near 10^6 make two blocks; block 0 starts at its least n,
        # so its carry spans 16 integers and not every integer below 10^6
        exact = residue_arith.perm

        def short_perm(n, k):
            if k > 10**5:
                raise AssertionError(f"perm({n}, {k}) spans over 10^5 integers")
            return exact(n, k)

        monkeypatch.setattr(residue_arith, "perm", short_perm)
        points = [(10**6 - 17 + i, 10**9 + 7) for i in range(17)]
        assert factorial_residues(points) == residue_arith._block_products(1, points, 1, 0)


class TestWilson:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_examples(self, p):
        assert wilson_check(p)

    def test_all_small_primes(self):
        assert all(wilson_check(p) for p in odd_primes_up_to(500))

    @pytest.mark.parametrize("n", [9, 15, 21, 25, 27, 33, 35, 49])
    def test_composite_negative_control(self, n):
        # same running product, applied to an odd composite, never gives -1
        assert factorial_mod(n - 1, n) != n - 1

    def test_rejects_composite_input(self):
        with pytest.raises(DomainError):
            wilson_check(9)


class TestEulerCriterionCheck:
    @pytest.mark.parametrize("q,p", [(5, 3), (3, 7), (1, 5)])
    def test_examples(self, q, p):
        assert euler_criterion_check(q, p)

    def test_rejects_multiple(self):
        with pytest.raises(DomainError):
            euler_criterion_check(21, 7)

    @pytest.mark.parametrize("p", [7.0, [7], True])
    def test_rejects_non_int_p(self, p):
        with pytest.raises(DomainError, match="must be an integer"):
            euler_criterion_check(3, p)

    def test_random_cases(self):
        rng = random.Random(3)
        primes = odd_primes_up_to(300)
        for _ in range(100):
            p = rng.choice(primes)
            q = rng.randint(1, 10**6)
            if q % p == 0:
                q += 1
            assert euler_criterion_check(q, p)

    @given(st.sampled_from(odd_primes_up_to(2000)), st.integers(1, 10**6))
    @settings(max_examples=100)
    def test_one_lane_matches_running_term(self, p, q):
        if q % p == 0:
            q += 1
        assert residue_arith._products_of_multiples([(q % p, p)]) == [
            multiples_by_running_term(q, p)
        ]

    def test_one_lane_matches_running_term_for_every_unit(self):
        # p = 3 has half = 1, the odd tail alone; both parities of half occur
        for p in odd_primes_up_to(199):
            for qu in range(1, p):
                assert residue_arith._products_of_multiples([(qu, p)]) == [
                    multiples_by_running_term(qu, p)
                ], (qu, p)

    @given(
        st.lists(
            st.tuples(st.sampled_from(odd_primes_up_to(2000)), st.integers(1, 10**6)),
            min_size=1, max_size=20, unique_by=lambda lane: lane[0],
        )
    )
    @example([(3, 1)])
    @example([(3, 2), (5, 4), (7, 3), (11, 10), (1999, 12345)])
    # halves 2, 3, 6, 9: every gap between consecutive lanes is odd
    @example([(5, 3), (7, 5), (13, 6), (19, 16)])
    @example([(p, p - 1) for p in odd_primes_up_to(59)])  # 16 lanes
    @example([(p, 10**6 - p) for p in odd_primes_up_to(2000)[-16:]])
    @settings(max_examples=100)
    def test_lanes_match_running_term(self, primes_and_qs):
        lanes = [(q % p or 1, p) for p, q in sorted(primes_and_qs)]
        assert residue_arith._products_of_multiples(lanes) == [
            multiples_by_running_term(qu, p) for qu, p in lanes
        ]

    def test_tests_primality_once(self, monkeypatch):
        calls = []
        original = residue_arith.is_prime
        monkeypatch.setattr(residue_arith, "is_prime", lambda n: calls.append(n) or original(n))
        assert euler_criterion_check(10, 13)
        assert calls == [13]

    def test_capacity(self, monkeypatch):
        # 20000003 is prime and (p-1)/2 = 10000001 is one over the loop cap;
        # the refusal comes before any multiple is taken
        lanes = []
        monkeypatch.setattr(
            residue_arith, "_products_of_multiples", lambda ls: lanes.append(ls) or [0],
        )
        with pytest.raises(CapacityError):
            euler_criterion_check(2, 20_000_003)
        assert lanes == []


class TestPrimeListing:
    def test_odd_primes(self):
        assert odd_primes_up_to(20) == [3, 5, 7, 11, 13, 17, 19]
        assert odd_primes_up_to(30) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert odd_primes_up_to(9) == odd_primes_up_to(10) == [3, 5, 7]
        assert odd_primes_up_to(3) == [3]
        assert odd_primes_up_to(2) == odd_primes_up_to(1) == odd_primes_up_to(0) == []

    @pytest.mark.parametrize("n", [10.0, True, "10", None])
    def test_odd_primes_rejects_non_int(self, n):
        with pytest.raises(DomainError, match="must be an integer"):
            odd_primes_up_to(n)

    @pytest.mark.parametrize("count", [2.5, True, "3", None])
    def test_first_odd_primes_rejects_non_int(self, count):
        with pytest.raises(DomainError, match="must be an integer"):
            first_odd_primes(count)

    def test_first_odd_primes(self):
        assert first_odd_primes(5) == [3, 5, 7, 11, 13]
        assert first_odd_primes(0) == []
        assert first_odd_primes(20) == odd_primes_up_to(73)

    def test_first_odd_primes_refuses_a_negative_count(self):
        # without the check, a count of -1 would slice off the last of [3, 5, 7, 11]
        with pytest.raises(DomainError, match="count must be nonnegative, got -1"):
            first_odd_primes(-1)
        assert first_odd_primes(0) == []

    def test_first_odd_primes_reach_past_the_rosser_threshold(self):
        # counts below 5 use the fixed bound 11; from 5 on, Rosser's bound on p_(count+1)
        primes = odd_primes_up_to(20_000)
        for count in range(400):
            assert first_odd_primes(count) == primes[:count], count

    def test_first_odd_primes_sieves_once(self, monkeypatch):
        bounds = []
        sieve = residue_arith.odd_primes_up_to
        monkeypatch.setattr(
            residue_arith, "odd_primes_up_to", lambda n: bounds.append(n) or sieve(n)
        )
        assert first_odd_primes(1000)[-1] == 7927  # p_1001
        assert first_odd_primes(25)[-1] == 101  # p_26
        assert len(bounds) == 2 and bounds[0] < 10**4 and bounds[1] < 200

    def test_sieve_refuses_over_its_cap_before_allocating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sieve was allocated before its cap was checked")

        monkeypatch.setattr(residue_arith, "bytearray", refuse, raising=False)
        with pytest.raises(CapacityError, match="prime sieve"):
            odd_primes_up_to(budget.SIEVE_CAP + 1)

    def test_sieve_admits_its_cap(self):
        assert odd_primes_up_to(budget.SIEVE_CAP)[-1] == 2097143

    def test_rosser_bound_at_the_case_cap_is_within_the_sieve_cap(self):
        # first_odd_primes(count) sieves up to Rosser's bound on the (count+1)-th prime
        n = budget.SUITE_CASE_CAP + 1
        assert int(n * (math.log(n) + math.log(math.log(n)))) + 1 <= budget.SIEVE_CAP

    def test_sieve_matches_miller_rabin(self):
        sieved = set(odd_primes_up_to(5000))
        for n in range(5000 + 1):
            assert (n in sieved) == (is_prime(n) and n != 2)
