import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipro import (
    AbelianGroup,
    CapacityError,
    DomainError,
    InternalCheckError,
    abelian_core,
    element_order,
    rank2_quotient_enumerated,
    rank2_quotient_formula,
    verify_pair,
)
from recipro.suites import random_even_factor_lists
from _oracles import quotient_count_by_element_loop, quotient_rank_by_cosets

even_lists = st.lists(st.sampled_from([2, 4, 6, 8]), min_size=1, max_size=3)

# rejected alike by both routes: empty, an odd or zero order, a non-int
BAD_ORDERS = [(), (3, 4), (0, 2), (4, 5), (2.0,)]


class TestFormula:
    @pytest.mark.parametrize(
        "orders,expected", [((4, 4), 2), ((2, 4), 1), ((6,), 0)]
    )
    def test_examples(self, orders, expected):
        assert rank2_quotient_formula(orders) == expected

    @pytest.mark.parametrize("bad", BAD_ORDERS)
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            rank2_quotient_formula(bad)


class TestEnumerated:
    @pytest.mark.parametrize(
        "orders,expected", [((4, 4), 2), ((6,), 0), ((2, 2), 1)]
    )
    def test_examples(self, orders, expected):
        assert rank2_quotient_enumerated(orders) == expected

    @pytest.mark.parametrize("bad", BAD_ORDERS)
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            rank2_quotient_enumerated(bad)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            rank2_quotient_enumerated((2,) * 23)

    def test_counts_up_to_the_group_enumeration_cap(self):
        # 2**19 elements, counted under the group enumeration cap of 2**22
        assert rank2_quotient_enumerated((2,) * 19) == 18

    @given(even_lists)
    @settings(max_examples=60)
    def test_matches_formula(self, orders):
        assert rank2_quotient_enumerated(orders) == rank2_quotient_formula(orders)

    @given(even_lists)
    @settings(max_examples=30, deadline=None)
    def test_matches_coset_materialization(self, orders):
        assert rank2_quotient_enumerated(orders) == quotient_rank_by_cosets(orders)

    @given(even_lists)
    @settings(max_examples=60)
    def test_rank_bounds(self, orders):
        # the quotient keeps at least k-1 of the rank and never exceeds k
        k = len(orders)
        assert k - 1 <= rank2_quotient_enumerated(orders) <= k

    @given(st.lists(st.sampled_from([2, 4, 6, 8, 10, 12]), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_element_loop(self, orders):
        count = quotient_count_by_element_loop(orders)
        assert count == 2 << rank2_quotient_enumerated(orders)

    def test_codes(self):
        # 2c mod 8 = 0, 2, 4, 6, 0, 2, 4, 6: zero at c = 0, 4 and n/2 = 4 at c = 2, 6
        assert abelian_core._doubling_codes(8) == bytes([0, 2, 1, 2, 0, 2, 1, 2])
        # in Z/2 every 2c is 0, so n/2 = 1 is never hit; in Z/6, 2c is never 3
        assert abelian_core._doubling_codes(2) == bytes([0, 0])
        assert abelian_core._doubling_codes(6) == bytes([0, 2, 2, 0, 2, 2])
        # odd n has no n/2: in Z/3 and Z/5, 2c = 0 at c = 0 only and no code is 1
        assert abelian_core._doubling_codes(1) == bytes([0])
        assert abelian_core._doubling_codes(3) == bytes([0, 2, 2])
        assert abelian_core._doubling_codes(5) == bytes([0, 2, 2, 2, 2])

    def test_codes_match_per_coordinate_reference(self):
        # n up to 300 covers every n mod 4, so both slices meet every parity of n
        for n in range(1, 301):
            reference = bytes(0 if 2 * c % n == 0 else 1 if 2 * (2 * c % n) == n else 2
                              for c in range(n))
            assert abelian_core._doubling_codes(n) == reference, n

    def test_seeded_generator_agreement(self):
        for orders in random_even_factor_lists(40, seed=20260810):
            assert rank2_quotient_enumerated(orders) == rank2_quotient_formula(orders)


class TestOrderFourCensus:
    @pytest.mark.parametrize("n", [4, 8, 12, 16, 20])
    def test_exactly_two_when_four_divides(self, n):
        G = AbelianGroup((n,))
        count = sum(1 for c in G.iter_coords() if element_order(G, c) == 4)
        assert count == 2

    @pytest.mark.parametrize("n", [2, 6, 10, 14])
    def test_none_when_twice_odd(self, n):
        G = AbelianGroup((n,))
        assert sum(1 for c in G.iter_coords() if element_order(G, c) == 4) == 0


class TestTallyFaults:
    """A code table that loses, gains or mislabels an element must not pass."""

    @pytest.fixture
    def codes(self, monkeypatch):
        original = abelian_core._doubling_codes

        def install(fault):
            monkeypatch.setattr(abelian_core, "_doubling_codes", lambda n: fault(original(n)))

        return install

    def test_truncated_table(self, codes):
        codes(lambda table: table[:-1])
        with pytest.raises(InternalCheckError, match="walked 9 elements of a group of order 16"):
            rank2_quotient_enumerated((4, 4))

    def test_extended_table(self, codes):
        codes(lambda table: table + b"\0")
        with pytest.raises(InternalCheckError, match="walked 25 elements"):
            rank2_quotient_enumerated((4, 4))

    def test_corrupted_code(self, codes):
        # Z/6 has codes [0, 2, 2, 0, 2, 2]: relabelling c = 1 as 2c = 0 makes 3 solutions
        codes(lambda table: table[:1] + b"\0" + table[2:])
        with pytest.raises(InternalCheckError, match="solution count 3"):
            rank2_quotient_enumerated((6,))


class TestCorollary:
    """The prime-pair rank verify_pair reports: 2 when p = q = 1 (mod 4), else 1.

    It is the closed form on (p - 1, q - 1), recounted here by enumeration.
    """

    @pytest.mark.parametrize("p,q,expected", [(5, 13, 2), (3, 5, 1), (7, 11, 1)])
    def test_examples(self, p, q, expected):
        assert verify_pair(p, q).rank == expected
        assert rank2_quotient_enumerated((p - 1, q - 1)) == expected

    def test_symmetry(self):
        primes = [3, 5, 7, 11, 13, 17, 19, 23]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                assert verify_pair(p, q).rank == verify_pair(q, p).rank

    @pytest.mark.parametrize("p,q", [(9, 5), (5, 5), (2, 5), (5, 2)])
    def test_domain_errors(self, p, q):
        with pytest.raises(DomainError):
            verify_pair(p, q)
