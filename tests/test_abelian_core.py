import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recipro import (
    AbelianGroup,
    CapacityError,
    DomainError,
    InternalCheckError,
    abelian_core,
    element_order,
    rank2,
    sum_all_elements,
    two_torsion_subgroup,
)
from recipro.quotient_rank import rank2_quotient_enumerated
from recipro.suites import random_factor_lists, run_suite
from _oracles import (
    doubling_walk_by_element_loop,
    order_by_repeated_addition,
    sum_by_element_loop,
    sum_coords_formula,
    torsion_by_element_loop,
    torsion_by_factors,
)

# small factor lists, guaranteed enumerable (product <= 1000)
factor_lists = st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=3)


class TestConstruction:
    def test_orders_normalized_to_tuple(self):
        G = AbelianGroup([4, 2])
        assert G.factor_orders == (4, 2)
        assert G.order == 8

    def test_equal_by_value(self):
        assert AbelianGroup((4, 2)) == AbelianGroup([4, 2])

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "4", True])
    def test_bad_factor_order(self, bad):
        with pytest.raises(DomainError):
            AbelianGroup((4, bad))

    def test_trivial_factors_allowed(self):
        G = AbelianGroup((1, 1))
        assert G.order == 1
        assert rank2(G).rank == 0
        assert two_torsion_subgroup(G) == [(0, 0)]
        assert sum_all_elements(G) == (0, 0)

    def test_element_validation(self):
        # element_order is where a caller's coordinates enter, so it checks them
        G = AbelianGroup((4, 2))
        cases = [
            ((4, 0), "coordinate 4 is not reduced modulo 4"),
            ((1, -1), "coordinate -1 is not reduced modulo 2"),
            ((True, 0), "coordinate True is not reduced modulo 4"),
            ((1.0, 0), "coordinate 1.0 is not reduced modulo 4"),
            ((1,), "expected 2 coordinates, got 1"),
            ((1, 0, 0), "expected 2 coordinates, got 3"),
        ]
        for coords, message in cases:
            with pytest.raises(DomainError) as excinfo:
                element_order(G, coords)
            assert str(excinfo.value) == message, coords


class TestElementOrder:
    def test_examples(self):
        assert element_order(AbelianGroup((4,)), (2,)) == 2
        assert element_order(AbelianGroup((4, 6)), (1, 3)) == 4
        assert element_order(AbelianGroup((5,)), (0,)) == 1
        assert element_order(AbelianGroup((4, 6)), [1, 3]) == 4

    @given(factor_lists, st.data())
    def test_matches_repeated_addition(self, orders, data):
        coords = tuple(data.draw(st.integers(0, n - 1)) for n in orders)
        G = AbelianGroup(orders)
        assert element_order(G, coords) == order_by_repeated_addition(coords, tuple(orders))

    @given(factor_lists, st.data())
    def test_divides_group_order(self, orders, data):
        G = AbelianGroup(orders)
        coords = tuple(data.draw(st.integers(0, n - 1)) for n in orders)
        assert G.order % element_order(G, coords) == 0


class TestTwoTorsion:
    def test_odd_group(self):
        assert two_torsion_subgroup(AbelianGroup((3,))) == [(0,)]

    def test_mixed_group_lexicographic(self):
        result = two_torsion_subgroup(AbelianGroup((4, 2)))
        assert result == [(0, 0), (0, 1), (2, 0), (2, 1)]

    def test_elementary_group(self):
        assert two_torsion_subgroup(AbelianGroup((2,))) == [(0,), (1,)]

    @given(factor_lists)
    def test_matches_per_factor_oracle(self, orders):
        got = two_torsion_subgroup(AbelianGroup(orders))
        assert got == torsion_by_factors(orders)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            two_torsion_subgroup(AbelianGroup((2,) * 23))

    @pytest.mark.parametrize(
        "walk",
        [lambda: two_torsion_subgroup(AbelianGroup((1 << 23,))),
         lambda: rank2_quotient_enumerated((1 << 23,))],
        ids=["torsion", "quotient"],
    )
    def test_capacity_checked_before_any_flag_is_tabulated(self, walk, monkeypatch):
        # a single factor over the cap would otherwise build its whole code table first
        def tabulate(n):
            raise AssertionError(f"tabulated codes of Z/{n}")

        monkeypatch.setattr(abelian_core, "_doubling_codes", tabulate)
        with pytest.raises(CapacityError, match="group enumeration needs 8388608 steps"):
            walk()

    @given(st.lists(st.integers(min_value=1, max_value=16), min_size=0, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_element_loop(self, orders):
        got = two_torsion_subgroup(AbelianGroup(orders))
        assert got == torsion_by_element_loop(orders)


class TestTorsionFaults:
    """A code table that loses, gains or mislabels an element must not pass."""

    @pytest.fixture
    def codes(self, monkeypatch):
        original = abelian_core._doubling_codes

        def install(fault):
            monkeypatch.setattr(abelian_core, "_doubling_codes", lambda n: fault(n, original(n)))

        return install

    def test_truncated_table(self, codes):
        codes(lambda n, table: table[:-1])
        with pytest.raises(InternalCheckError, match="walked 9 elements of a group of order 16"):
            two_torsion_subgroup(AbelianGroup((4, 4)))

    def test_extended_table(self, codes):
        codes(lambda n, table: table + b"\0")
        with pytest.raises(InternalCheckError, match="walked 25 elements"):
            two_torsion_subgroup(AbelianGroup((4, 4)))

    def test_mislabelled_flag_fails_the_rank_one_groups_with_that_factor(self, codes):
        # Z/6 has 2c = 0 at c = 0, 3 only: labelling c = 1 so too gives 3 solutions
        codes(lambda n, table: table[:1] + b"\0" + table[2:] if n == 6 else table)
        cases = random_factor_lists(200, 0)
        expected = [f"orders={o}" for o in cases if 6 in o and rank2(AbelianGroup(o)).rank == 1]
        assert 0 < len(expected) < sum(6 in o for o in cases)
        result = run_suite("lemma1", 200, 0)
        assert (result.n_fail, result.failures) == (len(expected), tuple(expected))


class TestDoublingWalk:
    @given(st.lists(st.integers(min_value=1, max_value=16), max_size=4))
    @example([])
    @example([1, 1])
    @example([1, 4, 1])
    # large factors first and last
    @example([4100, 2])
    @example([2, 4100])
    @settings(max_examples=150, deadline=None)
    def test_matches_element_loop(self, orders):
        assert abelian_core._doubling_walk(orders) == doubling_walk_by_element_loop(orders)

    def test_capacity_error(self):
        with pytest.raises(CapacityError, match="group enumeration needs 8388608 steps"):
            abelian_core._doubling_walk((2,) * 23)


class TestRank2:
    @pytest.mark.parametrize(
        "orders,rank,size",
        [((15,), 0, 1), ((4, 2), 2, 4), ((2, 2, 6), 3, 8)],
    )
    def test_examples(self, orders, rank, size):
        G = AbelianGroup(orders)
        assert rank2(G).rank == rank
        assert len(two_torsion_subgroup(G)) == size

    @given(factor_lists)
    def test_power_of_two_matches_enumeration(self, orders):
        G = AbelianGroup(orders)
        assert 2 ** rank2(G).rank == len(two_torsion_subgroup(G))


class TestSumAllElements:
    @pytest.mark.parametrize(
        "orders,expected",
        [((3,), (0,)), ((4,), (2,)), ((2, 2), (0, 0))],
    )
    def test_examples(self, orders, expected):
        assert sum_all_elements(AbelianGroup(orders)) == expected

    @given(st.lists(st.integers(min_value=1, max_value=16), min_size=0, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_element_loop(self, orders):
        assert sum_all_elements(AbelianGroup(orders)) == sum_by_element_loop(orders)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            sum_all_elements(AbelianGroup((2,) * 23))

    @given(factor_lists)
    def test_matches_coordinate_formula(self, orders):
        assert sum_all_elements(AbelianGroup(orders)) == sum_coords_formula(orders)

    @given(factor_lists)
    @settings(max_examples=60)
    def test_rank_dichotomy(self, orders):
        G = AbelianGroup(orders)
        a = sum_all_elements(G)
        if rank2(G).rank == 1:
            assert element_order(G, a) == 2
            torsion = two_torsion_subgroup(G)
            assert len(torsion) == 2 and a == torsion[1]
        else:
            assert not any(a)

    @given(factor_lists)
    @settings(max_examples=60)
    def test_sum_over_group_equals_sum_over_torsion(self, orders):
        # elements outside the two-torsion cancel in (g, -g) pairs
        G = AbelianGroup(orders)
        torsion = two_torsion_subgroup(G)
        acc = tuple(sum(column) % n for column, n in zip(zip(*torsion), orders))
        assert acc == sum_all_elements(G)
