"""Arguments of the wrong shape raise DomainError naming what was passed,
never a TypeError, ValueError or AttributeError from inside the call."""

import pytest

from recipro import (
    AbelianGroup,
    DomainError,
    element_order,
    factorial_residues,
    product_over_transversal,
    rank2,
    rank2_quotient_enumerated,
    rank2_quotient_formula,
    sum_all_elements,
    two_torsion_subgroup,
    verify_pairs,
    verify_transversal,
)
from recipro.suites import run_suite


@pytest.mark.parametrize(
    "call,bad",
    [
        # factor orders that are not an iterable
        pytest.param(AbelianGroup, 5, id="AbelianGroup"),
        # a point that is not a pair, and a pair short of a modulus
        pytest.param(lambda point: factorial_residues([point]), 5, id="factorial_residues-int"),
        pytest.param(lambda point: factorial_residues([point]), (5,), id="factorial_residues-1-tuple"),
        # points, factor orders and coordinates that are not iterables
        pytest.param(factorial_residues, 5, id="factorial_residues"),
        pytest.param(rank2_quotient_formula, 5, id="rank2_quotient_formula"),
        pytest.param(rank2_quotient_enumerated, 5, id="rank2_quotient_enumerated"),
        pytest.param(lambda coords: element_order(AbelianGroup((4,)), coords), 5,
                     id="element_order"),
        # a group that is not an AbelianGroup
        pytest.param(sum_all_elements, 5, id="sum_all_elements"),
        pytest.param(two_torsion_subgroup, 5, id="two_torsion_subgroup"),
        pytest.param(rank2, 5, id="rank2"),
        pytest.param(lambda G: element_order(G, (1,)), 5, id="element_order-group"),
        # pairs that are not an iterable, and a pair short of a prime
        pytest.param(lambda pairs: list(verify_pairs(pairs)), 5, id="verify_pairs-int"),
        pytest.param(lambda pairs: list(verify_pairs(pairs)), [(3,)], id="verify_pairs-1-tuple"),
        pytest.param(product_over_transversal, 5, id="product_over_transversal"),
        pytest.param(verify_transversal, 5, id="verify_transversal"),
        # a suite name that is not a str, and a seed that is not an int: a seed
        # of None would draw from OS entropy, so no case list would repeat
        pytest.param(lambda which: run_suite(which, 5, 0), [3], id="run_suite-which"),
        pytest.param(lambda seed: run_suite("lemma1", 5, seed), [1], id="run_suite-seed-list"),
        pytest.param(lambda seed: run_suite("lemma1", 5, seed), None, id="run_suite-seed-None"),
    ],
)
def test_malformed_argument_raises_domain_error(call, bad):
    with pytest.raises(DomainError) as excinfo:
        call(bad)
    assert repr(bad) in str(excinfo.value)
