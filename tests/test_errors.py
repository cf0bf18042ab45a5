"""Arguments of the wrong shape raise DomainError naming what was passed,
never a TypeError, ValueError or AttributeError from inside the call."""

import pytest

from recipro import (
    AbelianGroup,
    DomainError,
    factorial_residues,
    product_over_transversal,
    verify_transversal,
)


@pytest.mark.parametrize(
    "call,bad",
    [
        # factor orders that are not an iterable
        pytest.param(AbelianGroup, 5, id="AbelianGroup"),
        # a point that is not a pair, and a pair short of a modulus
        pytest.param(lambda point: factorial_residues([point]), 5, id="factorial_residues-int"),
        pytest.param(lambda point: factorial_residues([point]), (5,), id="factorial_residues-1-tuple"),
        pytest.param(product_over_transversal, 5, id="product_over_transversal"),
        pytest.param(verify_transversal, 5, id="verify_transversal"),
    ],
)
def test_malformed_argument_raises_domain_error(call, bad):
    with pytest.raises(DomainError) as excinfo:
        call(bad)
    assert repr(bad) in str(excinfo.value)
