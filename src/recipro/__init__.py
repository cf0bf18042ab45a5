"""Exact verification of quadratic reciprocity through finite abelian group identities.

The library computes 2-ranks and two-torsion of explicit cyclic products,
quotient ranks by closed form and by enumeration, Legendre symbols by two
independent routes, and the coordinatewise product of the canonical coset
representatives of {(1,1), (-1,-1)} inside F_p^x x F_q^x, cross-checking
everything against independently computed symbols.
"""

__version__ = "0.1.0"

from .abelian_core import (
    AbelianGroup,
    Rank2Result,
    element_order,
    rank2,
    sum_all_elements,
    two_torsion_subgroup,
)
from .errors import (
    CapacityError,
    DomainError,
    InternalCheckError,
    ReciproError,
)
from .quotient_rank import (
    rank2_quotient_enumerated,
    rank2_quotient_formula,
)
from .reciprocity_pipeline import (
    RELATION_EQUAL,
    RELATION_OPPOSITE,
    PairVerdict,
    Transversal,
    UnitPair,
    build_transversal,
    closed_form_product,
    predicted_symbol_relation,
    product_over_transversal,
    verify_pair,
    verify_pairs,
    verify_transversal,
)
from .residue_arith import (
    euler_criterion_check,
    factorial_mod,
    factorial_residues,
    first_odd_primes,
    is_prime,
    legendre_euler,
    legendre_oracle,
    odd_primes_up_to,
    validate_odd_prime,
    wilson_check,
)

__all__ = [
    "AbelianGroup",
    "CapacityError",
    "DomainError",
    "InternalCheckError",
    "PairVerdict",
    "RELATION_EQUAL",
    "RELATION_OPPOSITE",
    "Rank2Result",
    "ReciproError",
    "Transversal",
    "UnitPair",
    "build_transversal",
    "closed_form_product",
    "element_order",
    "euler_criterion_check",
    "factorial_mod",
    "factorial_residues",
    "first_odd_primes",
    "is_prime",
    "legendre_euler",
    "legendre_oracle",
    "odd_primes_up_to",
    "predicted_symbol_relation",
    "product_over_transversal",
    "rank2",
    "rank2_quotient_enumerated",
    "rank2_quotient_formula",
    "sum_all_elements",
    "two_torsion_subgroup",
    "validate_odd_prime",
    "verify_pair",
    "verify_pairs",
    "verify_transversal",
    "wilson_check",
]
