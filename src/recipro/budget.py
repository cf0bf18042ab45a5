"""Enumeration budgets.

Operations that walk a whole group, a whole transversal, or a
factorial-length loop check the step count against a fixed cap before
starting and raise :class:`~recipro.errors.CapacityError` instead of running
away.  The caps keep everything at desk scale; there is no override, so a
result depends only on the arguments.
"""

from .errors import CapacityError

GROUP_ENUM_CAP = 1 << 22         # full enumeration of an abelian group
QUOTIENT_ENUM_CAP = 1 << 18      # two-torsion counting modulo the diagonal subgroup
STREAM_PRODUCT_CAP = 1 << 21     # transversal product, one pass over 0 < k < pq/2
FACTORIAL_LOOP_CAP = 10_000_000  # factorial-style running products
WILSON_CASE_CAP = 664_578        # wilson suite: the odd primes <= FACTORIAL_LOOP_CAP + 1
SUITE_CASE_CAP = 100_000         # lemma1, lemma2 and euler suites: cases per run
SQUARE_ORACLE_CAP = 100_000      # square-enumeration oracle, bound on the modulus


def require_within(size: int, cap: int, what: str) -> None:
    if size > cap:
        raise CapacityError(f"{what} needs {size} steps, over the cap of {cap}")
