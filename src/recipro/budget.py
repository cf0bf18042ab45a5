"""Enumeration budgets, one cap per kind of work.

The function that does the work checks its cap before starting: a walk over
a whole group, the pass over a transversal, a factorial running product, a
suite's case list, the square oracle, the prime sieve.  Over the cap it raises
:class:`~recipro.errors.CapacityError` instead of running away.  There is no
override, so a result depends only on the arguments.
"""

from .errors import CapacityError

GROUP_ENUM_CAP = 1 << 22         # one walk over a whole group, quotient-rank counting included
STREAM_PRODUCT_CAP = 1 << 21     # transversal product, one pass over 0 < k < pq/2
FACTORIAL_LOOP_CAP = 10_000_000  # factorial running products, largest n
SUITE_CASE_CAP = 100_000         # cases per run of every suite
SQUARE_ORACLE_CAP = 100_000      # square-enumeration oracle, bound on the modulus
SIEVE_CAP = 1 << 21              # prime sieve, bound on the largest number sieved


def require_within(size: int, cap: int, what: str) -> None:
    if size > cap:
        raise CapacityError(f"{what} needs {size} steps, over the cap of {cap}")
