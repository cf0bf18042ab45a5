"""Enumeration budgets.

Operations that walk a whole group, a whole transversal, or a
factorial-length loop check the step count against a cap before starting
and raise :class:`~recipro.errors.CapacityError` instead of running away.
Defaults keep everything at desk scale; setting the environment variable
``RECIPRO_MAX_BUDGET`` to a positive integer lowers (never raises) every
cap at once.
"""

import os

from .errors import CapacityError, DomainError

ENV_VAR = "RECIPRO_MAX_BUDGET"

GROUP_ENUM_CAP = 1 << 22         # full enumeration of an abelian group
QUOTIENT_ENUM_CAP = 1 << 18      # two-torsion counting modulo the diagonal subgroup
STREAM_PRODUCT_CAP = 1 << 21     # transversal product, one pass over 0 < k < pq/2
TRANSVERSAL_CAP = 200_000        # transversal validation, bound on pq
FACTORIAL_LOOP_CAP = 10_000_000  # factorial-style running products
SQUARE_ORACLE_CAP = 100_000      # square-enumeration oracle, bound on the modulus


def env_limit() -> int | None:
    """RECIPRO_MAX_BUDGET as a positive integer, or None when it is unset.

    Raises DomainError when the variable is set to anything else.
    """
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise DomainError(f"{ENV_VAR} must be positive, got {value}")
    return value


def effective_cap(default: int) -> int:
    """The default cap, clamped by RECIPRO_MAX_BUDGET when that is set."""
    limit = env_limit()
    return default if limit is None else min(default, limit)


def require_within(size: int, default_cap: int, what: str) -> None:
    cap = effective_cap(default_cap)
    if size > cap:
        raise CapacityError(f"{what} needs {size} steps, over the cap of {cap}")
