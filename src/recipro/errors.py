"""Exception types shared across the package."""


class ReciproError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ReciproError, ValueError):
    """An argument violates an operation's mathematical contract."""


class CapacityError(ReciproError):
    """An enumeration would exceed the configured budget."""


class InternalCheckError(ReciproError):
    """An internal consistency check failed: a bug, not bad input."""
