"""Exception types shared across the package.

Every argument check raises :class:`InvalidArgument`, integer arguments
through :func:`integer`; the other classes say why a well-posed
computation has no answer. A plain ``ValueError`` is a
numeric failure, such as a search bracket with no sign change.
"""

import operator


class ProRataError(Exception):
    """Base class for errors raised by this package."""


class InvalidArgument(ProRataError, ValueError):
    """An argument outside the domain the library accepts. It is also a
    ``ValueError``, so callers that catch ``ValueError`` keep working."""


class ConfigError(InvalidArgument):
    """Invalid CLI flags or config-file input."""


class NoPositiveRegion(ProRataError):
    """The payoff is nonpositive everywhere on its domain; only the trivial
    all-zero profile makes sense and no positive root exists."""


class NoFiniteRoot(ProRataError):
    """The payoff never crosses back to zero within the search cap (or the
    tabulated domain); there is no finite positive root."""


class DomainExceeded(ProRataError):
    """A tabulated payoff was evaluated past its last knot."""


class NonPositiveNetDemand(ProRataError):
    """A batch nets out to a nonpositive amount of asset A; there is nothing
    to trade against the pool."""


def integer(name: str, value) -> int:
    """``value`` as a Python int when it is an integer, a numpy one too;
    a bool, a float or anything else raises :class:`InvalidArgument`
    naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidArgument(f"{name} must be an integer, got {value!r}")
