"""Exception types shared across the package.

Every argument check raises :class:`InvalidArgument`, counts through
:func:`integer` and numeric bounds through :func:`number`; the other
classes say why a well-posed computation has no answer. A plain
``ValueError`` is a numeric failure, such as a search bracket with no sign
change.
"""

import math
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


def integer(name: str, value, least: int) -> int:
    """``value`` as a Python int when it is an integer, a numpy one too,
    of at least ``least``; a bool, a float, anything else or a smaller
    integer raises :class:`InvalidArgument` naming ``name``."""
    rule = "an integer"
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= least:
                return count
            rule = "nonnegative" if least == 0 else f"at least {least}"
    raise InvalidArgument(f"{name} must be {rule}, got {value!r}")


def number(name: str, value, positive: bool):
    """``value`` when it is finite and positive or, with ``positive=False``,
    nonnegative (inf included); otherwise, and always for NaN, raises
    :class:`InvalidArgument` naming ``name``."""
    # each comparison is false for NaN
    if (0.0 < value < math.inf) if positive else (value >= 0.0):
        return value
    rule = "finite and positive" if positive else "nonnegative"
    raise InvalidArgument(f"{name} must be {rule}, got {value!r}")
