"""Exception hierarchy shared across the package, and the integer checks
that the value types share."""


class TwistedCubeError(Exception):
    """Base class for all package errors."""


class RankOutOfRange(TwistedCubeError):
    """Family/rank pair outside the admissible bounds."""


class IndexOutOfRange(TwistedCubeError):
    """Root or coordinate index outside [1, rank] / [1, n]."""


class DimensionMismatch(TwistedCubeError):
    """Vector length disagrees with the ambient dimension."""


class CapExceeded(TwistedCubeError):
    """Requested n exceeds the configured exhaustive-sweep cap."""


class NotAWitness(TwistedCubeError):
    """Claimed walk witness fails its defining predicate."""


class NotMinimalWitness(TwistedCubeError):
    """Walk witness fails the minimality preconditions."""


class PreconditionViolated(TwistedCubeError):
    """Constructive operation called outside its stated precondition."""


class MalformedInput(TwistedCubeError):
    """An instance or sweep file, or a value built in code, does not match
    any accepted schema."""


def require_int(field: str, value) -> int:
    """value itself if it is an int; bools, floats and strings are rejected,
    not coerced."""
    if type(value) is not int:  # noqa: E721 - bool is an int subclass
        raise MalformedInput(f"{field} must be an integer, got {value!r}")
    return value


# The one type that require_ints accepts for an item: type(True) is bool.
_INT = frozenset({int})


def require_ints(field: str, values) -> tuple[int, ...]:
    """values as a tuple if it is an iterable of ints other than a str,
    bytes or dict; bools are rejected, as in require_int."""
    if type(values) is tuple:
        items = values
    else:
        try:
            items = None if isinstance(values, (str, bytes, dict)) else tuple(values)
        except TypeError:
            items = None
    if items is None or not _INT.issuperset(map(type, items)):
        raise MalformedInput(f"{field} must be a list of integers, got {values!r}")
    return items

