"""Exception hierarchy shared across the package, and the integer checks
that the instance and sweep-spec loaders share."""


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
    """Instance or sweep file does not match any accepted schema."""


def require_int(field: str, value) -> int:
    """value itself if it is an int; bools, floats and strings are rejected,
    not coerced."""
    if type(value) is not int:  # noqa: E721 - bool is an int subclass
        raise MalformedInput(f"{field} must be an integer, got {value!r}")
    return value


def require_ints(field: str, values) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise MalformedInput(f"{field} must be a list of integers, got {values!r}")
    return tuple(require_int(field, v) for v in values)
