"""Twisted cubes from Lie-type words and dominant weights: construction,
untwistedness via the Cartier-vector criterion, hesitant-walk detection, and
exhaustive equivalence verification."""

from types import ModuleType as _ModuleType

from .errors import (
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    MalformedInput,
    NotAWitness,
    NotMinimalWitness,
    PreconditionViolated,
    RankOutOfRange,
    TwistedCubeError,
)
from .rootdata import LieType, cartan_pairing, parse_lie_type
from .weightword import (
    DominantWeight,
    TwistData,
    Word,
    appears_in_lambda,
    derive_twist_data,
)
from .twistedcube import (
    LatticeCensus,
    contains_PD,
    lattice_points,
    signed_count,
)
from .cartier import (
    CartierVector,
    UntwistResult,
    compute_m,
    hesitant_walk_from_twist_witness,
    is_untwisted,
    maximal_failing_index,
    minus_at,
    witness_sigma_from_walk,
)
from .walks import (
    WalkWitness,
    find_hesitant_lambda_walk,
    is_diagram_walk,
    is_hesitant_lambda_walk,
    is_lambda_walk,
    is_minimal,
    minimize,
)

# The submodules are attributes of the package too, but not API names.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
