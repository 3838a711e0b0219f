"""Words, dominant weights, and the constants (c, ell) they induce.

The pairing-order convention is the single most error-prone point in the
whole construction, so it is stated once here and tested hard: for positions
j < k in the word,

    c[j, k] = cartan_pairing(t, word[k], word[j])

i.e. the k-th letter's root paired against the j-th letter's coroot (row
word[k], column word[j] of the Cartan matrix).  In type B3 the word (3, 2)
therefore gets c[1, 2] = -2, not -1.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import DimensionMismatch, IndexOutOfRange, MalformedInput, require_int, require_ints
from .rootdata import LieType, cartan_table


@dataclass(frozen=True)
class Word:
    """A sequence of simple-root indices (1-based), not necessarily reduced."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", require_ints("word", self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def validate_for(self, t: LieType) -> None:
        entries, rank = self.entries, t.rank
        if entries and not (1 <= min(entries) and max(entries) <= rank):
            bad = next(i for i in entries if not 1 <= i <= rank)
            raise DimensionMismatch(f"word letter {bad} outside [1, {rank}] for {t}")


@dataclass(frozen=True)
class DominantWeight:
    """Nonnegative integer coefficients on the fundamental weights."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = require_ints("weight", self.coefficients)
        if any(c < 0 for c in coeffs):
            raise DimensionMismatch(f"dominant weight needs nonnegative coefficients: {coeffs}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def validate_for(self, t: LieType) -> None:
        if self.rank != t.rank:
            raise DimensionMismatch(f"weight has rank {self.rank}, expected {t.rank}")


def appears_in_lambda(lam: DominantWeight, i: int) -> bool:
    """Whether the i-th simple root appears in lam (coefficient > 0)."""
    if not 1 <= require_int("root index", i) <= lam.rank:
        raise IndexOutOfRange(f"root index {i} outside [1, {lam.rank}]")
    return lam.coefficients[i - 1] > 0


@dataclass(frozen=True)
class TwistData:
    """The integers c[j, k] (1 <= j < k <= n) and ell defining one twisted cube.

    Raw construction permits arbitrary integers, and only integers; data
    derived from a dominant weight always has ell >= 0.  c is stored once,
    as ``rows``: ``rows[j - 1]`` holds the nonzero ``(k, c[j, k])`` of row j
    in increasing k, which is what the bound kernel reads.
    """

    n: int
    ell: tuple[int, ...]
    rows: tuple = field(hash=False)

    def __init__(self, n: int, c: dict[tuple[int, int], int] = {}, ell=()):
        ell = require_ints("ell", ell)
        if len(ell) != require_int("n", n):
            raise DimensionMismatch(f"ell has length {len(ell)}, expected {n}")
        if not isinstance(c, Mapping):
            raise MalformedInput(f"c must map pairs (j, k) to integers, got {c!r}")
        rows = [[] for _ in range(n)]
        for key, v in c.items():
            if len(pair := require_ints("c key", key)) != 2:
                raise MalformedInput(f"c key must be a pair (j, k), got {key!r}")
            j, k = pair
            if not 1 <= j < k <= n:
                raise DimensionMismatch(f"c index ({j}, {k}) outside 1 <= j < k <= {n}")
            if require_int(f"c[{j}, {k}]", v):
                rows[j - 1].append((k, v))
        vars(self).update(n=n, ell=ell, rows=tuple(tuple(sorted(r)) for r in rows))

    @property
    def c(self) -> dict[tuple[int, int], int]:
        """The nonzero c[j, k] as a new dict, built from the rows."""
        return {(j, k): v for j, row in enumerate(self.rows, 1) for k, v in row}

    def c_at(self, j: int, k: int) -> int:
        """c[j, k] for j < k; absent entries are 0."""
        if type(j) is not int or type(k) is not int:  # noqa: E721 - bool is an int subclass
            raise MalformedInput(f"c index ({j!r}, {k!r}) must be a pair of integers")
        if not 1 <= j < k <= self.n:
            raise DimensionMismatch(f"c index ({j}, {k}) outside 1 <= j < k <= {self.n}")
        return row_entry(self.rows[j - 1], k)


def row_entry(row, k: int) -> int:
    """c[j, k] read from row j of a TwistData's rows, for an int k > j that
    the caller has checked; absent entries are 0."""
    # The row is in increasing k, so the scan stops at the first k' >= k.
    for key, v in row:
        if key >= k:
            return v if key == k else 0
    return 0


def bound(d: TwistData, j: int, x):
    """The affine bound A_j(x) = ell_j - sum_{k>j} c[j, k] x_k; it reads
    only x[k - 1] for k > j, so x may hold just a known tail."""
    a = d.ell[j - 1]
    for k, v in d.rows[j - 1]:
        a -= v * x[k - 1]
    return a


# One (k, c[j, k]) tuple per value, shared by the rows of every word: a
# sweep keeps the rows of each distinct twist data of a block alive.  k is
# at most a word's length and c[j, k] a Cartan entry, so it stays small.
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


# The one cached word of _word_constants: its type, its Word and their
# constants.  A sweep reads them once per group, through a Word of its own.
_CACHED: list = [None, None, None]


def _word_constants(t: LieType, w: Word):
    """The rows of the word w in type t, as the TwistData constructor would
    build them, and the word's ell gather: gather(lam.coefficients) is
    ell = (lam_{w_1}, ..., lam_{w_n}) as a tuple.  Both depend on the word
    alone.  One word is cached, by the identity of t and w: a sweep reads
    them once for each group, whose weights share them, and each
    derive_twist_data call of the group hits.  A letter outside the rank
    raises, and a failure is not cached."""
    cached_t, cached_w, constants = _CACHED
    if t is cached_t and w is cached_w:
        return constants
    w.validate_for(t)
    # The letters are checked above, so no index below is 0 or negative.
    letters = w.entries
    table = cartan_table(t)
    n = len(letters)
    rows = []
    for j in range(1, n + 1):
        column = letters[j - 1] - 1
        row = []
        for k in range(j + 1, n + 1):
            v = table[letters[k - 1] - 1][column]
            if v:
                pair = k, v
                row.append(_PAIRS.setdefault(pair, pair))
        rows.append(tuple(row))
    # itemgetter gives a bare value for one index, so a word of one letter,
    # and the empty word, gather a slice of the coefficients.
    if n > 1:
        gather = itemgetter(*[i - 1 for i in letters])
    elif n:
        gather = itemgetter(slice(letters[0] - 1, letters[0]))
    else:
        gather = itemgetter(slice(0))
    constants = tuple(rows), gather
    _CACHED[:] = t, w, constants
    return constants


def derive_twist_data(t: LieType, w: Word, lam: DominantWeight) -> TwistData:
    """The twisted-cube constants of (t, w, lam).  The weight's rank is
    checked first, then the word's letters, through the word cache, whose
    rows every TwistData of the word shares, read-only, and whose gather
    reads ell from the weight."""
    lam.validate_for(t)
    rows, gather = _word_constants(t, w)
    d = object.__new__(TwistData)
    # The cached rows are already clean, so __init__ is not run again.
    vars(d).update(n=len(rows), ell=gather(lam.coefficients), rows=rows)
    return d
