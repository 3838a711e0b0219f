"""Immutable root-system reference data: Dynkin diagrams and Cartan matrices.

Root indices are 1-based everywhere, matching the usual textbook vertex
labels (in the E series, vertex 2 hangs off vertex 4).  Conventions:
``cartan_pairing(t, i, j)`` is the pairing of the i-th simple root against
the j-th simple coroot, i.e. the row-i column-j entry of the Cartan matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import IndexOutOfRange, RankOutOfRange, require_int

#: Hard upper bound on rank; everything of interest lives at tiny rank.
MAX_RANK = 32

#: Minimal admissible rank of the classical families.
_RANK_FLOOR = {"A": 1, "B": 2, "C": 3, "D": 4}

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

#: Every LieType built so far, by (family, rank): at most one per Dynkin
#: diagram of rank <= MAX_RANK.
_MADE: dict = {}


@dataclass(frozen=True, order=True)
class LieType:
    """A Dynkin family letter plus rank, e.g. B3.  A pair that names no
    Dynkin diagram raises RankOutOfRange.

    Each type is built once: the constructor returns the instance already
    made for an equal (family, rank), and so does unpickling.  So equal
    types are one object, and the hash is the object's own, computed in C,
    which the caches keyed by a type read on every lookup."""

    family: str
    rank: int

    __hash__ = object.__hash__

    def __new__(cls, family: str, rank: int):
        # Only a str and an int are looked up: ("A", 2.0) equals ("A", 2)
        # but must still fail the checks below, and a list is unhashable.
        if type(family) is str and type(rank) is int:  # noqa: E721
            made = _MADE.get((family, rank))
            if made is not None:
                return made
        return super().__new__(cls)

    def __reduce__(self):
        return LieType, (self.family, self.rank)

    def __post_init__(self) -> None:
        family, rank = self.family, self.rank
        # A str subclass would equal a made type without being it.
        if type(family) is not str or family not in FAMILIES:  # noqa: E721
            raise RankOutOfRange(f"unknown family {family!r}; expected one of {FAMILIES}")
        if type(rank) is not int:  # noqa: E721 - bool is an int subclass
            raise RankOutOfRange(f"rank must be an integer, got {rank!r}")
        if family == "E":
            if rank not in (6, 7, 8):
                raise RankOutOfRange(f"E requires rank in {{6, 7, 8}}, got {rank}")
        elif family == "F":
            if rank != 4:
                raise RankOutOfRange(f"F requires rank 4, got {rank}")
        elif family == "G":
            if rank != 2:
                raise RankOutOfRange(f"G requires rank 2, got {rank}")
        else:
            floor = _RANK_FLOOR[family]
            if not floor <= rank <= MAX_RANK:
                raise RankOutOfRange(
                    f"{family} requires {floor} <= rank <= {MAX_RANK}, got {rank}"
                )
        _MADE.setdefault((family, rank), self)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


_TYPE_RE = re.compile(r"^([A-G])([0-9]{1,9})$")


def parse_lie_type(text: str) -> LieType:
    """Parse the serialized form 'A5', 'E7', 'G2'; any other value, a
    non-string too, raises RankOutOfRange."""
    m = isinstance(text, str) and _TYPE_RE.match(text.strip())
    if not m:
        raise RankOutOfRange(f"cannot parse Lie type {text!r}")
    return LieType(m.group(1), int(m.group(2)))


def _diagram_edges(t: LieType) -> list[tuple[int, int]]:
    """Edges of the Dynkin diagram (1-based, i < j)."""
    fam, r = t.family, t.rank
    if fam in ("A", "B", "C"):
        return [(i, i + 1) for i in range(1, r)]
    if fam == "D":
        return [(i, i + 1) for i in range(1, r - 1)] + [(r - 2, r)]
    if fam == "E":
        chain = [1, 3] + list(range(4, r + 1))
        edges = [tuple(sorted(p)) for p in zip(chain, chain[1:])]
        return sorted(edges + [(2, 4)])
    if fam == "F":
        return [(1, 2), (2, 3), (3, 4)]
    return [(1, 2)]  # G2


@lru_cache(maxsize=None)
def cartan_table(t: LieType) -> tuple[tuple[int, ...], ...]:
    """The full Cartan matrix of t, built from the diagram plus short/long-edge
    rules."""
    r = t.rank
    m = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j in _diagram_edges(t):
        m[i - 1][j - 1] = -1
        m[j - 1][i - 1] = -1
    # Multiple edges, read against the arrow: the long root pairs to -1, the
    # short one to -2 (or -3 in G2).
    if t.family == "B":
        m[r - 2][r - 1] = -2
    elif t.family == "C":
        m[r - 1][r - 2] = -2
    elif t.family == "F":
        m[1][2] = -2
    elif t.family == "G":
        m[1][0] = -3
    return tuple(tuple(row) for row in m)


def cartan_pairing(t: LieType, i: int, j: int) -> int:
    """Pairing of the i-th simple root against the j-th simple coroot."""
    _check_index(t, i)
    _check_index(t, j)
    return cartan_table(t)[i - 1][j - 1]


def _check_index(t: LieType, i: int) -> None:
    if not 1 <= require_int("root index", i) <= t.rank:
        raise IndexOutOfRange(f"root index {i} outside [1, {t.rank}] for {t}")

