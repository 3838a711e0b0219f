"""The twisted cube itself: membership in the weak-inequality polytope, and
exact lattice enumeration with densities.

Membership at arbitrary rational points uses exact Fraction arithmetic; the
lattice enumeration stays in pure integers (the bounding functions are
integer-valued on integer inputs, so there is no rounding question).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational
from typing import Sequence

from .errors import DimensionMismatch, PreconditionViolated
from .weightword import TwistData, bound

Coord = Rational  # int or Fraction


def _coordinate_ok(a, xj) -> bool:
    """One coordinate's membership condition: a < x < 0 or 0 <= x <= a."""
    return (a < xj < 0) or (0 <= xj <= a)


def contains_PD(d: TwistData, x: Sequence[Coord]) -> bool:
    """Whether x lies in the all-weak-inequalities polytope 0 <= x_j <= A_j(x)."""
    if len(x) != d.n:
        raise DimensionMismatch(f"point has dimension {len(x)}, expected {d.n}")
    return all(0 <= x[j - 1] <= bound(d, j, x) for j in range(1, d.n + 1))


def _sgn(v) -> int:
    """The density sign convention: 1 on negatives, -1 on [0, inf)."""
    return 1 if v < 0 else -1


@dataclass(frozen=True)
class LatticeCensus:
    """All integer points of a twisted cube, each tagged with its density."""

    points: tuple[tuple[tuple[int, ...], int], ...]
    num_positive: int
    num_negative: int

    @property
    def signed_count(self) -> int:
        return self.num_positive - self.num_negative


def census_buckets(d: TwistData, leaf):
    """The integer points of C(c, ell) as level-1 buckets, with their totals.

    At level j, with the tail x[j:] fixed, the bound A_j is a known integer
    a; the admissible values of x_j are {0..a} when a >= 0 and the open-side
    integers {a+1..-1} when a < 0 (empty at a = -1), all of sign _sgn(a).
    Each sorted tail of level j+1 goes into the bucket of every admissible
    x_j, and reading the buckets in increasing x_j gives the sorted tails of
    level j, so no sort over the points is needed.  Every chosen value is
    checked against the bound of its own tail, the cube's membership
    condition at that coordinate.

    A tail that admits no value is dropped before anything is built for it,
    and a row j with no c entries and ell_j = -1, whose bound is -1 for
    every tail, empties the cube before any level is built.
    Level 1 calls ``leaf(tail, rho)`` once per level-2 tail (x_2, ..., x_n)
    that admits some x_1, rho being the density of every point
    (x_1,) + tail, and files that one object in the bucket of each
    admissible x_1.  Returns ``(buckets, positive, negative)``: buckets is a
    list of ``(head, leaves)`` in increasing x_1, head being ``(x_1,)``
    (``()`` when n = 0, whose one point is the empty one), and the totals
    count points, not leaves.  Each tail costs its length, to copy into x
    and to read in the bound, so the cost is the number of tails per level
    times n, not 2**n, and n has no cap.
    """
    if d.n == 0:
        return [((), [leaf((), 1)])], 1, 0
    if any(not row and ell == -1 for row, ell in zip(d.rows, d.ell)):
        return [], 0, 0
    x = [0] * d.n
    buckets = [((), [((), (-1) ** d.n)])]
    for j in range(d.n, 0, -1):
        filled: dict[int, list] = {}
        counts = [0, 0]  # points of density +1, -1
        for tail, rho in _read_buckets(buckets):
            x[j:] = tail
            a = bound(d, j, x)
            values = range(0, a + 1) if a >= 0 else range(a + 1, 0)
            if not values:
                continue
            rho *= _sgn(a)
            item = (tail, rho) if j > 1 else leaf(tail, rho)
            for v in values:
                if not _coordinate_ok(a, v):
                    raise PreconditionViolated("an enumerated lattice point lies outside the cube")
                if v in filled:
                    filled[v].append(item)
                else:
                    filled[v] = [item]
            counts[rho < 0] += len(values)
        buckets = [((v,), filled[v]) for v in sorted(filled)]
    return buckets, counts[0], counts[1]


def _read_buckets(buckets):
    """Yield (head + tail, rho) for the items of the buckets, in order.  A
    level is read lazily: it is consumed once, by the next level or by
    ``lattice_points``."""
    for head, items in buckets:
        for tail, rho in items:
            yield head + tail, rho


def _pair(tail, rho):
    return tail, rho


def lattice_points(d: TwistData) -> LatticeCensus:
    """Enumerate the integer points of C(c, ell) exactly, sorted by x, each
    tagged with its density (see ``census_buckets``)."""
    buckets, positive, negative = census_buckets(d, _pair)
    return LatticeCensus(
        points=tuple(_read_buckets(buckets)), num_positive=positive, num_negative=negative
    )


def signed_count(d: TwistData) -> int:
    """Number of lattice points with density +1 minus those with -1."""
    _, positive, negative = census_buckets(d, _pair)
    return positive - negative
