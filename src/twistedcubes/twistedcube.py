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
    a; the admissible values of x_j are the run 0..a when a >= 0 and the
    open-side run a+1..-1 when a < 0 (empty at a = -1).  The density takes
    the sign 1 on negatives and -1 on [0, inf) from each coordinate, so a
    run 0..a negates the density of its tail and a run a+1..-1 keeps it.
    Each sorted tail of level j+1 goes into the bucket of every value of its
    run, and reading the buckets in increasing x_j gives the sorted tails of
    level j, so no sort over the points is needed.

    Each run is checked against the bound of its own tail, the cube's
    membership condition at that coordinate, once at each end.  For a fixed
    a the condition a < v < 0 or 0 <= v <= a holds on one interval of
    integers, so a run of consecutive integers lies in it if and only if
    its first and last values do: the two end checks pass exactly when a
    check of every value would.

    A level files runs, not values.  The bucket of x_j = v holds, in tail
    order, the items of the runs that contain v.  Every run starts at 0 or
    at -1, so a list changes only after a value where some run ends: the
    runs 0..a are swept up from 0 and the runs a+1..-1 down from -1, a
    list is built at the start and after each run end, and the values in
    between share it (``_swept_lists``).  A level with one run is one list.
    A level whose runs hold at most ``_SMALL_LEVEL`` values in all, as in
    the sweep's small cubes, files its values in a dict instead, which
    costs less there.

    A tail that admits no value is dropped before anything is built for it,
    and a row j with no c entries and ell_j = -1, whose bound is -1 for
    every tail, empties the cube before any level is built.
    Level 1 calls ``leaf(tail, rho)`` once per level-2 tail (x_2, ..., x_n)
    that admits some x_1, rho being the density of every point
    (x_1,) + tail, and files that one object in the bucket of each
    admissible x_1.  Returns ``(buckets, positive, negative)``: buckets is a
    list of ``(head, leaves)`` in increasing x_1, head being ``(x_1,)``
    (``()`` when n = 0, whose one point is the empty one), and the totals
    count points, not leaves.  Consecutive buckets may share one leaves
    list, which is only read.

    Cost: each tail costs its length, to copy into x and to read in the
    bound, plus two calls of the membership check.  Each level then costs
    one bucket per value, and one list per run end, of the runs still open
    there.  So a level costs its tails times n plus its values plus that
    filtering, not 2**n nor one step per point, and n has no cap.
    """
    if d.n == 0:
        return [((), [leaf((), 1)])], 1, 0
    # Derived data has no ell_j = -1, so the scan below is skipped for it.
    if -1 in d.ell and any(not row and ell == -1 for row, ell in zip(d.rows, d.ell)):
        return [], 0, 0
    x = [0] * d.n
    buckets = [((), [((), (-1) ** d.n)])]
    for j in range(d.n, 0, -1):
        runs = []  # (first, size, item) of each tail that admits a value, in tail order
        positive = negative = 0
        for tail, rho in _read_buckets(buckets):
            x[j:] = tail
            a = bound(d, j, x)
            if a >= 0:
                first, size = 0, a + 1
                rho = -rho
            elif a < -1:
                first, size = a + 1, -1 - a
            else:
                continue
            if not (_coordinate_ok(a, first) and _coordinate_ok(a, first + size - 1)):
                raise PreconditionViolated("an enumerated lattice point lies outside the cube")
            runs.append((first, size, (tail, rho) if j > 1 else leaf(tail, rho)))
            if rho > 0:
                positive += size
            else:
                negative += size
        buckets = _level_buckets(runs, positive + negative)
    return buckets, positive, negative


# A level whose runs hold at most this many values in all is filed value by
# value: there one dict entry per value costs less than the sweep's fixed
# work per run end.  Timed level by level, the two break even at 49..64.
_SMALL_LEVEL = 64


def _level_buckets(runs, values):
    """One level's buckets ``((v,), items)`` in increasing v, from its runs
    ``(first, size, item)`` in tail order and the number of values they
    hold in all."""
    # One run, the commonest level of small cubes, needs no filing at all.
    if len(runs) == 1:
        first, size, item = runs[0]
        items = [item]
        return [((v,), items) for v in range(first, first + size)]
    if values <= _SMALL_LEVEL:
        filled: dict[int, list] = {}
        for first, size, item in runs:
            for v in range(first, first + size):
                if v in filled:
                    filled[v].append(item)
                else:
                    filled[v] = [item]
        return [((v,), filled[v]) for v in sorted(filled)]
    up = _swept_lists([(size, item) for first, size, item in runs if first == 0])
    down = _swept_lists([(size, item) for first, size, item in runs if first < 0])
    down.reverse()
    return list(zip(zip(range(-len(down), len(up))), down + up))


def _swept_lists(runs):
    """The item lists of runs ``(size, item)`` that all start at one value
    and go the same way, from that value on: the t-th list holds, in the
    given order, the items of the runs with size > t.  A list is built at
    the start and after each run end, and the values in between share it."""
    lists = []
    for size in sorted({size for size, _ in runs}):
        items = [item for _, item in runs]
        lists += [items] * (size - len(lists))
        runs = [run for run in runs if run[0] > size]
    return lists


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
