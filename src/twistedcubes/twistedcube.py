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


def census_buckets(d: TwistData, prefix, leaf):
    """The integer points of C(c, ell) as level-1 buckets, with their totals.

    At level j, with the tail x[j:] fixed, the bound A_j is a known integer
    a; the admissible values of x_j are the run 0..a when a >= 0 and the
    open-side run a+1..-1 when a < 0 (empty at a = -1).  The density takes
    the sign 1 on negatives and -1 on [0, inf) from each coordinate, so a
    run 0..a negates the density of its tail and a run a+1..-1 keeps it.
    Each sorted tail of level j+1 goes into the bucket of every value of its
    run, and reading the buckets in increasing x_j gives the sorted tails of
    level j, so no sort over the points is needed.

    A_j is affine in x_{j+1}: A_j(v, tail) = A_j(0, tail) - c[j, j+1] v.
    So an item filed at level j+1 is ``(tail, rho, r)``, tail being
    (x_{j+1}, ..., x_n), rho its density and r = A_j(0, tail) its residual
    bound, read through ``bound`` once when the item is made; level j takes
    a = r - c[j, j+1] v for the value v of each bucket it reads.

    Runs are checked against the cube's membership condition at their
    coordinate, at each end, for each distinct bound once per call, since a
    run's ends are functions of a alone: 0 and a, or a+1 and -1.  For a
    fixed a the condition a < v < 0 or 0 <= v <= a holds on one interval of
    integers, so a run of consecutive integers lies in it if and only if
    its first and last values do: the two end checks pass exactly when a
    check of every value would, and every run with that a gets their
    verdict.

    A level files runs, not values, each as ``(size, item)`` in one of two
    lists by its direction: the runs 0..a up, the runs a+1..-1 down.  The
    bucket of x_j = v holds, in tail order, the items of the runs that
    contain v.  Every run starts at 0 or at -1, so a list changes only
    after a value where some run ends: the up runs are swept up from 0 and
    the down runs down from -1, a list is built at the start and after each
    run end, and the values in between share it (``_swept_lists``).  A
    level whose runs hold at most ``_SMALL_LEVEL`` values in all, as in the
    sweep's small cubes, is one list if it has one run and otherwise files
    its values in a dict, which costs less there.

    A tail that admits no value is dropped before anything is built for it,
    and a row j with no c entries and ell_j = -1, whose bound is -1 for
    every tail, empties the cube before any level is built.

    Level 1 files the caller's objects, made by two hooks.  ``leaf(tail)``
    is called once per tail (x_3, ..., x_n) that level 2 files, or at n = 1
    once for the empty tail, and returns ``(plus, minus)``, the tail's
    object for either density; that pair takes the tail's place in its
    item.  ``prefix(head)`` is called once per bucket that level 1 reads,
    head being ``(x_2,)``, or ``()`` at n = 1.  Level 1 files
    ``prefix(head) + plus`` or ``+ minus``, by the density, in the bucket of
    each admissible x_1.  Returns ``(buckets, positive, negative)``: buckets
    is a list of ``(head, objects)`` in increasing x_1, head being
    ``(x_1,)`` (``()`` when n = 0, whose one point is the empty one, with
    the object ``prefix(()) + plus``), and the totals count points, not
    objects.  Consecutive buckets may share one objects list, which is only
    read.

    Cost: a tail's next row is read once, when its item is filed; the
    read costs the tail's length, to copy into x and in the bound.  Each
    value of the item's run then costs one subtraction at the next level,
    and each new tail one lookup of its bound among those checked; two
    calls of the membership check come once per distinct bound of the
    call.  Each level then costs one bucket per value, and one list per run
    end, of the runs still open there.  So a level costs its new tails
    times n plus its values plus that filtering, not 2**n nor one step per
    point, and n has no cap.
    The leaf runs once per item of level 2, not once per value of x_2 in its
    run, and level 1 adds one ``+`` per tail it files.
    """
    if d.n == 0:
        return [((), [prefix(()) + leaf(())[0]])], 1, 0
    # Derived data has no ell_j = -1, so the scan below is skipped for it.
    if -1 in d.ell and any(not row and ell == -1 for row, ell in zip(d.rows, d.ell)):
        return [], 0, 0
    x = [0] * d.n
    # Level n reads the one empty tail; its residual bound is ell_n.
    tail = leaf(()) if d.n == 1 else ()
    buckets = [((), [(tail, (-1) ** d.n, bound(d, d.n, x))])]
    checked = set()  # the bounds a whose runs passed the end checks
    for j in range(d.n, 0, -1):
        # A row is in increasing k, so a nonzero c[j, j+1] is its head.
        row = d.rows[j - 1]
        step = row[0][1] if row and row[0][0] == j + 1 else 0
        # (size, item) of each tail that admits a value, in tail order, by
        # the direction of its run: 0..a up, a+1..-1 down.
        up, down = [], []
        positive = negative = 0
        for head, items in buckets:
            shift = step * head[0] if head else 0
            if j == 1:
                pre = prefix(head)
            for tail, rho, r in items:
                a = r - shift
                if a >= 0:
                    size = a + 1
                    rho = -rho
                    runs = up
                elif a < -1:
                    size = -1 - a
                    runs = down
                else:
                    continue
                if a not in checked:
                    first, last = (0, a) if a >= 0 else (a + 1, -1)
                    if not (_coordinate_ok(a, first) and _coordinate_ok(a, last)):
                        raise PreconditionViolated("an enumerated lattice point lies outside the cube")
                    checked.add(a)
                if j > 1:
                    tail = head + tail
                    # x_j = 0 in x: only levels below j write x[j - 1].
                    x[j:] = tail
                    item = (tail if j > 2 else leaf(tail), rho, bound(d, j - 1, x))
                else:
                    # Level 2 filed the leaf's (plus, minus) in place of the tail.
                    item = pre + tail[rho < 0]
                runs.append((size, item))
                if rho > 0:
                    positive += size
                else:
                    negative += size
        # Drop the level just read before the next is built, so that the two
        # are not held at once.
        buckets = None
        buckets = _level_buckets(up, down, positive + negative)
    return buckets, positive, negative


# A level whose runs hold at most this many values in all is filed value by
# value: there one dict entry per value costs less than the sweep's fixed
# work per run end.  Timed level by level, the two break even at 49..64.
_SMALL_LEVEL = 64


def _level_buckets(up, down, values):
    """One level's buckets ``((v,), items)`` in increasing v, from its runs
    ``(size, item)`` by direction, each in tail order: ``up`` the runs
    0..size-1, ``down`` the runs -size..-1, and the number of values they
    hold in all."""
    # One short run, the commonest level of small cubes, needs no filing.  A long
    # one is swept: its list is allocated up front, not grown value by value.
    if len(up) + len(down) == 1 and values <= _SMALL_LEVEL:
        ((size, item),) = up or down
        items = [item]
        return [((v,), items) for v in (range(size) if up else range(-size, 0))]
    if values <= _SMALL_LEVEL:
        filled: dict[int, list] = {}
        # One loop per direction: one loop over both measured slower here.
        for size, item in up:
            for v in range(size):
                if v in filled:
                    filled[v].append(item)
                else:
                    filled[v] = [item]
        for size, item in down:
            for v in range(-size, 0):
                if v in filled:
                    filled[v].append(item)
                else:
                    filled[v] = [item]
        return [((v,), filled[v]) for v in sorted(filled)]
    up = _swept_lists(up)
    down = _swept_lists(down)
    down.reverse()
    return list(zip(zip(range(-len(down), len(up))), down + up))


def _swept_lists(runs):
    """The item lists of one direction's runs ``(size, item)``, all starting
    at one value, 0 for up and -1 for down, from that value on: the t-th
    list holds, in the given order, the items of the runs with size > t.  A
    list is built at the start and after each run end, and the values in
    between share it.  It takes ``up`` or ``down`` as the level filed it."""
    lists = []
    for size in sorted({size for size, _ in runs}):
        items = [item for _, item in runs]
        lists += [items] * (size - len(lists))
        runs = [run for run in runs if run[0] > size]
    return lists


def _read_buckets(buckets):
    """Yield (x, rho) for the objects (x_2, ..., x_n, rho) of level-1
    buckets, in order.  Only ``lattice_points`` reads it; the levels of
    ``census_buckets`` read their buckets directly."""
    for head, items in buckets:
        for point in items:
            point = head + point
            yield point[:-1], point[-1]


def _signed(tail):
    """The leaf of ``lattice_points``: the tail with each density appended.
    Its prefix is ``tuple``, which returns the head (x_2,) itself."""
    return tail + (1,), tail + (-1,)


def lattice_points(d: TwistData) -> LatticeCensus:
    """Enumerate the integer points of C(c, ell) exactly, sorted by x, each
    tagged with its density (see ``census_buckets``)."""
    buckets, positive, negative = census_buckets(d, tuple, _signed)
    return LatticeCensus(
        points=tuple(_read_buckets(buckets)), num_positive=positive, num_negative=negative
    )


def _nothing(tail):
    """The leaf of ``signed_count``: a pair of empty tuples, one constant of
    the compiled code, so that with the prefix ``tuple`` level 1 files each
    head (x_2,) itself and no object is built per tail."""
    return (), ()


def signed_count(d: TwistData) -> int:
    """Number of lattice points with density +1 minus those with -1."""
    _, positive, negative = census_buckets(d, tuple, _nothing)
    return positive - negative
