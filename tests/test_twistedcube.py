import itertools
import json
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twistedcubes import twistedcube
from twistedcubes.cli import EXIT_ERROR, EXIT_UNTWISTED, main
from twistedcubes.errors import DimensionMismatch, PreconditionViolated
from twistedcubes.rootdata import cartan_table, parse_lie_type
from twistedcubes.twistedcube import contains_PD, lattice_points, signed_count
from twistedcubes.weightword import TwistData, Word, bound, derive_twist_data

from oracles import (
    RUNNING_EXAMPLE,
    all_types_up_to_rank,
    brute_force_census,
    contains,
    demazure_rho,
    density,
    derived,
    descent_census,
    is_longest_element,
    load_twist_data,
    positive_coroots,
    raw_twist_data,
    record_calls,
    weyl_dimension,
    word_instances,
    workload_data,
    write_input,
)


def test_bound_examples():
    assert bound(RUNNING_EXAMPLE, 2, (0, 0)) == 5
    assert bound(RUNNING_EXAMPLE, 2, (7, -9)) == 5
    assert bound(RUNNING_EXAMPLE, 1, (0, 4)) == -1
    zero = TwistData(n=3, c={}, ell=(0, 0, 0))
    assert all(bound(zero, j, (1, 2, 3)) == 0 for j in (1, 2, 3))


def test_contains_examples():
    assert contains(RUNNING_EXAMPLE, (1, 1))
    assert not contains(RUNNING_EXAMPLE, (0, 4))
    assert contains(RUNNING_EXAMPLE, (-1, 5))


def test_contains_excluded_boundary():
    # The segment {(0, x2) : 3 < x2 < 5} and the slanted open edge are out.
    assert not contains(RUNNING_EXAMPLE, (Fraction(0), Fraction(7, 2)))
    assert not contains(RUNNING_EXAMPLE, (Fraction(-1, 2), Fraction(7, 2)))
    # Interior of the open region is in.
    assert contains(RUNNING_EXAMPLE, (Fraction(-1, 4), Fraction(7, 2)))


def test_density_examples():
    assert density(RUNNING_EXAMPLE, (1, 1)) == 1
    assert density(RUNNING_EXAMPLE, (-1, 5)) == -1
    assert density(RUNNING_EXAMPLE, (0, 4)) == 0


def test_sign_convention_at_zero():
    # sgn(0) = -1: the origin of an odd-dimensional cube still has density +1.
    d = TwistData(n=1, c={}, ell=(0,))
    assert density(d, (0,)) == 1
    d3 = TwistData(n=3, c={}, ell=(0, 0, 0))
    assert density(d3, (0, 0, 0)) == 1


def test_contains_PD_examples():
    assert contains_PD(RUNNING_EXAMPLE, (1, 1))
    assert not contains_PD(RUNNING_EXAMPLE, (-1, 5))
    assert contains_PD(RUNNING_EXAMPLE, (0, 0))
    assert not contains_PD(TwistData(n=1, c={}, ell=(-1,)), (0,))
    with pytest.raises(DimensionMismatch, match="point has dimension 3, expected 2"):
        contains_PD(RUNNING_EXAMPLE, (0, 0, 0))


def test_example1_census():
    census = lattice_points(RUNNING_EXAMPLE)
    assert census.num_positive == 10
    assert census.num_negative == 1
    assert [p for p, rho in census.points if rho == -1] == [(-1, 5)]
    oracle = brute_force_census(RUNNING_EXAMPLE, box=5)
    assert oracle.points == census.points


def test_small_word_census():
    d = derived("A2", (1, 2, 1), (1, 0))
    census = lattice_points(d)
    assert [p for p, _ in census.points] == [(0, 0, 0), (0, 1, 1), (1, 0, 0)]
    assert all(rho == 1 for _, rho in census.points)
    assert census.signed_count == 3


def test_zero_weight_census():
    d = derived("B3", (1, 2, 3, 2), (0, 0, 0))
    census = lattice_points(d)
    assert census.points == (((0, 0, 0, 0), 1),)
    assert signed_count(d) == 1


def test_empty_cube():
    d = TwistData(n=0, c={}, ell=())
    census = lattice_points(d)
    assert census.points == (((), 1),)
    assert census.signed_count == 1


def test_census_has_no_cap_on_n():
    # The census costs what its levels hold, not 2**n: past the criterion's
    # cap of 20, the zero cube is still its one point.
    d = TwistData(n=25, ell=(0,) * 25)
    assert lattice_points(d).points == (((0,) * 25, 1),)
    assert signed_count(d) == 1


def test_census_calls_no_leaf_for_a_tail_without_points(monkeypatch):
    # The leaf runs once per tail (x_3, ..., x_n) that level 2 files, so a
    # tail that admits no x_2 reaches none: A_2 = 1 - x_3 is -1 at x_3 = 2.
    calls = record_calls(monkeypatch, twistedcube, "_signed")
    twistedcube.census_buckets(TwistData(n=3, c={(2, 3): 1}, ell=(0, 1, 3)), tuple, twistedcube._signed)
    assert [tail for (tail,), _ in calls] == [(0,), (1,), (3,)]
    # ell_1 = -1 leaves x_1 no value for any of the six tails x_2 in 0..5,
    # so the census is empty before level 2 files any of them.
    calls.clear()
    level, positive, negative = twistedcube.census_buckets(
        TwistData(n=2, ell=(-1, 5)), tuple, twistedcube._signed
    )
    assert (calls, level, positive, negative) == ([], (0, []), 0, 0)


@pytest.mark.parametrize(
    "kind, reads, leaves",
    [("a2", 5_534, 4_621), ("b2", 386, 368), ("running", 2, 1)],
)
def test_census_work_on_the_census_workload_is_pinned(kind, reads, leaves, monkeypatch):
    # Counted work, not time: bound reads and leaf calls of census_buckets
    # on the first instance of each kind of the benchmark's census workload,
    # as upper bounds.  The leaf runs once per tail filed at level 2, not
    # once per level-2 tail (x_2, ..., x_n), which made 23 017 / 8 464 / 6.
    inst = workload_data("census")["kinds"][kind][0]
    d = load_twist_data(inst)
    rows = record_calls(monkeypatch, twistedcube, "bound")
    calls = record_calls(monkeypatch, twistedcube, "_signed")
    _, positive, negative = twistedcube.census_buckets(d, tuple, twistedcube._signed)
    assert {"positive": positive, "negative": negative, "signed": positive - negative} == inst["expect"]
    assert len(rows) <= reads
    assert len(calls) <= leaves


@pytest.mark.parametrize("kind, kib", [("a2", 1_200), ("b2", 720), ("running", 320)])
def test_census_memory_on_the_census_workload_is_pinned(kind, kib):
    # Counted memory, not time: the tracemalloc peak of signed_count on the
    # first instance of each kind of the benchmark's census workload, as an
    # upper bound.  A level is one list per value of a contiguous range and
    # its runs are parallel lists of sizes and items; a ((v,), items) pair
    # per value and a (size, item) pair per run peaked at 2 310 / 1 010 /
    # 2 465 KiB, against 1 110 / 651 / 284 KiB.
    d = load_twist_data(workload_data("census")["kinds"][kind][0])
    # A first call fills what any later one finds in place, so that the
    # peak is the same whichever test ran before.
    signed_count(d)
    tracemalloc.start()
    try:
        signed_count(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= kib * 1024, peak / 1024


@pytest.mark.parametrize("kind, checks", [("a2", 64), ("b2", 106), ("running", 14)])
def test_run_end_checks_on_the_census_workload_are_pinned(kind, checks, monkeypatch):
    # Counted work, not time: a run's ends are functions of its bound a
    # alone, so the census checks them once per distinct a in a call, two
    # membership checks each, as upper bounds.  Checking each run at its
    # two ends made 57 100 / 17 698 / 14.
    d = load_twist_data(workload_data("census")["kinds"][kind][0])
    calls = record_calls(monkeypatch, twistedcube, "_coordinate_ok")
    lattice_points(d)
    bounds = [a for (a, _), _ in calls]
    assert len(calls) <= checks
    assert all(bounds.count(a) <= 2 for a in set(bounds))


@pytest.mark.parametrize(
    "d",
    [TwistData(n=2, ell=(-1, 200_000)), TwistData(n=3, c={(1, 3): 2}, ell=(4, -1, 7))],
    ids=["row 1", "row 2"],
)
def test_a_row_whose_bound_is_always_minus_one_empties_the_census_at_once(d, monkeypatch):
    # That row has no c entries and ell = -1, so its bound is -1 for every
    # tail and admits no value: the census returns before reading any bound.
    calls = []
    monkeypatch.setattr(twistedcube, "bound", lambda *args: calls.append(args))
    assert twistedcube.census_buckets(d, tuple, twistedcube._signed) == ((0, []), 0, 0)
    assert _lattice_out(d) == '{"positive": 0, "negative": 0, "signed": 0}\n'
    assert calls == []


@pytest.mark.parametrize(
    "d, reads",
    [
        # Level 3 files one item and level 2 nine, one per x_3 in 0..8.
        (TwistData(n=3, c={(1, 2): 1, (2, 3): 5}, ell=(2, 20, 8)), {3: 1, 2: 1, 1: 9}),
        # Level 2 files four items, three of them with negative runs.
        (TwistData(n=3, c={(1, 2): 2, (2, 3): -3}, ell=(4, -9, 3)), {3: 1, 2: 1, 1: 4}),
    ],
    ids=["positive runs", "negative runs"],
)
def test_each_filed_item_reads_the_next_row_once(d, reads, monkeypatch):
    # An item filed at level j > 1 carries the bound of row j - 1 at
    # x_j = 0, read once when it is made; each value of its run then costs
    # a subtraction, not a read.  So the census reads a bound once per item
    # filed at levels n..2, plus once for row n.
    calls = record_calls(monkeypatch, twistedcube, "bound")
    lattice_points(d)
    rows = [args[1] for args, _ in calls]
    assert {j: rows.count(j) for j in set(rows)} == reads


def test_enumeration_checks_every_chosen_value(monkeypatch):
    # The descent tests each value against the bound of its own tail; a
    # value that fails there must stop the census.
    monkeypatch.setattr(twistedcube, "_coordinate_ok", lambda a, v: False)
    with pytest.raises(PreconditionViolated):
        lattice_points(RUNNING_EXAMPLE)


# A fault at either end of a run must stop the census, although each run is
# checked at its two ends only: v == a >= 0 is the last value of a run 0..a,
# v == a + 1 < 0 the first of a run a+1..-1.
RUN_END_FAULTS = {
    "last of 0..a": lambda a, v: not v == a >= 0,
    "first of a+1..-1": lambda a, v: not v == a + 1 < 0,
}


@pytest.mark.parametrize(
    "fault, d",
    [
        # The running example has the runs 0..5 and 0..3 and the one-value run {-1}.
        ("last of 0..a", RUNNING_EXAMPLE),
        ("last of 0..a", TwistData(n=1, ell=(0,))),
        ("last of 0..a", TwistData(n=1, ell=(4,))),
        ("first of a+1..-1", RUNNING_EXAMPLE),
        ("first of a+1..-1", TwistData(n=1, ell=(-12,))),
        # Level 1 has the runs a+1..-1 for a = -3, -6, ..., -15.
        ("first of a+1..-1", TwistData(n=2, c={(1, 2): 3}, ell=(-3, 4))),
    ],
)
def test_enumeration_checks_both_ends_of_each_run(fault, d, monkeypatch):
    monkeypatch.setattr(twistedcube, "_coordinate_ok", RUN_END_FAULTS[fault])
    with pytest.raises(PreconditionViolated, match="^an enumerated lattice point lies outside the cube$"):
        lattice_points(d)


# Level 2 of this n = 3 cube reads a = 3, 2, 1 and level 1 reads
# a = 0, 0, 0, -1, -1, -1, -2, -2, -3; level 3 reads a = 2.
TWO_LEVELS = TwistData(n=3, c={(1, 2): 1, (2, 3): 1}, ell=(0, 3, 2))

# Level 2 of this n = 3 cube reads a = 3 for each of its three tails, and
# level 1 reads a = 3, 1, -1 and -3, each for three tails in a row.
SHARED_BOUNDS = TwistData(n=3, c={(1, 2): 2}, ell=(3, 3, 2))


@pytest.mark.parametrize(
    "d, rejected",
    [
        # First met on a later tail of its level: level 1 of the running
        # example reads a = 3, 2, 1, 0, -1, -2 ...
        pytest.param(RUNNING_EXAMPLE, -2, id="last tail of level 1"),
        # ... and level 1 of SHARED_BOUNDS reads a = -3 on its tenth tail.
        pytest.param(SHARED_BOUNDS, -3, id="tenth tail of level 1"),
        # First met at a level below the top, on that level's first tail.
        pytest.param(TWO_LEVELS, 3, id="level 2 of 3"),
        pytest.param(TWO_LEVELS, 0, id="level 1 of 3"),
    ],
)
def test_a_bound_first_met_below_the_top_or_on_a_later_tail_is_checked(d, rejected, monkeypatch, tmp_path):
    # Each distinct bound a is checked once per call, where it is first met:
    # a fault of that one a, and of no other, must still stop the census
    # and leave no `lattice --out` file.
    monkeypatch.setattr(twistedcube, "_coordinate_ok", lambda a, v: a != rejected)
    with pytest.raises(PreconditionViolated, match="^an enumerated lattice point lies outside the cube$"):
        lattice_points(d)
    inst, out = write_input(tmp_path / "inst.json", _raw_instance(d)), tmp_path / "census.jsonl"
    assert main(["lattice", "--instance", inst, "--out", str(out)]) == EXIT_ERROR
    assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(raw_twist_data())
def test_enumeration_matches_brute_force(d):
    assert lattice_points(d).points == brute_force_census(d).points


def wide_twist_data():
    """n <= 2 with |ell| <= 30 and |c| <= 6: level 1 often holds more than
    ``twistedcube._SMALL_LEVEL`` values, in several runs of both signs with
    values where no run starts or ends, and at most 31 * 210 points."""
    return raw_twist_data(max_n=2, c_bound=6, ell=(-30, 30))


# Level 1 has the runs 0..a for a = 40, 30, 20, 10, 0 and a+1..-1 for
# a = -10, -20, -30, -40: 80 values, more than twistedcube._SMALL_LEVEL,
# and at most of them no run starts or ends.
SHARED_RUNS = TwistData(n=2, c={(1, 2): 10}, ell=(40, 8))


@settings(max_examples=600, deadline=None)
@given(st.one_of(raw_twist_data(max_n=5, ell=(-3, 3)), wide_twist_data()))
# A tail with no admissible value (a = -1) at the top, in the middle and
# at the bottom level.
@example(TwistData(n=2, c={}, ell=(0, -1)))
@example(TwistData(n=3, c={(2, 3): 1}, ell=(2, 0, 1)))
@example(TwistData(n=3, c={(1, 2): 1, (1, 3): -1}, ell=(0, 1, 2)))
# Runs of both signs sharing lists at level 1, and at level 2 of n = 3
# (a = 20, 15, ..., -20 over x_3 = 0..8).
@example(SHARED_RUNS)
@example(TwistData(n=3, c={(1, 2): 1, (2, 3): 5}, ell=(2, 20, 8)))
# Negative runs at level 2 (a = -9, -6, -3 over x_3 = 0..2), whose items
# carry residual bounds into level 1.
@example(TwistData(n=3, c={(1, 2): 2, (2, 3): -3}, ell=(4, -9, 3)))
# Runs of both directions at level 1, several tails to each bound: three
# tails each to a = 3, 1, -1, -3 (filed value by value), and to
# a = 40, 30, ..., -40 (swept).
@example(SHARED_BOUNDS)
@example(TwistData(n=3, c={(1, 2): 10}, ell=(40, 8, 2)))
def test_enumeration_matches_the_descent_order_oracle(d):
    assert lattice_points(d) == descent_census(d)


@given(raw_twist_data(), st.data())
def test_support_identity(d, data):
    x = tuple(data.draw(st.integers(-6, 6)) for _ in range(d.n))
    assert (density(d, x) != 0) == contains(d, x)


@given(raw_twist_data(), st.data())
def test_PD_subset_of_C(d, data):
    x = tuple(
        Fraction(data.draw(st.integers(-12, 12)), data.draw(st.integers(1, 4)))
        for _ in range(d.n)
    )
    if contains_PD(d, x):
        assert contains(d, x)


@settings(max_examples=60, deadline=None)
@given(raw_twist_data())
def test_nonnegative_census_points_have_density_one(d):
    for p, rho in lattice_points(d).points:
        if all(v >= 0 for v in p):
            assert rho == 1


@settings(max_examples=60, deadline=None)
@given(raw_twist_data(max_n=4))
def test_census_densities_and_lines_match_the_oracles(d):
    # The descent's sign products against the density oracle, and the hand-built
    # `lattice` lines against json.dumps.
    census = lattice_points(d)
    assert all(rho == density(d, x) != 0 for x, rho in census.points)
    lines = _lattice_out(d).splitlines()
    parsed = [json.loads(line) for line in lines]
    assert lines == [json.dumps(obj) for obj in parsed]
    assert [(tuple(obj["x"]), obj["rho"]) for obj in parsed[:-1]] == list(census.points)


def _raw_instance(d: TwistData) -> dict:
    """d as the JSON of a raw instance file."""
    return {"n": d.n, "c": {f"{j},{k}": v for (j, k), v in d.c.items()}, "ell": list(d.ell)}


def _lattice_out(d: TwistData) -> str:
    """What `lattice --out` writes for d, given as a raw instance file."""
    with tempfile.TemporaryDirectory() as tmp:
        inst, out = write_input(Path(tmp) / "inst.json", _raw_instance(d)), Path(tmp) / "census.jsonl"
        assert main(["lattice", "--instance", inst, "--out", str(out)]) == EXIT_UNTWISTED
        return out.read_text(encoding="utf-8")


def _oracle_lines(d: TwistData) -> list[str]:
    """The `lattice` lines json.dumps writes for the descent oracle's census."""
    census = descent_census(d)
    totals = {
        "positive": census.num_positive,
        "negative": census.num_negative,
        "signed": census.signed_count,
    }
    return [json.dumps({"x": list(x), "rho": rho}) for x, rho in census.points] + [json.dumps(totals)]


def _box_size(d: TwistData) -> int:
    """An upper bound on the number of lattice points: the product of the
    ranges of x_n, ..., x_1 found by interval arithmetic on the bounds."""
    lo, hi, size = [0] * d.n, [0] * d.n, 1
    for j in range(d.n, 0, -1):
        a_lo = a_hi = d.ell[j - 1]
        for k, c in d.rows[j - 1]:
            a_lo -= max(c * lo[k - 1], c * hi[k - 1])
            a_hi -= min(c * lo[k - 1], c * hi[k - 1])
        lo[j - 1], hi[j - 1] = min(0, a_lo + 1), max(-1, a_hi)
        size *= hi[j - 1] - lo[j - 1] + 1
    return size


@settings(max_examples=400, deadline=None)
@given(st.one_of(raw_twist_data(max_n=5, c_bound=3, ell=(-4, 4)), wide_twist_data()))
@example(SHARED_RUNS)
def test_lattice_writer_matches_the_descent_oracle(d):
    # The bucket writer against an independent oracle that never goes
    # through lattice_points; instances too large to list are skipped.
    assume(_box_size(d) <= 50_000)
    assert _lattice_out(d) == "".join(line + "\n" for line in _oracle_lines(d))


def test_consecutive_buckets_that_share_a_list_read_the_same_items():
    (first, lists), _, _ = twistedcube.census_buckets(SHARED_RUNS, tuple, twistedcube._signed)
    values = list(range(first, first + len(lists)))
    assert values == list(range(-39, 41))
    shared = [i for i in range(len(lists) - 1) if lists[i] is lists[i + 1]]
    # Both signs share: x_1 = -9..-1 and 1..10, for instance.
    assert {values[i] < 0 for i in shared} == {True, False}
    for i in shared:
        here, there = (
            [(x[1:], rho) for x, rho in twistedcube._read_buckets(SHARED_RUNS.n, values[k], [lists[k]])]
            for k in (i, i + 1)
        )
        assert here == there != []
    census = lattice_points(SHARED_RUNS)
    lines = _lattice_out(SHARED_RUNS).splitlines()
    assert lines[:-1] == [json.dumps({"x": list(x), "rho": rho}) for x, rho in census.points]


@settings(max_examples=400, deadline=None)
@given(st.one_of(raw_twist_data(max_n=5, ell=(-3, 3)), wide_twist_data()))
# Only up runs at level 1: six of 0..30 (swept) and three of 0..3.
@example(TwistData(n=2, ell=(30, 5)))
@example(TwistData(n=2, ell=(3, 2)))
# Only down runs at level 1: six of -29..-1 (swept) and three of -3..-1.
@example(TwistData(n=2, ell=(-30, 5)))
@example(TwistData(n=2, ell=(-4, 2)))
# Runs of size 1: the one run 0..0, and 0..0 and -1..-1 beside -2..-1.
@example(TwistData(n=1, ell=(0,)))
@example(TwistData(n=2, c={(1, 2): 1}, ell=(0, 3)))
@example(TwistData(n=0))
def test_level_one_lists_span_the_x1_range_of_the_points(d):
    # Every up run starts at 0 and every down run ends at -1, so the values
    # of x_1 form one interval and each holds a point: census_buckets
    # returns level 1 as (first, lists) on that ground alone.
    (first, lists), _, _ = twistedcube.census_buckets(d, tuple, twistedcube._signed)
    points = descent_census(d).points
    assert all(lists)
    if d.n == 0:
        assert (first, lists) == (0, [[(1,)]])
        return
    counts = Counter(x[0] for x, _ in points)
    assert len(lists) == len(counts)
    if counts:
        assert (first, first + len(lists) - 1) == (min(counts), max(counts))
    assert [len(items) for items in lists] == [counts[first + i] for i in range(len(lists))]


@pytest.mark.parametrize(
    "d, shape",
    [
        # Every level-2 tail has A_1 = -1: the output is the totals line alone.
        (TwistData(n=3, c={(2, 3): 1}, ell=(-1, 1, 2)), "totals only"),
        # x_2 changes sign with x_3, so the x_1 = 0 bucket holds both signs.
        (TwistData(n=3, c={(2, 3): 1}, ell=(1, 1, 3)), "mixed bucket"),
        # A_1 = -3 - 3 x_2 reaches -15: multi-digit negative x_1.
        (TwistData(n=2, c={(1, 2): 3}, ell=(-3, 4)), "negative x1"),
        # The one point of n = 0 is the empty one, with an empty head.
        (TwistData(n=0), "n = 0"),
    ],
)
def test_lattice_writer_at_the_edges(d, shape):
    lines = _oracle_lines(d)
    assert _lattice_out(d) == "".join(line + "\n" for line in lines)
    if shape == "n = 0":
        assert lines == ['{"x": [], "rho": 1}', '{"positive": 1, "negative": 0, "signed": 1}']
        return
    points = [json.loads(line) for line in lines[:-1]]
    signs: dict[int, set] = {}
    for obj in points:
        signs.setdefault(obj["x"][0], set()).add(obj["rho"])
    if shape == "totals only":
        assert points == []
    elif shape == "mixed bucket":
        assert signs[0] == {1, -1}
    else:
        assert min(signs) <= -10


@settings(max_examples=100, deadline=None)
@given(raw_twist_data(max_n=4))
def test_signed_count_matches_the_census(d):
    assert signed_count(d) == lattice_points(d).signed_count


def test_signed_count_builds_no_point(monkeypatch):
    # signed_count reads the kernel's totals alone: its leaf returns one
    # shared pair, and lattice_points' point-building leaf never runs.
    kinds = workload_data("census")["kinds"]
    cases = [(load_twist_data(insts[0]), insts[0]["expect"]["signed"]) for insts in kinds.values()]
    cases += [(RUNNING_EXAMPLE, 9), (TwistData(n=0), 1), (TwistData(n=1, ell=(-3,)), -2)]

    def raises(tail):
        raise AssertionError(f"a point was built for the tail {tail}")

    monkeypatch.setattr(twistedcube, "_signed", raises)
    assert [signed_count(d) for d, _ in cases] == [signed for _, signed in cases]


# Every reduced word of w₀, found as the words of length |Φ⁺| whose Demazure
# product is w₀, with their expected number as a check of the oracle.
REDUCED_WORDS_OF_W0 = {"A2": 2, "B2": 2, "G2": 2, "A3": 16}


@pytest.mark.parametrize("type_name", sorted(REDUCED_WORDS_OF_W0))
def test_lattice_counts_the_weyl_dimension_at_the_longest_element(type_name, tmp_path):
    # When the word's Demazure product is w₀, the signed census is the Weyl
    # character of V(λ), so `lattice`'s signed total is dim V(λ).
    t = parse_lie_type(type_name)
    length = len(positive_coroots(t))
    words = [
        word
        for word in itertools.product(range(1, t.rank + 1), repeat=length)
        if is_longest_element(t, word)
    ]
    assert len(words) == REDUCED_WORDS_OF_W0[type_name]
    for word in words:
        for weight in itertools.product(range(3), repeat=t.rank):
            inst = {"type": type_name, "word": list(word), "weight": list(weight)}
            assert _lattice_signed(inst, tmp_path) == weyl_dimension(t, weight)


def test_lattice_counts_the_weyl_dimension_on_the_census_workload(tmp_path):
    # The A2 instances of the census workload, (1,2,1,2,1,2) and
    # (2,1,2,1,2,1) at λ = (8, 8), are not reduced, but their Demazure
    # product is w₀: dim V(8, 8) = 729.
    for inst in workload_data("census")["kinds"]["a2"]:
        t = parse_lie_type(inst["type"])
        assert is_longest_element(t, inst["word"])
        assert _lattice_signed(inst, tmp_path) == weyl_dimension(t, inst["weight"]) == 729


# A1-A4, B2-B4, C3, C4, D4, F4 and G2.
RANK_4_TYPES = all_types_up_to_rank(4)


def _braid_factors(t, letters) -> list[tuple[int, int]]:
    """(start, m) of each alternating factor i j i ... of the word whose
    length m is the braid length of i and j: 2, 3, 4 or 6 as c_ij c_ji is
    0, 1, 2 or 3."""
    table = cartan_table(t)
    factors = []
    for s in range(len(letters) - 1):
        i, j = letters[s], letters[s + 1]
        if i != j:
            m = (2, 3, 4, 6)[table[i - 1][j - 1] * table[j - 1][i - 1]]
            if letters[s : s + m] == ((i, j) * m)[:m]:
                factors.append((s, m))
    return factors


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_signed_count_depends_on_the_word_through_its_demazure_product(data):
    # The census applies Demazure operators, which satisfy D_i² = D_i and
    # the braid relations, so repeating a letter in place or swapping an
    # alternating factor of braid length (iji <-> jij, ...) changes neither
    # the Demazure product nor the signed count; at w₀ the count is
    # dim V(λ).
    t, word, lam = data.draw(word_instances(RANK_4_TYPES, 8, 2))
    letters = word.entries

    def key(entries):
        return demazure_rho(t, entries), signed_count(derive_twist_data(t, Word(entries), lam))

    variants = []
    if letters:
        p = data.draw(st.integers(0, len(letters) - 1))
        variants.append(letters[: p + 1] + letters[p:])
    factors = _braid_factors(t, letters)
    if factors:
        s, m = data.draw(st.sampled_from(factors))
        i, j = letters[s : s + 2]
        variants.append(letters[:s] + ((j, i) * m)[:m] + letters[s + m :])
    expected = key(letters)
    for variant in variants:
        assert key(variant) == expected, variant
    if is_longest_element(t, letters):
        assert expected[1] == weyl_dimension(t, lam.coefficients)


def _lattice_signed(inst: dict, tmp_path: Path) -> int:
    """The signed total that `lattice --out` writes for the instance."""
    path, out = write_input(tmp_path / "inst.json", inst), tmp_path / "census.jsonl"
    assert main(["lattice", "--instance", path, "--out", str(out)]) == EXIT_UNTWISTED
    return json.loads(out.read_bytes().splitlines()[-1])["signed"]
