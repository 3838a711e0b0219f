import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twistedcubes import twistedcube
from twistedcubes.cli import EXIT_UNTWISTED, main
from twistedcubes.errors import DimensionMismatch, PreconditionViolated
from twistedcubes.rootdata import parse_lie_type
from twistedcubes.twistedcube import contains_PD, lattice_points, signed_count
from twistedcubes.weightword import DominantWeight, TwistData, Word, bound, derive_twist_data

from oracles import brute_force_census, contains, density, descent_census

# The running n=2 instance: half-open region with one negative lattice point.
EX1 = TwistData(n=2, c={(1, 2): 1}, ell=(3, 5))


def test_bound_examples():
    assert bound(EX1, 2, (0, 0)) == 5
    assert bound(EX1, 2, (7, -9)) == 5
    assert bound(EX1, 1, (0, 4)) == -1
    zero = TwistData(n=3, c={}, ell=(0, 0, 0))
    assert all(bound(zero, j, (1, 2, 3)) == 0 for j in (1, 2, 3))


def test_contains_examples():
    assert contains(EX1, (1, 1))
    assert not contains(EX1, (0, 4))
    assert contains(EX1, (-1, 5))


def test_contains_excluded_boundary():
    # The segment {(0, x2) : 3 < x2 < 5} and the slanted open edge are out.
    assert not contains(EX1, (Fraction(0), Fraction(7, 2)))
    assert not contains(EX1, (Fraction(-1, 2), Fraction(7, 2)))
    # Interior of the open region is in.
    assert contains(EX1, (Fraction(-1, 4), Fraction(7, 2)))


def test_density_examples():
    assert density(EX1, (1, 1)) == 1
    assert density(EX1, (-1, 5)) == -1
    assert density(EX1, (0, 4)) == 0


def test_sign_convention_at_zero():
    # sgn(0) = -1: the origin of an odd-dimensional cube still has density +1.
    d = TwistData(n=1, c={}, ell=(0,))
    assert density(d, (0,)) == 1
    d3 = TwistData(n=3, c={}, ell=(0, 0, 0))
    assert density(d3, (0, 0, 0)) == 1


def test_contains_PD_examples():
    assert contains_PD(EX1, (1, 1))
    assert not contains_PD(EX1, (-1, 5))
    assert contains_PD(EX1, (0, 0))
    assert not contains_PD(TwistData(n=1, c={}, ell=(-1,)), (0,))
    with pytest.raises(DimensionMismatch, match="point has dimension 3, expected 2"):
        contains_PD(EX1, (0, 0, 0))


def test_example1_census():
    census = lattice_points(EX1)
    assert census.num_positive == 10
    assert census.num_negative == 1
    assert [p for p, rho in census.points if rho == -1] == [(-1, 5)]
    oracle = brute_force_census(EX1, box=5)
    assert oracle.points == census.points


def test_small_word_census():
    d = derive_twist_data(parse_lie_type("A2"), Word((1, 2, 1)), DominantWeight((1, 0)))
    census = lattice_points(d)
    assert [p for p, _ in census.points] == [(0, 0, 0), (0, 1, 1), (1, 0, 0)]
    assert all(rho == 1 for _, rho in census.points)
    assert census.signed_count == 3


def test_zero_weight_census():
    d = derive_twist_data(parse_lie_type("B3"), Word((1, 2, 3, 2)), DominantWeight((0, 0, 0)))
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


def test_census_calls_no_leaf_for_a_tail_without_points():
    # ell_1 = -1 leaves x_1 no value for any of the six tails x_2 in 0..5,
    # so none of them reaches the leaf.
    calls = []
    buckets, positive, negative = twistedcube.census_buckets(
        TwistData(n=2, ell=(-1, 5)), lambda tail, rho: calls.append(tail)
    )
    assert (calls, buckets, positive, negative) == ([], [], 0, 0)


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
    assert twistedcube.census_buckets(d, lambda tail, rho: tail) == ([], 0, 0)
    assert _lattice_out(d) == '{"positive": 0, "negative": 0, "signed": 0}\n'
    assert calls == []


def test_enumeration_checks_every_chosen_value(monkeypatch):
    # The descent tests each value against the bound of its own tail; a
    # value that fails there must stop the census.
    monkeypatch.setattr(twistedcube, "_coordinate_ok", lambda a, v: False)
    with pytest.raises(PreconditionViolated):
        lattice_points(EX1)


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
        # EX1 has the runs 0..5 and 0..3 and the one-value run {-1}.
        ("last of 0..a", EX1),
        ("last of 0..a", TwistData(n=1, ell=(0,))),
        ("last of 0..a", TwistData(n=1, ell=(4,))),
        ("first of a+1..-1", EX1),
        ("first of a+1..-1", TwistData(n=1, ell=(-12,))),
        # Level 1 has the runs a+1..-1 for a = -3, -6, ..., -15.
        ("first of a+1..-1", TwistData(n=2, c={(1, 2): 3}, ell=(-3, 4))),
    ],
)
def test_enumeration_checks_both_ends_of_each_run(fault, d, monkeypatch):
    monkeypatch.setattr(twistedcube, "_coordinate_ok", RUN_END_FAULTS[fault])
    with pytest.raises(PreconditionViolated, match="^an enumerated lattice point lies outside the cube$"):
        lattice_points(d)


def small_twist_data(max_n=3, bound=2, ell_bound=None):
    ell_bound = bound if ell_bound is None else ell_bound
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-ell_bound, ell_bound), min_size=n, max_size=n),
            st.lists(
                st.integers(-bound, bound),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ),
        )
    ).map(_build)


def _build(args):
    n, ell, cvals = args
    keys = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    return TwistData(n=n, c=dict(zip(keys, cvals)), ell=tuple(ell))


@settings(max_examples=60, deadline=None)
@given(small_twist_data())
def test_enumeration_matches_brute_force(d):
    assert lattice_points(d).points == brute_force_census(d).points


def wide_twist_data():
    """n <= 2 with |ell| <= 30 and |c| <= 6: level 1 often holds more than
    ``twistedcube._SMALL_LEVEL`` values, in several runs of both signs with
    values where no run starts or ends, and at most 31 * 210 points."""
    return small_twist_data(max_n=2, bound=6, ell_bound=30)


# Level 1 has the runs 0..a for a = 40, 30, 20, 10, 0 and a+1..-1 for
# a = -10, -20, -30, -40: 80 values, more than twistedcube._SMALL_LEVEL,
# and at most of them no run starts or ends.
SHARED_RUNS = TwistData(n=2, c={(1, 2): 10}, ell=(40, 8))


@settings(max_examples=600, deadline=None)
@given(st.one_of(small_twist_data(max_n=5, bound=2, ell_bound=3), wide_twist_data()))
# A tail with no admissible value (a = -1) at the top, in the middle and
# at the bottom level.
@example(TwistData(n=2, c={}, ell=(0, -1)))
@example(TwistData(n=3, c={(2, 3): 1}, ell=(2, 0, 1)))
@example(TwistData(n=3, c={(1, 2): 1, (1, 3): -1}, ell=(0, 1, 2)))
# Runs of both signs sharing lists at level 1, and at level 2 of n = 3
# (a = 20, 15, ..., -20 over x_3 = 0..8).
@example(SHARED_RUNS)
@example(TwistData(n=3, c={(1, 2): 1, (2, 3): 5}, ell=(2, 20, 8)))
def test_enumeration_matches_the_descent_order_oracle(d):
    assert lattice_points(d) == descent_census(d)


@given(small_twist_data(), st.data())
def test_support_identity(d, data):
    x = tuple(data.draw(st.integers(-6, 6)) for _ in range(d.n))
    assert (density(d, x) != 0) == contains(d, x)


@given(small_twist_data(), st.data())
def test_PD_subset_of_C(d, data):
    x = tuple(
        Fraction(data.draw(st.integers(-12, 12)), data.draw(st.integers(1, 4)))
        for _ in range(d.n)
    )
    if contains_PD(d, x):
        assert contains(d, x)


@settings(max_examples=60, deadline=None)
@given(small_twist_data())
def test_nonnegative_census_points_have_density_one(d):
    for p, rho in lattice_points(d).points:
        if all(v >= 0 for v in p):
            assert rho == 1


@settings(max_examples=60, deadline=None)
@given(small_twist_data(max_n=4))
def test_census_densities_and_lines_match_the_oracles(d):
    # The descent's sign products against the density oracle, and the hand-built
    # `lattice` lines against json.dumps.
    census = lattice_points(d)
    assert all(rho == density(d, x) != 0 for x, rho in census.points)
    lines = _lattice_out(d).splitlines()
    parsed = [json.loads(line) for line in lines]
    assert lines == [json.dumps(obj) for obj in parsed]
    assert [(tuple(obj["x"]), obj["rho"]) for obj in parsed[:-1]] == list(census.points)


def _lattice_out(d: TwistData) -> str:
    """What `lattice --out` writes for d, given as a raw instance file."""
    raw = {"n": d.n, "c": {f"{j},{k}": v for (j, k), v in d.c.items()}, "ell": list(d.ell)}
    with tempfile.TemporaryDirectory() as tmp:
        inst, out = Path(tmp) / "inst.json", Path(tmp) / "census.jsonl"
        inst.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["lattice", "--instance", str(inst), "--out", str(out)]) == EXIT_UNTWISTED
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
@given(st.one_of(small_twist_data(max_n=5, bound=3, ell_bound=4), wide_twist_data()))
@example(SHARED_RUNS)
def test_lattice_writer_matches_the_descent_oracle(d):
    # The bucket writer against an independent oracle that never goes
    # through lattice_points; instances too large to list are skipped.
    assume(_box_size(d) <= 50_000)
    assert _lattice_out(d) == "".join(line + "\n" for line in _oracle_lines(d))


def test_consecutive_buckets_that_share_a_list_read_the_same_items():
    buckets, _, _ = twistedcube.census_buckets(SHARED_RUNS, twistedcube._pair)
    heads = [head for head, _ in buckets]
    assert heads == [(v,) for v in range(-39, 41)]
    shared = [i for i in range(len(buckets) - 1) if buckets[i][1] is buckets[i + 1][1]]
    # Both signs share: x_1 = -9..-1 and 1..10, for instance.
    assert {heads[i][0] < 0 for i in shared} == {True, False}
    for i in shared:
        first, second = (
            [(x[1:], rho) for x, rho in twistedcube._read_buckets([buckets[k]])] for k in (i, i + 1)
        )
        assert first == second != []
    census = lattice_points(SHARED_RUNS)
    lines = _lattice_out(SHARED_RUNS).splitlines()
    assert lines[:-1] == [json.dumps({"x": list(x), "rho": rho}) for x, rho in census.points]


@pytest.mark.parametrize(
    "d, shape",
    [
        # Every level-2 tail has A_1 = -1: the output is the totals line alone.
        (TwistData(n=3, c={(2, 3): 1}, ell=(-1, 1, 2)), "totals only"),
        # x_2 changes sign with x_3, so the x_1 = 0 bucket holds both signs.
        (TwistData(n=3, c={(2, 3): 1}, ell=(1, 1, 3)), "mixed bucket"),
        # A_1 = -3 - 3 x_2 reaches -15: multi-digit negative x_1.
        (TwistData(n=2, c={(1, 2): 3}, ell=(-3, 4)), "negative x1"),
    ],
)
def test_lattice_writer_at_the_edges(d, shape):
    lines = _oracle_lines(d)
    assert _lattice_out(d) == "".join(line + "\n" for line in lines)
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
@given(small_twist_data(max_n=4))
def test_signed_count_matches_the_census(d):
    assert signed_count(d) == lattice_points(d).signed_count
