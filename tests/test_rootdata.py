import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from twistedcubes.errors import IndexOutOfRange, MalformedInput, RankOutOfRange
from twistedcubes.rootdata import (
    LieType,
    cartan_pairing,
    cartan_table,
    parse_lie_type,
)

from oracles import adjacent, all_types_up_to_rank

SMALL_TYPES = all_types_up_to_rank(9)


def test_validate_examples():
    assert LieType("A", 5).rank == 5
    assert LieType("G", 2) == parse_lie_type("G2")
    with pytest.raises(RankOutOfRange):
        LieType("C", 2)


@pytest.mark.parametrize(
    "family,rank",
    [
        ("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5),
        ("E", 9), ("F", 3), ("G", 3), ("H", 2), ("Z", 3),
        # A rank that is not an int, even one equal to an int.
        ("A", 2.0), ("A", True), ("A", "3"),
        # A family or rank that is not hashable, or a family that is a str
        # subclass, which would equal a made type without being it.
        (["A"], 2), ("A", [2]), (type("Family", (str,), {})("A"), 2),
    ],
)
def test_validate_rejects(family, rank):
    # The constructor checks, so no Cartan table, twist data or verdict is
    # ever built for a pair that names no Dynkin diagram.
    with pytest.raises(RankOutOfRange):
        LieType(family, rank)


def test_equal_types_are_one_object():
    # The hash is the object's own, so an equal type must be the same one,
    # however it was made; equality, order and repr are the dataclass's.
    a2 = LieType("A", 2)
    for same in (
        parse_lie_type("A2"),
        LieType(family="A", rank=2),
        dataclasses.replace(LieType("A", 3), rank=2),
        pickle.loads(pickle.dumps(a2)),
        copy.copy(a2),
        copy.deepcopy(a2),
    ):
        assert same is a2 and hash(same) == hash(a2)
    assert a2 == LieType("A", 2) != LieType("B", 2) and a2 != ("A", 2)
    assert sorted([LieType("B", 2), LieType("A", 3), a2]) == [a2, LieType("A", 3), LieType("B", 2)]
    assert repr(a2) == "LieType(family='A', rank=2)"
    assert {parse_lie_type(str(t)) for t in SMALL_TYPES} == set(SMALL_TYPES)


def test_rank_cap():
    with pytest.raises(RankOutOfRange):
        LieType("A", 33)
    assert LieType("A", 32).rank == 32


def test_parse_serialization():
    assert parse_lie_type("E7") == LieType("E", 7)
    assert str(LieType("B", 3)) == "B3"
    for bad in ("", "A", "5A", "AB2", "a2"):
        with pytest.raises(RankOutOfRange):
            parse_lie_type(bad)


@pytest.mark.parametrize(
    "type_name,i,j,expected",
    [
        ("B3", 2, 3, -2),
        ("B3", 3, 2, -1),
        ("G2", 2, 1, -3),
        ("G2", 1, 2, -1),
        ("A5", 3, 3, 2),
        ("C3", 3, 2, -2),
        ("C3", 2, 3, -1),
        ("F4", 2, 3, -2),
        ("F4", 3, 2, -1),
        ("E6", 2, 4, -1),
        ("E6", 1, 2, 0),
    ],
)
def test_cartan_pairing_values(type_name, i, j, expected):
    assert cartan_pairing(parse_lie_type(type_name), i, j) == expected


def test_cartan_pairing_index_errors():
    t = parse_lie_type("A3")
    for i, j in [(0, 1), (1, 4), (-2, 2)]:
        with pytest.raises(IndexOutOfRange):
            cartan_pairing(t, i, j)


@pytest.mark.parametrize("i, j", [(True, 2), (1, True), ("1", 2), (1, 2.0)], ids=repr)
def test_cartan_pairing_rejects_an_index_that_is_not_an_int(i, j):
    # cartan_pairing(A2, True, 2) read the entry at (1, 2), -1.
    with pytest.raises(MalformedInput, match="root index must be an integer"):
        cartan_pairing(parse_lie_type("A2"), i, j)


def test_adjacent_examples():
    assert not adjacent(parse_lie_type("A5"), 2, 4)
    assert adjacent(parse_lie_type("D4"), 2, 4)
    assert adjacent(parse_lie_type("E6"), 2, 4)
    assert not adjacent(parse_lie_type("A5"), 3, 3)


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_cartan_table_invariants(t):
    table = cartan_table(t)
    r = t.rank
    edges = set()
    for i in range(r):
        assert table[i][i] == 2
        for j in range(r):
            if i != j:
                assert table[i][j] <= 0
                assert (table[i][j] == 0) == (table[j][i] == 0)
                if i < j and table[i][j] < 0:
                    edges.add((i, j))
    # The adjacency relation is a tree: r - 1 edges and connected.
    assert len(edges) == r - 1
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            for u, x in ((a, b), (b, a)):
                if u == v and x not in seen:
                    seen.add(x)
                    frontier.append(x)
    assert seen == set(range(r))


@given(st.data())
def test_adjacent_symmetric(data):
    t = data.draw(st.sampled_from(SMALL_TYPES))
    i = data.draw(st.integers(1, t.rank))
    j = data.draw(st.integers(1, t.rank))
    assert adjacent(t, i, j) == adjacent(t, j, i)
