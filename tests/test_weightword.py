import pytest
from hypothesis import given, strategies as st

from twistedcubes.errors import DimensionMismatch, IndexOutOfRange
from twistedcubes.rootdata import cartan_pairing, parse_lie_type
from twistedcubes.weightword import (
    DominantWeight,
    TwistData,
    Word,
    appears_in_lambda,
    derive_twist_data,
)

from oracles import adjacent, all_types_up_to_rank


def test_sl3_worked_example():
    d = derive_twist_data(parse_lie_type("A2"), Word((1, 2, 1)), DominantWeight((2, 1)))
    assert d.c_at(1, 2) == -1
    assert d.c_at(1, 3) == 2
    assert d.c_at(2, 3) == -1
    assert d.ell == (2, 1, 2)


def test_empty_word():
    d = derive_twist_data(parse_lie_type("A2"), Word(()), DominantWeight((2, 1)))
    assert d.n == 0
    assert d.ell == ()
    assert d.c == {}


def test_pairing_order_convention():
    # (3, 2) in B3 must pick up the short-root entry -2, not its transpose.
    d = derive_twist_data(parse_lie_type("B3"), Word((3, 2)), DominantWeight((0, 0, 0)))
    assert d.c_at(1, 2) == -2


def test_derive_dimension_errors():
    t = parse_lie_type("A2")
    with pytest.raises(DimensionMismatch):
        derive_twist_data(t, Word((1, 3)), DominantWeight((1, 0)))
    with pytest.raises(DimensionMismatch):
        derive_twist_data(t, Word((1,)), DominantWeight((1, 0, 0)))


def test_appears_in_lambda():
    lam = DominantWeight((0, 0, 3))
    assert appears_in_lambda(lam, 3)
    assert not appears_in_lambda(lam, 1)
    assert not any(appears_in_lambda(DominantWeight((0, 0, 0)), i) for i in (1, 2, 3))
    with pytest.raises(IndexOutOfRange):
        appears_in_lambda(lam, 4)


def test_dominance_enforced():
    with pytest.raises(DimensionMismatch):
        DominantWeight((1, -1))


def test_raw_twist_data_permits_any_integers():
    d = TwistData(n=2, c={(1, 2): 1}, ell=(3, -5))
    assert d.c_at(1, 2) == 1
    with pytest.raises(DimensionMismatch):
        TwistData(n=2, c={(2, 1): 1}, ell=(0, 0))
    with pytest.raises(DimensionMismatch):
        TwistData(n=2, c={}, ell=(0, 0, 0))
    with pytest.raises(DimensionMismatch):
        d.c_at(2, 2)


def test_twist_data_is_hashable_consistently_with_eq():
    a = TwistData(n=3, c={(1, 2): -1, (2, 3): -1, (1, 3): 2}, ell=(2, 1, 2))
    b = TwistData(n=3, c={(1, 3): 2, (2, 3): -1, (1, 2): -1}, ell=(2, 1, 2))
    derived = derive_twist_data(parse_lie_type("A2"), Word((1, 2, 1)), DominantWeight((2, 1)))
    assert a == b == derived
    assert len({hash(a), hash(b), hash(derived)}) == 1
    assert TwistData(n=3, c={(1, 2): -1}, ell=(2, 1, 2)) not in {a}


TYPES = all_types_up_to_rank(5)


@st.composite
def instances(draw, max_len=6):
    t = draw(st.sampled_from(TYPES))
    word = Word(tuple(draw(st.lists(st.integers(1, t.rank), max_size=max_len))))
    lam = DominantWeight(tuple(draw(st.lists(st.integers(0, 3), min_size=t.rank, max_size=t.rank))))
    return t, word, lam


@given(instances(), st.data())
def test_c_depends_only_on_letter_pair(inst, data):
    t, w, lam = inst
    d = derive_twist_data(t, w, lam)
    extra = data.draw(st.integers(1, t.rank))
    longer = derive_twist_data(t, Word(w.entries + (extra,)), lam)
    for key, value in d.c.items():
        assert longer.c_at(*key) == value
    assert longer.ell[: d.n] == d.ell


@given(instances())
def test_c_reads_the_cartan_table_in_pairing_order(inst):
    # B, C, F4 and G2 have asymmetric tables, so a transposed read fails here.
    t, w, lam = inst
    d = derive_twist_data(t, w, lam)
    for j in range(1, d.n + 1):
        for k in range(j + 1, d.n + 1):
            assert d.c_at(j, k) == cartan_pairing(t, w.entries[k - 1], w.entries[j - 1])


@given(instances())
def test_equal_letters_share_ell(inst):
    t, w, lam = inst
    d = derive_twist_data(t, w, lam)
    for j, a in enumerate(w.entries):
        for k, b in enumerate(w.entries):
            if a == b:
                assert d.ell[j] == d.ell[k]


@given(instances())
def test_c_classification_by_adjacency(inst):
    t, w, lam = inst
    d = derive_twist_data(t, w, lam)
    for j in range(1, d.n + 1):
        for k in range(j + 1, d.n + 1):
            a, b = w.entries[j - 1], w.entries[k - 1]
            value = d.c_at(j, k)
            if a == b:
                assert value == 2
            elif adjacent(t, a, b):
                assert value < 0
            else:
                assert value == 0
