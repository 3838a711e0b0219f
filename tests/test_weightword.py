import pytest
from hypothesis import given, strategies as st

from twistedcubes import weightword
from twistedcubes.errors import DimensionMismatch, IndexOutOfRange, MalformedInput, TwistedCubeError
from twistedcubes.harness import SweepSpec
from twistedcubes.rootdata import cartan_pairing, parse_lie_type
from twistedcubes.twistedcube import signed_count
from twistedcubes.weightword import (
    DominantWeight,
    TwistData,
    Word,
    appears_in_lambda,
    derive_twist_data,
)

from oracles import (
    RUNNING_EXAMPLE_JSON,
    adjacent,
    all_types_up_to_rank,
    derive_twist_data_oracle,
    derived,
    load_twist_data,
    record_calls,
    word_instances,
)


def test_sl3_worked_example():
    d = derived("A2", (1, 2, 1), (2, 1))
    assert d.c_at(1, 2) == -1
    assert d.c_at(1, 3) == 2
    assert d.c_at(2, 3) == -1
    assert d.ell == (2, 1, 2)


def test_empty_word():
    d = derived("A2", (), (2, 1))
    assert d.n == 0
    assert d.ell == ()
    assert d.c == {}


def test_pairing_order_convention():
    # (3, 2) in B3 must pick up the short-root entry -2, not its transpose.
    d = derived("B3", (3, 2), (0, 0, 0))
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


@pytest.mark.parametrize("i", [True, "1", 1.0, None], ids=repr)
def test_appears_in_lambda_rejects_an_index_that_is_not_an_int(i):
    # True would read coefficient 1 and "1" or 1.0 would raise a bare TypeError.
    with pytest.raises(MalformedInput, match="root index must be an integer"):
        appears_in_lambda(DominantWeight((1, 0)), i)


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


# Each value type checks its own fields, so a value built in code meets the
# rules of one read from an instance or sweep file.
@pytest.mark.parametrize(
    "expr",
    [
        "TwistData(n=2, c={(1, 2): 1.5}, ell=(3, 5))",
        "TwistData(n=2.0, ell=(3, 5))",
        "TwistData(n=1, ell=(True,))",
        "TwistData(n=2, c={(1.0, 2): 1}, ell=(0, 0))",
        "TwistData(n=3, c={(1, 2, 3): 1}, ell=(0, 0, 0))",
        "TwistData(n=2, c={1: 1}, ell=(0, 0))",
        "TwistData(n=2, c=[1], ell=(0, 0))",
        "TwistData(n=2, c=None, ell=(0, 0))",
        'TwistData(n=1, ell="3")',
        "Word((1.5, 2))",
        "Word((True, 2))",
        "Word(5)",
        'Word("12")',
        "DominantWeight((1.5, 1))",
        "DominantWeight({1: 0})",
        # Sampling draws from both lists, so neither may be empty.
        "SweepSpec((), 3, sample_count=5)",
        'SweepSpec(("A1",), 3, (), sample_count=5)',
        'SweepSpec(("A1",), 3, seed=5)',
        'SweepSpec(("A1", "A1"), 2)',
        'SweepSpec(("A1",), 2, (1, 1))',
        'SweepSpec(("A1",), 2, (0, -1))',
        'SweepSpec(("A1",), -1)',
        'SweepSpec(("A1",), 2.5)',
        "SweepSpec((3,), 2)",
        'SweepSpec("A1", 2)',
        'SweepSpec(("A1",), 2, seed=1.5, sample_count=2)',
        'SweepSpec(("A1",), 2, sample_count=True)',
    ],
)
def test_a_value_built_in_code_meets_the_file_rules(expr):
    names = {"TwistData": TwistData, "Word": Word, "DominantWeight": DominantWeight, "SweepSpec": SweepSpec}
    with pytest.raises(TwistedCubeError):
        eval(expr, names)


@pytest.mark.parametrize("j, k", [(True, 2), (1, True), (1.0, 2.0), (1, 2.0), ("1", 2)])
def test_c_at_rejects_an_index_that_is_not_an_int(j, k):
    # True would read row 1, and a float would index the rows.
    d = TwistData(n=2, c={(1, 2): 2}, ell=(1, 1))
    with pytest.raises(MalformedInput, match="must be a pair of integers"):
        d.c_at(j, k)


def test_twist_data_is_hashable_consistently_with_eq():
    a = TwistData(n=3, c={(1, 2): -1, (2, 3): -1, (1, 3): 2}, ell=(2, 1, 2))
    b = TwistData(n=3, c={(1, 3): 2, (2, 3): -1, (1, 2): -1}, ell=(2, 1, 2))
    from_word = derived("A2", (1, 2, 1), (2, 1))
    assert a == b == from_word
    assert len({hash(a), hash(b), hash(from_word)}) == 1
    assert TwistData(n=3, c={(1, 2): -1}, ell=(2, 1, 2)) not in {a}


INSTANCES = word_instances(all_types_up_to_rank(5), max_len=6, max_coefficient=3)


@given(INSTANCES, st.data())
def test_c_depends_only_on_letter_pair(inst, data):
    t, w, lam = inst
    d = derive_twist_data(t, w, lam)
    extra = data.draw(st.integers(1, t.rank))
    longer = derive_twist_data(t, Word(w.entries + (extra,)), lam)
    for key, value in d.c.items():
        assert longer.c_at(*key) == value
    assert longer.ell[: d.n] == d.ell


@given(INSTANCES)
def test_c_reads_the_cartan_table_in_pairing_order(inst):
    # B, C, F4 and G2 have asymmetric tables, so a transposed read fails here.
    t, w, lam = inst
    d = derive_twist_data(t, w, lam)
    for j in range(1, d.n + 1):
        for k in range(j + 1, d.n + 1):
            assert d.c_at(j, k) == cartan_pairing(t, w.entries[k - 1], w.entries[j - 1])


@given(INSTANCES)
def test_equal_letters_share_ell(inst):
    t, w, lam = inst
    d = derive_twist_data(t, w, lam)
    for j, a in enumerate(w.entries):
        for k, b in enumerate(w.entries):
            if a == b:
                assert d.ell[j] == d.ell[k]


@given(INSTANCES)
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


def _fields(d: TwistData) -> tuple:
    return d.n, d.c, d.ell, d.rows


# One letter sequence under three types, and the empty word: a cache keyed
# on the letters alone would hand C3 the c of A3.
SAME_LETTERS = [(parse_lie_type(name), Word((1, 2, 3))) for name in ("A3", "B3", "C3")]
EMPTY = (parse_lie_type("A2"), Word(()))


@given(st.lists(INSTANCES, max_size=3), st.data())
def test_derive_equals_the_oracle_over_repeated_and_interleaved_words(extra, data):
    words = SAME_LETTERS + [EMPTY] + [(t, w) for t, w, _ in extra]
    calls = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=16))
    for t, w in calls:
        lam = DominantWeight(tuple(data.draw(st.lists(st.integers(0, 3), min_size=t.rank, max_size=t.rank))))
        assert _fields(derive_twist_data(t, w, lam)) == _fields(derive_twist_data_oracle(t, w, lam))


def test_the_same_letters_under_another_type_get_their_own_c():
    lam = DominantWeight((1, 0, 1))
    (a3, w), _, (c3, _) = SAME_LETTERS
    first, other, again = (derive_twist_data(t, w, lam) for t in (a3, c3, a3))
    assert first.c_at(2, 3) == again.c_at(2, 3) == -1
    assert other.c_at(2, 3) == -2
    for t, d in ((a3, first), (c3, other), (a3, again)):
        assert _fields(d) == _fields(derive_twist_data_oracle(t, w, lam))


def test_a_letter_outside_the_rank_raises_on_every_call():
    # The letters succeed under A3 first, so a cache keyed on them alone
    # would let them through under A2.
    w = Word((1, 2, 3))
    derive_twist_data(parse_lie_type("A3"), w, DominantWeight((0, 0, 0)))
    a2 = parse_lie_type("A2")
    messages = []
    for _ in range(3):
        with pytest.raises(DimensionMismatch) as raised:
            derive_twist_data(a2, w, DominantWeight((1, 0)))
        messages.append(str(raised.value))
    assert messages == ["word letter 3 outside [1, 2] for A2"] * 3


def test_a_weight_of_the_wrong_rank_raises_after_its_word_is_cached():
    t, w = parse_lie_type("A2"), Word((1, 2, 1))
    derive_twist_data(t, w, DominantWeight((2, 1)))
    for _ in range(2):
        with pytest.raises(DimensionMismatch, match="weight has rank 3, expected 2"):
            derive_twist_data(t, w, DominantWeight((2, 1, 0)))


def test_a_word_with_both_faults_raises_the_rank_error_first():
    # As in the walk functions: the weight's rank is checked before the
    # letters, and before the word cache is read.
    t, w = parse_lie_type("A2"), Word((1, 3))
    derive_twist_data(t, Word((1, 2)), DominantWeight((0, 0)))
    for _ in range(2):
        with pytest.raises(DimensionMismatch, match="weight has rank 3, expected 2"):
            derive_twist_data(t, w, DominantWeight((1, 0, 0)))


def test_a_mutated_c_does_not_reach_a_later_derive():
    t, w, lam = parse_lie_type("B2"), Word((1, 2, 1, 2)), DominantWeight((1, 1))
    d1 = derive_twist_data(t, w, lam)
    d1.c[(1, 2)] = 99
    del d1.c[(1, 3)]
    d2 = derive_twist_data(t, w, lam)
    assert d2.c is not d1.c
    assert _fields(d2) == _fields(derive_twist_data_oracle(t, w, lam))


def test_c_is_stored_once():
    # c is read from the rows that the kernels read, so changing the dict
    # that c returns changes neither c_at, the census nor equality.
    d = load_twist_data(RUNNING_EXAMPLE_JSON)
    d.c[(1, 2)] = 0
    assert d.c_at(1, 2) == 1
    assert signed_count(d) == 9
    assert d == load_twist_data(RUNNING_EXAMPLE_JSON)


def test_the_word_cache_holds_one_word(monkeypatch):
    a2 = parse_lie_type("A2")
    u, v, lam = Word((1, 2)), Word((2, 1)), DominantWeight((1, 0))
    # Some other word is the cached one when the count starts.
    derive_twist_data(a2, Word((1, 1, 1)), lam)
    calls = record_calls(monkeypatch, weightword, "cartan_table")
    for w in (u, u, v, v, u):
        derive_twist_data(a2, w, lam)
    # u is read again after v: a cache of two words would have kept it.
    assert [t for (t,), _ in calls] == [a2] * 3
