import pytest
from hypothesis import given, settings, strategies as st

from twistedcubes.cartier import compute_m, hesitant_walk_from_twist_witness
from twistedcubes.errors import (
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    MalformedInput,
    NotAWitness,
    PreconditionViolated,
)
from twistedcubes.rootdata import parse_lie_type
from twistedcubes.walks import (
    WalkWitness,
    find_hesitant_lambda_walk,
    is_diagram_walk,
    is_hesitant_lambda_walk,
    is_lambda_walk,
    is_minimal,
    minimize,
)
from twistedcubes.weightword import DominantWeight, TwistData, Word, derive_twist_data

from oracles import (
    adjacent,
    all_types_up_to_rank,
    derived,
    find_hesitant_lambda_walk_naive,
    minimize_splice,
    record_calls,
    word_instances,
)

A5 = parse_lie_type("A5")


@pytest.mark.parametrize(
    "type_name,word,expected",
    [
        ("A5", (2, 4, 5), False),
        ("A5", (1, 2, 3, 2, 1), True),
        ("A5", (2, 3, 4, 5, 4, 3), True),
        ("A5", (1, 2, 1, 2, 3), True),
        ("E8", (1, 3, 4, 2, 4, 5), True),
        ("B3", (1, 2, 3), True),
        ("A5", (3,), True),
        ("A5", (), False),
        ("A5", (3, 3), False),
    ],
)
def test_is_diagram_walk(type_name, word, expected):
    assert is_diagram_walk(parse_lie_type(type_name), Word(word)) == expected


def test_is_lambda_walk():
    assert is_lambda_walk(parse_lie_type("B3"), Word((1, 2, 3)), DominantWeight((0, 0, 1)))
    assert not is_lambda_walk(A5, Word((1, 2, 3, 2, 1)), DominantWeight((0, 0, 1, 0, 0)))
    assert is_lambda_walk(A5, Word((1, 2, 3, 2, 1)), DominantWeight((1, 0, 0, 0, 0)))


def test_is_hesitant_lambda_walk():
    a3 = parse_lie_type("A3")
    assert is_hesitant_lambda_walk(a3, Word((1, 1, 2)), DominantWeight((0, 1, 0)))
    assert is_hesitant_lambda_walk(parse_lie_type("A2"), Word((1, 1)), DominantWeight((1, 0)))
    assert not is_hesitant_lambda_walk(a3, Word((1, 1, 2)), DominantWeight((0, 0, 1)))
    assert not is_hesitant_lambda_walk(a3, Word((1, 2, 2)), DominantWeight((0, 1, 0)))
    assert not is_hesitant_lambda_walk(a3, Word((1,)), DominantWeight((1, 0, 0)))


def test_detector_examples():
    a3 = parse_lie_type("A3")
    assert find_hesitant_lambda_walk(a3, Word((1, 2, 3, 1, 2, 1)), DominantWeight((0, 0, 3))) is None
    witness = find_hesitant_lambda_walk(
        parse_lie_type("A2"), Word((1, 2, 1)), DominantWeight((2, 1))
    )
    assert witness.positions == (1, 3)
    assert witness.subword == (1, 1)
    assert find_hesitant_lambda_walk(a3, Word((1, 2, 3)), DominantWeight((1, 1, 1))) is None


def test_detector_rejects_a_weight_of_the_wrong_rank():
    with pytest.raises(DimensionMismatch, match="weight has rank 2, expected 5"):
        find_hesitant_lambda_walk(A5, Word((1, 1)), DominantWeight((1, 0)))
    # The predicates check the rank before they read the word, so they never
    # answer for a weight of another type, nor index it out of range.
    a2, lam = parse_lie_type("A2"), DominantWeight((1,))
    for predicate, letters in [
        (is_hesitant_lambda_walk, (1, 1)),
        (is_lambda_walk, (2, 1)),
        (is_lambda_walk, (1, 2)),
    ]:
        with pytest.raises(DimensionMismatch, match="weight has rank 1, expected 2"):
            predicate(a2, Word(letters), lam)


def test_detector_canonical_extension():
    # Hesitation at the earliest possible pair, then greedy minimal steps.
    a3 = parse_lie_type("A3")
    witness = find_hesitant_lambda_walk(a3, Word((2, 2, 1, 3, 2, 3)), DominantWeight((0, 0, 1)))
    assert witness.positions == (1, 2, 3, 5, 6)
    assert witness.subword == (2, 2, 1, 2, 3)


def test_detector_on_a_long_word():
    # Each 1 finds its adjacent 2 only past all the later 1s, so a detector
    # that scans later positions one by one is quadratic here.
    witness = find_hesitant_lambda_walk(
        parse_lie_type("A2"), Word((1,) * 10_000 + (2,)), DominantWeight((0, 1))
    )
    assert witness.positions == (1, 2, 10_001)
    assert witness.subword == (1, 1, 2)


def test_naive_agrees_on_examples():
    a3 = parse_lie_type("A3")
    assert (
        find_hesitant_lambda_walk_naive(a3, Word((1, 2, 3, 1, 2, 1)), DominantWeight((0, 0, 3)))
        is None
    )
    witness = find_hesitant_lambda_walk_naive(
        parse_lie_type("A2"), Word((1, 2, 1)), DominantWeight((2, 1))
    )
    assert witness is not None
    assert find_hesitant_lambda_walk_naive(A5, Word(()), DominantWeight((0,) * 5)) is None


def test_naive_cap():
    with pytest.raises(CapExceeded):
        find_hesitant_lambda_walk_naive(
            parse_lie_type("A1"), Word((1,) * 17), DominantWeight((1,))
        )


def _witness(word):
    return WalkWitness(tuple(range(1, len(word) + 1)), tuple(word))


@pytest.mark.parametrize(
    "positions,subword,message",
    [
        ((2, 1), (1, 1), "not strictly increasing"),
        ((1, 1), (1, 1), "not strictly increasing"),
        ((1, 2), (1,), "lengths disagree"),
    ],
)
def test_walk_witness_rejects_malformed_positions(positions, subword, message):
    with pytest.raises(NotAWitness, match=message):
        WalkWitness(positions, subword)


@pytest.mark.parametrize(
    "positions, subword",
    [((1.0, 2.0), (1, 1)), ((1, 2), (1, True)), (None, ()), ((1, 2), "11")],
    ids=["float positions", "bool letter", "no positions", "string subword"],
)
def test_walk_witness_fields_are_ints(positions, subword):
    with pytest.raises(MalformedInput):
        WalkWitness(positions, subword)


def test_from_word_rejects_positions_that_are_not_ints():
    with pytest.raises(MalformedInput):
        WalkWitness.from_word(Word((1, 1, 2)), (1.0, 2.0))


def test_is_minimal_examples():
    w2 = DominantWeight((0, 1, 0, 0, 0))
    assert not is_minimal(A5, _witness((5, 5, 4, 3, 4, 3, 2)), w2)
    assert is_minimal(A5, _witness((5, 5, 4, 3, 2)), w2)
    w25 = DominantWeight((0, 1, 0, 0, 1))
    assert not is_minimal(A5, _witness((5, 5, 4, 3, 2)), w25)
    assert is_minimal(A5, _witness((5, 5)), w25)


def test_is_minimal_rejects_non_witness():
    with pytest.raises(NotAWitness):
        is_minimal(A5, _witness((1, 2, 3)), DominantWeight((0, 0, 1, 0, 0)))


def test_minimize_examples():
    w2 = DominantWeight((0, 1, 0, 0, 0))
    out = minimize(A5, _witness((5, 5, 4, 3, 4, 3, 2)), w2)
    assert out.subword == (5, 5, 4, 3, 2)
    assert out.positions == (1, 2, 3, 6, 7)

    w25 = DominantWeight((0, 1, 0, 0, 1))
    out = minimize(A5, _witness((5, 5, 4, 3, 2)), w25)
    assert out.subword == (5, 5)
    assert out.positions == (1, 2)


def test_minimize_idempotent():
    w2 = DominantWeight((0, 1, 0, 0, 0))
    minimal = _witness((5, 5, 4, 3, 2))
    assert minimize(A5, minimal, w2) == minimal


def test_minimize_on_a_long_walk():
    # Every 2 after the first cuts the kept walk back to position 2, so a
    # minimize that rescans the rest of the walk per repeat is quadratic here.
    w = Word((2,) + (2, 1) * 50_000 + (2, 3))
    witness = WalkWitness.from_word(w, range(1, len(w) + 1))
    out = minimize(parse_lie_type("A3"), witness, DominantWeight((0, 0, 1)))
    assert out.positions == (1, 2, 100_003)
    assert out.subword == (2, 2, 3)


def test_lambda_walk_from_positive_entry():
    # The greedy lambda-walk from a positive entry of m is the tail of the
    # hesitant walk that hesitant_walk_from_twist_witness rebuilds: the
    # positions after its first (repeated) letter.
    a2 = parse_lie_type("A2")
    d = derived("A2", (1, 2, 1), (2, 1))
    walk = hesitant_walk_from_twist_witness(d, Word((1, 2, 1)), compute_m(d, "-+-").m)
    assert walk.positions[1:] == (3,)
    assert is_lambda_walk(a2, Word(walk.subword[1:]), DominantWeight((2, 1)))

    a3 = parse_lie_type("A3")
    d = derived("A3", (1, 1, 2, 3), (0, 0, 1))
    m = compute_m(d, "----").m
    walk = hesitant_walk_from_twist_witness(d, Word((1, 1, 2, 3)), m)
    assert walk.positions[1:] == (2, 3, 4)
    assert is_lambda_walk(a3, Word(walk.subword[1:]), DominantWeight((0, 0, 1)))

    with pytest.raises(PreconditionViolated, match="greedy extension stuck at 2"):
        hesitant_walk_from_twist_witness(
            TwistData(n=2, c={(1, 2): 1}, ell=(0, 0)), Word((1, 2)), (-1, 1)
        )
    with pytest.raises(DimensionMismatch):
        hesitant_walk_from_twist_witness(d, Word((1, 1, 2, 3)), m[1:])


@pytest.mark.parametrize("positions", [(0,), (4,), (1, 4)])
def test_from_word_rejects_positions_outside_the_word(positions):
    with pytest.raises(IndexOutOfRange):
        WalkWitness.from_word(Word((1, 1, 2)), positions)


def test_minimize_and_is_minimal_need_a_weight_of_the_type_s_rank():
    witness = _witness((5, 5))
    for fn in (minimize, is_minimal):
        with pytest.raises(DimensionMismatch, match="weight has rank 4, expected 5"):
            fn(A5, witness, DominantWeight((0, 0, 0, 1)))


TYPES = all_types_up_to_rank(6)
INSTANCES = word_instances(TYPES, max_len=8, max_coefficient=2)


@pytest.mark.parametrize(
    "word, expected",
    [((1, 1, 2), True), ((2, 2, 1), False), ((2, 2, 3, 2), True), ((1, 2), False), ((1,), False)],
)
def test_is_hesitant_lambda_walk_checks_the_word_once(word, expected, monkeypatch):
    # The walking component is a slice of the word, so its letters need no
    # second check against the type.
    calls = record_calls(monkeypatch, Word, "validate_for")
    assert is_hesitant_lambda_walk(parse_lie_type("A3"), Word(word), DominantWeight((0, 1, 0))) is expected
    assert [w.entries for (w, _), _ in calls] == [word]


def _hesitant_by_parts(t, w, lam):
    """The hesitant-walk predicate composed from the rank check, the word
    check and ``is_lambda_walk`` on the walking component."""
    if lam.rank != t.rank:
        raise DimensionMismatch(f"weight has rank {lam.rank}, expected {t.rank}")
    w.validate_for(t)
    if len(w) < 2 or w.entries[0] != w.entries[1]:
        return False
    return is_lambda_walk(t, Word(w.entries[1:]), lam)


@st.composite
def unchecked_instances(draw):
    """A type, a word that often starts with a repeated letter and may hold
    letters outside the type's range, and a weight whose rank may differ
    from the type's."""
    t = draw(st.sampled_from(TYPES))
    walking = draw(st.lists(st.integers(0, t.rank + 1), max_size=6))
    if walking and draw(st.booleans()):
        walking.insert(0, walking[0])
    rank = draw(st.integers(t.rank - 1, t.rank + 1))
    lam = DominantWeight(tuple(draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))))
    return t, Word(tuple(walking)), lam


@settings(max_examples=400, deadline=None)
@given(st.one_of(INSTANCES, unchecked_instances()))
def test_is_hesitant_lambda_walk_matches_its_parts(inst):
    # Every result and every error, as when the walking component went
    # through is_lambda_walk and its own word check.
    assert _outcome(is_hesitant_lambda_walk, *inst) == _outcome(_hesitant_by_parts, *inst)


@settings(max_examples=200, deadline=None)
@given(INSTANCES)
def test_detectors_agree(inst):
    t, w, lam = inst
    fast = find_hesitant_lambda_walk(t, w, lam)
    slow = find_hesitant_lambda_walk_naive(t, w, lam)
    assert (fast is None) == (slow is None)
    for witness in (fast, slow):
        if witness is not None:
            assert is_hesitant_lambda_walk(t, Word(witness.subword), lam)


@settings(max_examples=200, deadline=None)
@given(INSTANCES)
def test_minimize_output_is_minimal_subsequence(inst):
    t, w, lam = inst
    witness = find_hesitant_lambda_walk(t, w, lam)
    if witness is None:
        return
    out = minimize(t, witness, lam)
    assert is_minimal(t, out, lam)
    assert set(out.positions) <= set(witness.positions)


@st.composite
def long_words(draw):
    """A type, a word of 2 to 60 letters, and a weight with one nonzero
    coefficient, so that about half the words hold a hesitant lambda-walk."""
    t = draw(st.sampled_from(TYPES))
    word = Word(tuple(draw(st.lists(st.integers(1, t.rank), min_size=2, max_size=60))))
    lam = [0] * t.rank
    lam[draw(st.integers(0, t.rank - 1))] = 1
    return t, word, DominantWeight(tuple(lam))


@settings(max_examples=300, deadline=None)
@given(long_words())
def test_minimize_matches_the_splice_oracle(inst):
    t, w, lam = inst
    witness = find_hesitant_lambda_walk(t, w, lam)
    if witness is None:
        return
    assert minimize(t, witness, lam) == minimize_splice(t, witness, lam)


@st.composite
def wandering_walks(draw):
    """A type, a hesitant walk of up to 60 letters that wanders the diagram
    at random, so that it has many detours, and a weight that is positive at
    its last letter and may be positive elsewhere."""
    t = draw(st.sampled_from([ty for ty in TYPES if ty.rank >= 2]))
    letter = draw(st.integers(1, t.rank))
    letters = [letter, letter]
    for _ in range(draw(st.integers(0, 58))):
        letter = draw(st.sampled_from([b for b in range(1, t.rank + 1) if adjacent(t, letter, b)]))
        letters.append(letter)
    lam = draw(st.lists(st.integers(0, 1), min_size=t.rank, max_size=t.rank))
    lam[letter - 1] = 1
    w = Word(tuple(letters))
    return t, WalkWitness.from_word(w, range(1, len(w) + 1)), DominantWeight(tuple(lam))


@settings(max_examples=300, deadline=None)
@given(wandering_walks())
def test_minimize_matches_the_splice_oracle_on_walks_with_detours(case):
    assert minimize(*case) == minimize_splice(*case)


@settings(max_examples=200, deadline=None)
@given(INSTANCES, st.data())
def test_support_monotonicity(inst, data):
    t, w, lam = inst
    if find_hesitant_lambda_walk(t, w, lam) is None:
        return
    bigger = DominantWeight(
        tuple(c + data.draw(st.integers(0, 2)) for c in lam.coefficients)
    )
    assert find_hesitant_lambda_walk(t, w, bigger) is not None


@settings(max_examples=200, deadline=None)
@given(INSTANCES)
def test_hesitant_walk_is_never_diagram_walk(inst):
    t, w, lam = inst
    if is_hesitant_lambda_walk(t, w, lam):
        assert not is_diagram_walk(t, w)


@st.composite
def weights_agreeing_on_the_word(draw):
    """An instance, a second weight of its type's rank that agrees with lam on
    the letters of the word and is free elsewhere, and a subset of the
    word's positions."""
    t, w, lam = draw(INSTANCES)
    letters = set(w.entries)
    other = DominantWeight(
        tuple(c if i in letters else draw(st.integers(0, 2)) for i, c in enumerate(lam.coefficients, 1))
    )
    keep = draw(st.lists(st.booleans(), min_size=len(w), max_size=len(w)))
    return t, w, lam, other, tuple(p for p, kept in enumerate(keep, 1) if kept)


def _outcome(fn, *args):
    """fn's result, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome here
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(weights_agreeing_on_the_word())
def test_walk_functions_read_lam_only_at_the_letters_of_the_word(case):
    # verify shares every check of a word among the weights with equal twist
    # data, which hold lam only at the word's letters; a walk function that
    # read lam elsewhere would hand one weight's verdict to another.
    t, w, lam, other, positions = case
    assert derive_twist_data(t, w, lam) == derive_twist_data(t, w, other)
    found = _outcome(find_hesitant_lambda_walk, t, w, lam)
    assert found == _outcome(find_hesitant_lambda_walk, t, w, other)
    witnesses = [WalkWitness.from_word(w, positions)]
    if isinstance(found, WalkWitness):
        witnesses.append(found)
    for witness in witnesses:
        for fn in (minimize, is_minimal):
            assert _outcome(fn, t, witness, lam) == _outcome(fn, t, witness, other)
        subword = Word(witness.subword)
        assert _outcome(is_hesitant_lambda_walk, t, subword, lam) == _outcome(
            is_hesitant_lambda_walk, t, subword, other
        )
    assert _outcome(is_hesitant_lambda_walk, t, w, lam) == _outcome(is_hesitant_lambda_walk, t, w, other)
