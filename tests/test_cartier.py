import pytest
from hypothesis import given, settings, strategies as st

from twistedcubes import cartier
from twistedcubes.cartier import (
    DEFAULT_N_CAP,
    CartierVector,
    compute_m,
    hesitant_walk_from_twist_witness,
    is_untwisted,
    m_to_walk,
    maximal_failing_index,
    minus_at,
    walk_to_m,
    witness_sigma_from_walk,
)
from twistedcubes.errors import (
    CapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    MalformedInput,
    NotMinimalWitness,
    PreconditionViolated,
    TwistedCubeError,
)
from twistedcubes.rootdata import parse_lie_type
from twistedcubes.walks import WalkWitness, is_hesitant_lambda_walk
from twistedcubes.weightword import DominantWeight, TwistData, Word, derive_twist_data

from oracles import (
    RUNNING_EXAMPLE,
    all_types_up_to_rank,
    check_untwisted_instances,
    derived,
    is_untwisted_exhaustive,
    latest_minimal_walk,
    load_twist_data,
    raw_twist_data,
    record_calls,
    word_instances,
    workload_data,
)


A2_TWISTED = derived("A2", (1, 2, 1), (2, 1))
# Only the last sign vector, "---", fails: m = (-1, 1, 1).
TWISTED_AT_THE_END = TwistData(n=3, c={(1, 2): 1, (1, 3): 1}, ell=(1, 1, 1))


def test_all_plus_gives_zero():
    assert compute_m(A2_TWISTED, "+++").m == (0, 0, 0)


def test_compute_m_worked_example():
    mv = compute_m(A2_TWISTED, "-+-")
    assert mv.m == (-2, 0, 2)
    assert min(mv.m, default=0) == -2


def test_length_two_closed_form():
    d = TwistData(n=2, c={(1, 2): 2}, ell=(4, 4))
    mv = compute_m(d, "--")
    assert mv.m[0] == 4 * (1 - 2)


def test_compute_m_length_mismatch():
    with pytest.raises(DimensionMismatch):
        compute_m(A2_TWISTED, "--")


@pytest.mark.parametrize(
    "sigma", ["x+-", "+x-", "-+-\n", ("-", "+", "-"), ["-", "+", "-"]], ids=repr
)
def test_compute_m_rejects_what_is_not_a_sign_string(sigma):
    with pytest.raises(DimensionMismatch):
        compute_m(A2_TWISTED, sigma)


def test_criterion_sigma_is_a_string():
    sigma = is_untwisted(A2_TWISTED).sigma
    assert type(sigma) is str and sigma == "-+-"


def test_witness_sigma_is_a_string():
    sigma, _ = witness_sigma_from_walk(derived("A3", (1, 1, 2, 3), (0, 0, 1)), (1, 2, 3, 4))
    assert type(sigma) is str and sigma == "----"


def test_minus_at():
    assert minus_at(4, [1, 3]) == "-+-+"
    assert minus_at(3, []) == "+++"
    for positions in ([0], [4], [1, 5]):
        with pytest.raises(IndexOutOfRange, match=r"outside \[1, 3\]"):
            minus_at(3, positions)


@pytest.mark.parametrize(
    "n, positions",
    [
        (3, [1.5]),
        (3, [True]),
        (3, [2, 1.0]),
        (3.0, []),
        (True, [1]),
        ("3", []),
        (3, [[1]]),
        (3, None),
    ],
)
def test_minus_at_rejects_a_position_or_length_that_is_not_an_int(n, positions):
    # 1.5 would mark nothing and True would mark position 1.
    with pytest.raises(TwistedCubeError):
        minus_at(n, positions)


def test_minus_at_rejects_a_negative_length():
    with pytest.raises(DimensionMismatch, match="sign vector length -1 is negative"):
        minus_at(-1, [])


def test_untwisted_avoiding_example():
    d = derived("A3", (1, 2, 3, 1, 2, 1), (0, 0, 3))
    assert is_untwisted(d).untwisted


def test_twisted_with_canonical_witness():
    res = is_untwisted(A2_TWISTED)
    assert not res.untwisted
    assert str(res.sigma) == "-+-"
    assert res.k == 1
    assert res.m.m == (-2, 0, 2)
    assert res.to_json() == {"untwisted": False, "sigma": "-+-", "k": 1, "m": [-2, 0, 2]}


def test_zero_weight_untwisted():
    d = derived("G2", (1, 2, 1, 2), (0, 0))
    res = is_untwisted(d)
    assert res.untwisted
    assert res.to_json() == {"untwisted": True}


def test_criterion_reports_the_higher_of_two_negative_entries():
    # "---" has m = (-2, -1, 2), negative at 1 and 2.  Every sign vector
    # before "+--" passes ("-++" stops at its zero bound), and "+--" fails
    # at 2 after a positive m_3; it has no minus below 2, so its m has the
    # one negative entry, where the sweep stopped.
    d = TwistData(n=3, c={(1, 3): 1, (2, 3): 1}, ell=(0, 1, 2))
    assert compute_m(d, "---").m == (-2, -1, 2)
    res = is_untwisted(d)
    assert (res.sigma, res.k, res.m.m) == ("+--", 2, (0, -1, 2))
    assert res == is_untwisted_exhaustive(d)


@pytest.mark.parametrize(
    "d, computed",
    [
        (derived("A3", (1, 2, 3) * 4, (0, 0, 0)), []),
        (A2_TWISTED, ["-+-"]),
        (TWISTED_AT_THE_END, ["---"]),
    ],
    ids=["A3 untwisted", "A2 twisted", "last sign vector"],
)
def test_criterion_computes_m_only_for_the_failing_sign_vector(d, computed, monkeypatch):
    # The sweep runs the recursion inline and stops each sign vector at its
    # first bound <= 0; compute_m runs once, for the reported m, and never
    # on a sign vector that passes.
    calls = record_calls(monkeypatch, cartier, "compute_m")
    is_untwisted(d)
    assert [sigma for (_, sigma), _ in calls] == computed


def test_criterion_bound_reads_on_the_check_untwisted_workload_are_pinned(monkeypatch):
    # Counted work, not time, as upper bounds, on the 63 instances of the
    # benchmark's check-untwisted workload.  On the fixed A3 words
    # (1, 2, 3, ...) at lambda = 0 every sign vector but the all-plus one
    # stops at its rightmost minus, where a is ell_k = 0, read without the
    # bound kernel: 0 reads.
    instances = check_untwisted_instances()
    rows = record_calls(monkeypatch, cartier, "bound")
    reads = []
    for inst in instances:
        start = len(rows)
        assert is_untwisted(load_twist_data(inst)).untwisted
        reads.append(len(rows) - start)
    assert len(reads) == 63
    # The nine fixed words come first.
    lengths = [len(inst["word"]) for inst in instances[:9]]
    assert lengths == list(range(8, 17))
    assert reads[:9] == [0] * 9
    assert sum(reads) <= 672


def _criterion_bound_reads(d):
    """is_untwisted(d), each bound read it makes as a pair (inside compute_m,
    m holds a nonzero entry above k), and the sigmas compute_m ran on."""
    reads, computed, inside = [], [], []
    real_bound, real_compute_m = cartier.bound, cartier.compute_m

    def bound(d, k, m):
        reads.append((bool(inside), any(m[k:])))
        return real_bound(d, k, m)

    def compute_m(d, sigma):
        computed.append(sigma)
        inside.append(sigma)
        try:
            return real_compute_m(d, sigma)
        finally:
            inside.pop()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cartier, "bound", bound)
        patch.setattr(cartier, "compute_m", compute_m)
        result = is_untwisted(d)
    return result, reads, computed


@settings(max_examples=400, deadline=None)
@given(raw_twist_data(min_n=1, max_n=8, c_bound=3, ell=(-2, 4)))
def test_criterion_reads_ell_at_each_rightmost_minus(d):
    # A bound read with m all zero above k can only return ell_k.  The loop
    # reads ell_k itself at each sign vector's rightmost minus, so the only
    # such read is compute_m's, at the rightmost minus of the reported sigma.
    result, reads, computed = _criterion_bound_reads(d)
    all_zero_reads = [in_compute_m for in_compute_m, nonzero_above in reads if not nonzero_above]
    assert all_zero_reads == ([] if result.untwisted else [True])
    assert computed == ([] if result.untwisted else [result.sigma])


@pytest.mark.parametrize(
    "d, sigma, k, m, loop_reads",
    [
        # "++-" fails at its only minus, where a = ell_3 = -1.
        (TwistData(n=3, ell=(1, 0, -1)), "++-", 3, (0, 0, -1), 0),
        # "+-" and "-+" pass on ell_2 = 1 and ell_1 = 0; "--" reads the
        # kernel at k = 1 below m_2 = 1 and fails there.
        (TwistData(n=2, c={(1, 2): 1}, ell=(0, 1)), "--", 1, (-1, 1), 1),
    ],
    ids=["fails at its rightmost minus", "fails below a minus"],
)
def test_criterion_bound_reads_below_the_rightmost_minus_only(d, sigma, k, m, loop_reads):
    result, reads, computed = _criterion_bound_reads(d)
    assert (result.sigma, result.k, result.m.m) == (sigma, k, m)
    assert computed == [sigma]
    assert sum(not in_compute_m for in_compute_m, _ in reads) == loop_reads


def test_criterion_meets_the_check_workload_expectations():
    # The verdict, and when twisted the sigma, k and m, that the benchmark's
    # check-twisted and check-untwisted workloads expect of each instance.
    twisted = workload_data("check-twisted")
    instances = [
        *twisted["fixed_tail"],
        *(inst for stratum in twisted["strata"] for inst in stratum),
        *check_untwisted_instances(),
    ]
    verdicts, wrong = [], []
    for inst in instances:
        expected = dict(inst["expect"])
        expected["untwisted"] = expected.pop("exit") == 0
        got = is_untwisted(load_twist_data(inst)).to_json()
        verdicts.append(got["untwisted"])
        if got != expected:
            wrong.append((inst, got))
    assert wrong == []
    assert (verdicts.count(False), verdicts.count(True)) == (1_600, 63)


def test_cap_exceeded():
    n = DEFAULT_N_CAP + 1
    with pytest.raises(CapExceeded, match=f"^n = {n} exceeds cap {DEFAULT_N_CAP}$"):
        is_untwisted(TwistData(n=n, ell=(0,) * n))


def test_witness_sigma_simple_chain():
    d = derived("A3", (1, 1, 2, 3), (0, 0, 1))
    sigma, mv = witness_sigma_from_walk(d, (1, 2, 3, 4))
    assert str(sigma) == "----"
    assert mv.m == (-1, 1, 1, 1)
    assert mv.m[0] == -d.ell[3]


def test_witness_sigma_type_B_against_arrow():
    d = derived("B3", (3, 3, 2, 1), (1, 0, 0))
    _, mv = witness_sigma_from_walk(d, (1, 2, 3, 4))
    assert mv.m[0] == -2 * d.ell[3] == -2


def test_witness_sigma_type_G():
    d = derived("G2", (1, 1, 2), (0, 1))
    _, mv = witness_sigma_from_walk(d, (1, 2, 3))
    assert mv.m[0] == -3
    assert mv.m[0] < 0


def test_witness_sigma_length_two():
    d = derived("A2", (1, 2, 1), (2, 1))
    sigma, mv = witness_sigma_from_walk(d, (1, 3))
    assert str(sigma) == "-+-"
    assert mv.m[0] == 2 * (1 - 2)


def test_witness_sigma_rejects_non_minimal():
    # Interior letter appears in the weight: minimality precondition fails.
    d = derived("A3", (1, 1, 2, 3), (0, 1, 1))
    with pytest.raises(NotMinimalWitness):
        witness_sigma_from_walk(d, (1, 2, 3, 4))
    # Raw instance whose repetition entry is below 2.
    with pytest.raises(NotMinimalWitness):
        witness_sigma_from_walk(RUNNING_EXAMPLE, (1, 2))
    with pytest.raises(NotMinimalWitness):
        witness_sigma_from_walk(A2_TWISTED, (3, 1))


def test_witness_sigma_rejects_positions_that_are_not_ints():
    d = TwistData(n=2, c={(1, 2): 2}, ell=(1, 1))
    assert witness_sigma_from_walk(d, (1, 2))[0] == "--"
    with pytest.raises(MalformedInput):
        witness_sigma_from_walk(d, (1.0, 2.0))


@pytest.mark.parametrize(
    "n,c,ell,positions,message",
    [
        (3, {}, (0, 0, 1), (2, 2), "not an increasing index sequence"),
        (3, {}, (0, 0, 1), (3,), "not an increasing index sequence"),
        (3, {}, (0, 0, 1), (0, 3), "not an increasing index sequence"),
        (3, {}, (0, 0, 1), (2, 4), "not an increasing index sequence"),
        (2, {(1, 2): 1}, (3, 5), (1, 2), "no hesitation"),
        (2, {(1, 2): 2}, (0, 0), (1, 2), r"ell\[2\] = 0 is not positive"),
        (2, {(1, 2): 2}, (1, 2), (1, 2), "equal ells"),
        (3, {(1, 2): 2}, (0, 0, 1), (1, 2, 3), r"walking step c\[2, 3\] not negative"),
        (3, {(1, 2): 2, (2, 3): -1}, (0, 1, 1), (1, 2, 3), r"interior ell\[2\] nonzero"),
        (
            4,
            {(1, 2): 2, (2, 3): -1, (3, 4): -1, (2, 4): 1},
            (0, 0, 0, 1),
            (1, 2, 3, 4),
            r"walking pair c\[2, 4\] nonzero",
        ),
        (3, {(1, 2): 2, (2, 3): -1}, (0, 0, 1), (1, 2, 3), "hesitation inconsistency"),
    ],
)
def test_witness_sigma_rejects_each_broken_precondition(n, c, ell, positions, message):
    d = TwistData(n=n, c=c, ell=ell)
    with pytest.raises(NotMinimalWitness, match=message):
        witness_sigma_from_walk(d, positions)
    with pytest.raises(NotMinimalWitness, match=message):
        walk_to_m(d, positions)


def test_hesitant_walk_from_twist_witness_examples():
    w = Word((1, 2, 1))
    m = compute_m(A2_TWISTED, "-+-").m
    rebuilt = hesitant_walk_from_twist_witness(A2_TWISTED, w, m)
    assert rebuilt.positions == (1, 3)
    assert rebuilt.subword == (1, 1)

    t, w, lam = parse_lie_type("A3"), Word((1, 1, 2, 3)), DominantWeight((0, 0, 1))
    d = derive_twist_data(t, w, lam)
    rebuilt = hesitant_walk_from_twist_witness(d, w, compute_m(d, "----").m)
    assert rebuilt.positions == (1, 2, 3, 4)
    assert is_hesitant_lambda_walk(t, Word(rebuilt.subword), lam)


def test_hesitant_walk_precondition():
    with pytest.raises(PreconditionViolated, match="has no negative entry"):
        hesitant_walk_from_twist_witness(
            A2_TWISTED, Word((1, 2, 1)), compute_m(A2_TWISTED, "+++").m
        )
    with pytest.raises(DimensionMismatch):
        hesitant_walk_from_twist_witness(A2_TWISTED, Word((1, 2, 1)), (-2, 0))
    # The walk is found from d and m alone and its letters are read from w,
    # so a word of another length would give letters of another word.
    with pytest.raises(DimensionMismatch, match="word has length 5, expected 3"):
        hesitant_walk_from_twist_witness(
            derived("A2", (1, 1, 2), (0, 1)), Word((2, 2, 1, 1, 1)), (-1, 1, 1)
        )
    # c[1, 2] > 0 gives the repetition, but ell_2 = 0 and nothing follows.
    with pytest.raises(PreconditionViolated, match="greedy extension stuck at 2"):
        hesitant_walk_from_twist_witness(
            TwistData(n=2, c={(1, 2): 1}, ell=(0, 0)), Word((1, 2)), (-1, 1)
        )


def test_hesitant_walk_needs_a_nonnegative_tail_and_a_repetition():
    # The walk starts at the last negative entry, so the tail after it is
    # nonnegative: here that is position 2, and c[2, 3] < 0 cannot repeat it.
    with pytest.raises(PreconditionViolated, match="no repetition candidate after 2"):
        hesitant_walk_from_twist_witness(A2_TWISTED, Word((1, 2, 1)), (-2, -1, 0))
    with pytest.raises(PreconditionViolated, match="no repetition candidate after 1"):
        hesitant_walk_from_twist_witness(TwistData(n=2, ell=(-1, 1)), Word((1, 1)), (-1, 1))


def test_maximal_failing_index():
    assert maximal_failing_index(compute_m(A2_TWISTED, "-+-").m) == 1
    with pytest.raises(PreconditionViolated):
        maximal_failing_index(compute_m(A2_TWISTED, "+++").m)


@pytest.mark.parametrize("m", [(-1.5, 0.5, 2.0), ("x", 1, 1), None], ids=repr)
def test_a_cartier_vector_that_holds_no_ints_is_malformed(m):
    # (-1.5, 0.5, 2.0) gave WalkWitness(positions=(1, 2, 3), ...), and the
    # other two a TypeError.
    with pytest.raises(MalformedInput, match="m must be a list of integers"):
        maximal_failing_index(m)
    with pytest.raises(MalformedInput, match="m must be a list of integers"):
        hesitant_walk_from_twist_witness(derived("A2", (1, 1, 2), (0, 1)), Word((1, 1, 2)), m)


def test_round_trip_witness_revalidates():
    t = parse_lie_type("B3")
    w = Word((3, 1, 3, 2, 1))
    lam = DominantWeight((1, 0, 0))
    d = derive_twist_data(t, w, lam)
    res = is_untwisted(d)
    assert not res.untwisted
    rebuilt = hesitant_walk_from_twist_witness(d, w, res.m.m)
    assert is_hesitant_lambda_walk(t, Word(rebuilt.subword), lam)


# n in 1..5, c and ell in -3..3.
RAW = raw_twist_data(min_n=1, max_n=5, c_bound=3)


@given(RAW)
def test_rows_list_the_nonzero_c_entries_in_increasing_k(d):
    # rows feeds the bound kernel behind compute_m and the lattice descent;
    # it must not depend on the order c was given in.
    expected = tuple(
        tuple((k, d.c_at(j, k)) for k in range(j + 1, d.n + 1) if d.c_at(j, k) != 0)
        for j in range(1, d.n + 1)
    )
    assert d.rows == expected
    assert TwistData(n=d.n, c=dict(reversed(d.c.items())), ell=d.ell).rows == expected


@given(RAW, st.data())
def test_m_depends_only_on_suffix(d, data):
    k = data.draw(st.integers(1, d.n))
    signs = tuple(data.draw(st.sampled_from("+-")) for _ in range(d.n))
    base = compute_m(d, "".join(signs)).m
    # Perturb everything strictly below k: prefix signs, prefix ells, and
    # c entries whose first index is below k.
    new_signs = tuple(
        data.draw(st.sampled_from("+-")) if p < k - 1 else signs[p] for p in range(d.n)
    )
    new_ell = tuple(
        data.draw(st.integers(-3, 3)) if p < k - 1 else d.ell[p] for p in range(d.n)
    )
    new_c = {
        key: (data.draw(st.integers(-3, 3)) if key[0] < k else value)
        for key, value in d.c.items()
    }
    perturbed = compute_m(TwistData(n=d.n, c=new_c, ell=new_ell), "".join(new_signs)).m
    assert perturbed[k - 1 :] == base[k - 1 :]


@given(RAW)
def test_criterion_witness_k_is_the_maximal_failing_index(d):
    # m depends only on the suffix of sigma, so turning every sign before a
    # negative entry into + keeps that entry and gives an earlier sigma.  The
    # first failing sigma (+ before -) thus has no negative entry after its k,
    # and the sweep worker can hand result.m to the sigma-to-walk direction.
    r = is_untwisted(d)
    if not r.untwisted:
        assert maximal_failing_index(r.m.m) == r.k


@settings(max_examples=300, deadline=None)
@given(word_instances(all_types_up_to_rank(8), max_len=10, max_coefficient=2))
def test_criterion_witness_is_the_latest_minimal_walk_on_every_type(inst):
    # Acceptance criterion 12 on words of every type up to E8; the sigma
    # part is a conjecture (see tests/oracles.py::latest_minimal_walk).
    t, w, lam = inst
    r = is_untwisted(derive_twist_data(t, w, lam))
    walk = latest_minimal_walk(t, w, lam)
    # An untwisted result has neither k nor sigma.
    expected = (None, None) if walk is None else (walk[0], minus_at(len(w), walk))
    assert (r.k, r.sigma) == expected


@settings(max_examples=400, deadline=None)
@given(raw_twist_data(min_n=1, max_n=8, c_bound=3, ell=(-2, 4)))
def test_criterion_equals_the_exhaustive_oracle(d):
    # Zero bounds, negative ell and sign vectors with several negative
    # entries all occur in this range.
    assert is_untwisted(d) == is_untwisted_exhaustive(d)


@settings(max_examples=300)
@given(raw_twist_data(min_n=1, max_n=6, c_bound=3, ell=(0, 3)))
def test_sigma_to_walk_rebuilds_a_walk_from_raw_data_with_nonnegative_ell(d):
    # With every ell >= 0 a failing criterion always yields a walk: the
    # first step repeats (c > 0), every later step walks (c < 0) through
    # ell = 0 to a positive ell, and m is positive after the start.
    r = is_untwisted(d)
    if r.untwisted:
        return
    p = hesitant_walk_from_twist_witness(d, Word(range(1, d.n + 1)), r.m.m).positions
    assert p[0] == r.k
    assert d.c_at(p[0], p[1]) > 0
    assert all(d.c_at(a, b) < 0 for a, b in zip(p[1:], p[2:]))
    assert all(d.ell[q - 1] == 0 for q in p[1:-1]) and d.ell[p[-1] - 1] > 0
    assert all(r.m.m[q - 1] > 0 for q in p[1:])


@settings(max_examples=80)
@given(RAW, st.data())
def test_single_minus_gives_ell(d, data):
    k = data.draw(st.integers(1, d.n))
    mv = compute_m(d, minus_at(d.n, [k]))
    assert mv.m[k - 1] == d.ell[k - 1]
    assert all(v == 0 for p, v in enumerate(mv.m, start=1) if p != k)


def test_cartier_vector_zero_on_plus():
    for d in (A2_TWISTED, derived("G2", (1, 1, 2), (0, 1))):
        import itertools

        for raw in itertools.product("+-", repeat=d.n):
            mv = compute_m(d, "".join(raw))
            assert all(
                m == 0 for s, m in zip(raw, mv.m) if s == "+"
            ), CartierVector(mv.m)


def _outcome(f, *args):
    """f(*args), or the class and message of the error it raises."""
    try:
        return f(*args)
    except TwistedCubeError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(raw_twist_data(min_n=1, max_n=6, c_bound=3, ell=(-1, 3)), st.data())
def test_each_public_witness_function_returns_its_kernels_result(d, data):
    # The sweep calls the kernels on positions and entries it built itself;
    # the public functions check their arguments and then call the same
    # kernels, so each returns the kernel's result, wrapped, or both raise
    # the same error with the same message.  m is random or, half the time
    # on twisted data, the criterion's; the positions are random or, half
    # the time, the walk rebuilt from m, so that both kernels also succeed.
    r = is_untwisted(d)
    if not r.untwisted and data.draw(st.booleans(), label="criterion m"):
        m = r.m.m
    else:
        m = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=d.n, max_size=d.n), label="m"))
    w = Word(tuple(data.draw(st.lists(st.integers(1, 3), min_size=d.n, max_size=d.n), label="w")))
    rebuilt = _outcome(m_to_walk, d, m)
    if all(type(p) is int for p in rebuilt):
        assert hesitant_walk_from_twist_witness(d, w, m) == WalkWitness.from_word(w, rebuilt)
        positions = rebuilt if data.draw(st.booleans(), label="rebuilt positions") else None
    else:
        assert _outcome(hesitant_walk_from_twist_witness, d, w, m) == rebuilt
        positions = None
    assert _outcome(maximal_failing_index, m) == _outcome(cartier._maximal_failing_index, m)

    if positions is None:
        positions = tuple(sorted(data.draw(st.sets(st.integers(1, d.n)), label="positions")))
    sigma_m = _outcome(walk_to_m, d, positions)
    if all(type(v) is int for v in sigma_m):
        sigma_m = minus_at(d.n, positions), CartierVector(sigma_m)
    assert _outcome(witness_sigma_from_walk, d, positions) == sigma_m
