import gc
import json
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest

from hypothesis import example, given, settings

from twistedcubes import cartier, harness, twistedcube, walks, weightword
from twistedcubes.cli import EXIT_TWISTED, EXIT_UNTWISTED, main
from twistedcubes.errors import PreconditionViolated
from twistedcubes.harness import (
    SweepReport,
    SweepSpec,
    atlas,
    check_instance,
    default_specs,
    verify_equivalence,
)
from twistedcubes.rootdata import cartan_table
from twistedcubes.walks import WalkWitness
from twistedcubes.weightword import DominantWeight, TwistData, Word, derive_twist_data

from oracles import (
    RUNNING_EXAMPLE,
    derived,
    iter_instances,
    per_word_memo_counterexamples,
    raw_twist_data,
    record_calls,
    scaling_invariance_failures,
    twist_data_checks_oracle,
    untwisted_census_problems,
    workload_data,
    write_input,
)


def test_empty_spec():
    report = verify_equivalence(SweepSpec((), 5))
    assert report.instances == 0
    assert report.counterexamples == []


def test_from_json_ignores_unknown_keys():
    # Benchmark and generator blocks carry a name and their expected counts.
    block = {
        "name": "g2-w01",
        "expect": {"instances": 508},
        "lie_types": ["G2"],
        "max_word_length": 6,
        "weight_alphabet": [0, 1],
        "seed": None,
        "sample_count": None,
    }
    assert SweepSpec.from_json(block) == SweepSpec(("G2",), 6, (0, 1))
    sampled = {"lie_types": ["A2"], "max_word_length": 3, "seed": 5, "sample_count": 4}
    assert SweepSpec.from_json(sampled) == SweepSpec(("A2",), 3, (0, 1), 5, 4)


def test_small_exhaustive_sweep():
    # A2, words up to length 4 over {1,2}, weights over {0,1}^2:
    # (1 + 2 + 4 + 8 + 16) * 4 = 124 instances, all consistent.
    report = verify_equivalence(SweepSpec(("A2",), 4, (0, 1)))
    assert report.instances == 124
    assert report.counterexamples == []
    assert report.untwisted_count + report.twisted_count == 124
    assert report.untwisted_count > 0
    assert report.twisted_count > 0


def test_g2_sweep_clean():
    report = verify_equivalence(SweepSpec(("G2",), 6, (0, 1)))
    assert report.counterexamples == []


def test_sampled_sweep_is_deterministic():
    spec = SweepSpec(("A3", "B2"), 6, (0, 1, 2), seed=7, sample_count=50)
    first = list(iter_instances(spec))
    second = list(iter_instances(spec))
    assert first == second
    assert len(first) == 50
    report = verify_equivalence(spec)
    assert report.counterexamples == []


def test_a_sampled_block_without_a_seed_is_seed_0():
    block = {"lie_types": ["A2"], "max_word_length": 4, "sample_count": 20}
    first, second = (list(iter_instances(SweepSpec.from_json(block))) for _ in range(2))
    assert first == second == list(iter_instances(SweepSpec.from_json(dict(block, seed=0))))
    assert len(first) == 20


def test_check_instance_flags_nothing_on_known_cases():
    assert check_instance(("A2", (1, 2, 1), (2, 1))) == []
    assert check_instance(("A3", (1, 2, 3, 1, 2, 1), (0, 0, 3))) == []


TWISTED = ("A2", (1, 2, 1), (2, 1))
UNTWISTED = ("A3", (1, 2, 3, 1, 2, 1), (0, 0, 3))


def _raises(*args):
    raise PreconditionViolated("injected")


def _one_more_negative(d, prefix, leaf):
    """census_buckets with one more point of density -1 in its totals."""
    buckets, positive, negative = twistedcube.census_buckets(d, prefix, leaf)
    return buckets, positive, negative + 1


def _a_bucket_at_x1_minus_1(d, prefix, leaf):
    """census_buckets with a bucket at x_1 = -1 before its own."""
    buckets, positive, negative = twistedcube.census_buckets(d, prefix, leaf)
    return [((-1,), [0])] + buckets, positive, negative


# One injected fault per counterexample branch of harness._worker: the
# instance, the (module, name, replacement) patch, and how the problem starts.
FAULTS = {
    "verdict mismatch": (
        TWISTED,
        (walks, "hesitant_walk", lambda table, letters, coefficients: None),
        "verdict mismatch: criterion says untwisted=False, detector witness=None",
    ),
    "detector witness not hesitant": (
        TWISTED,
        (
            walks,
            "hesitant_walk",
            lambda table, letters, coefficients: ((1, 2), (1, 2)),
        ),
        "walk-to-sigma round trip raised NotAWitness(",
    ),
    "sigma witness not negative": (
        TWISTED,
        (cartier, "_minus_at", lambda n, positions: "+" * n),
        "walk-to-sigma round trip raised NotMinimalWitness("
        "'walk (1, 3) gives m[1] = 0, not negative')",
    ),
    "rebuilt walk not hesitant": (
        TWISTED,
        (cartier, "m_to_walk", lambda d, m: (1,)),
        "rebuilt walk ",
    ),
    "rebuilt walk predicate raises": (
        TWISTED,
        (cartier, "m_to_walk", lambda d, m: (1, 9)),
        "sigma-to-walk round trip raised IndexOutOfRange(",
    ),
    "rebuilt walk before the word": (
        TWISTED,
        (cartier, "m_to_walk", lambda d, m: (0, 3)),
        "sigma-to-walk round trip raised IndexOutOfRange('positions (0, 3) outside [1, 3]')",
    ),
    "rebuilt walk not increasing": (
        TWISTED,
        (cartier, "m_to_walk", lambda d, m: (3, 1)),
        "sigma-to-walk round trip raised NotAWitness('positions (3, 1) not strictly increasing')",
    ),
    "sigma-to-walk raises": (
        TWISTED,
        (cartier, "_maximal_failing_index", _raises),
        "sigma-to-walk round trip raised PreconditionViolated('injected')",
    ),
    "census density -1": (
        UNTWISTED,
        (harness, "census_buckets", _one_more_negative),
        "untwisted census has a point of density != +1",
    ),
    "census point outside PD": (
        UNTWISTED,
        (harness, "census_buckets", _a_bucket_at_x1_minus_1),
        "untwisted census point escapes the weak-inequality polytope",
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_check_instance_reports_each_fault(fault, monkeypatch):
    inst, (module, name, replacement), problem = FAULTS[fault]
    monkeypatch.setattr(module, name, replacement)
    report = check_instance(inst)
    type_name, word, weight = inst
    assert [ce["instance"] for ce in report] == [
        {"type": type_name, "word": list(word), "weight": list(weight)}
    ]
    assert report[0]["problem"].startswith(problem)


def test_a_verdict_mismatch_prints_the_detector_walk(monkeypatch):
    _, (module, name, replacement), _ = FAULTS["detector witness not hesitant"]
    monkeypatch.setattr(module, name, replacement)
    problems = [ce["problem"] for ce in check_instance(UNTWISTED)]
    assert problems[0] == (
        "verdict mismatch: criterion says untwisted=True, "
        "detector witness=WalkWitness(positions=(1, 2), subword=(1, 2))"
    )


def _distinct_twist_data(spec) -> int:
    """The number of distinct twist data in the spec's stream.  TwistData
    compares ell and the rows, so this counts distinct (ell, rows)."""
    return len({derived(*inst) for inst in iter_instances(spec)})


def _distinct_word_twist_data(spec) -> int:
    """The number of distinct (type, word, twist data) in the spec's stream."""
    return len({(inst[0], inst[1], derived(*inst)) for inst in iter_instances(spec)})


def _one_detector_call_per_instance(detector) -> bool:
    """Whether the recorded detector kernel calls of one exhaustive block
    each read another (table, letters, coefficients), that is another
    instance."""
    return len({args for args, _ in detector}) == len(detector)


def test_sweep_runs_the_criterion_once_per_twist_data_of_each_block(monkeypatch):
    calls = record_calls(monkeypatch, cartier, "is_untwisted")
    checks = record_calls(monkeypatch, harness, "_twist_data_checks")
    detector = record_calls(monkeypatch, walks, "hesitant_walk")
    minimized = record_calls(monkeypatch, walks, "minimal_walk")
    censuses = record_calls(monkeypatch, harness, "census_buckets")
    spec = SweepSpec(("A2", "B2"), 3, (0, 1))
    report = verify_equivalence(spec)
    assert report.counterexamples == []
    assert report.instances == 120
    # A clean block never falls back to an instance's own checks: the
    # checks run once per distinct (ell, rows) of the block, 90 when the
    # memo lived for one word.
    assert len(calls) == len(checks) == _distinct_twist_data(spec) == 43
    # The detector kernel runs at most once per instance: once per twist
    # data of a word, on each miss and on the first hit from each other word.
    assert len(detector) == _distinct_word_twist_data(spec) == 90
    assert _one_detector_call_per_instance(detector)
    # The minimization kernel runs on each walk the checks see, that is
    # once per twisted twist data of the block.
    twisted = sum(not result.untwisted for _, result in calls)
    assert len(minimized) == twisted == 18
    assert twisted < report.twisted_count
    # The census runs once per untwisted twist data of the block, as one
    # call of the kernel.
    assert len(censuses) == len(calls) - twisted == 25


@pytest.mark.parametrize(
    "spec, reads",
    [
        (SweepSpec(("A2", "B2"), 3, (0, 1)), 59),
        (SweepSpec(("D4", "F4"), 2, (0, 1)), 28),
        (default_specs()[0], 4_762),
    ],
    ids=["A2 B2 length 3", "D4 F4 length 2", "first default block"],
)
def test_sweep_census_bound_reads_are_pinned(spec, reads, monkeypatch):
    # Counted work, not time, as upper bounds: the census of each untwisted
    # twist data of a block reads the kernel's bounds and nothing more.
    # Listing every point and testing each against PD read 343, 748 and
    # 32 591; one census per twist data of each word read 120, 224 and
    # 10 424.
    rows = record_calls(monkeypatch, twistedcube, "bound")
    report = verify_equivalence(spec)
    assert report.counterexamples == []
    assert len(rows) <= reads


def test_census_problems_equal_the_point_by_point_oracle_on_the_default_sweep():
    # Every census the default sweep checks: one per untwisted twist data
    # of each (type, word).
    checked = {
        (inst[0], inst[1], derived(*inst)) for spec in default_specs() for inst in iter_instances(spec)
    }
    untwisted = [d for _, _, d in checked if cartier.is_untwisted(d).untwisted]
    assert len(untwisted) == 5_138
    for d in untwisted:
        assert harness._census_problems(d) == untwisted_census_problems(d) == [], d


# n <= 5, |c| <= 2 and ell in -3..3: twisted cubes, with points of density
# -1 and points outside PD, as well as untwisted ones.
@settings(max_examples=300, deadline=None)
@given(raw_twist_data(max_n=5, ell=(-3, 3)))
# A point of density -1 at (-1, 5), which also escapes PD.
@example(RUNNING_EXAMPLE)
# One point, (-1, -1), of density +1 outside PD.
@example(TwistData(n=2, ell=(-2, -2)))
# A negative x_2 or x_3 under a nonnegative x_1.
@example(TwistData(n=2, ell=(0, -3)))
@example(TwistData(n=3, ell=(0, 0, -3)))
@example(TwistData(n=0))
def test_census_problems_equal_the_point_by_point_oracle(d):
    assert harness._census_problems(d) == untwisted_census_problems(d)


def test_sweep_reads_the_cartan_table_once_per_word(monkeypatch):
    # A word outside the sweep is the cached one when the count starts.
    derived("A3", (1, 2, 3), (0, 0, 0))
    tables = record_calls(monkeypatch, weightword, "cartan_table")
    derives = record_calls(monkeypatch, harness, "derive_twist_data")
    calls = record_calls(monkeypatch, cartier, "is_untwisted")
    report = verify_equivalence(SweepSpec(("A2", "B2"), 3, (0, 1)))
    assert report.instances == len(derives) == 120
    # One read per (type, word) group: 1 + 2 + 4 + 8 words of each type.
    assert len(tables) == 30
    assert len(calls) == 43


def test_the_default_sweep_reads_the_cartan_table_once_per_word(monkeypatch):
    # Counted work, as an upper bound: the word cache is built once per
    # (type, word) group of the stream, and each other weight of the word
    # hits it.  A cache rebuilt for each weight would read 22 967 tables.
    weightword._word_constants.cache_clear()
    tables = record_calls(monkeypatch, weightword, "cartan_table")
    derives = record_calls(monkeypatch, harness, "derive_twist_data")
    for spec in default_specs():
        verify_equivalence(spec)
    assert len(derives) == 22_967
    assert len(tables) <= 2_292


def test_verify_streams_its_instances(monkeypatch):
    drawn = []
    first_call = []
    real_groups, real_worker = harness.iter_groups, harness._worker

    def counting(spec):
        for group in real_groups(spec):
            drawn.append(group)
            yield group

    def worker(group, memo, report):
        if not first_call:
            first_call.append(len(drawn))
        return real_worker(group, memo, report)

    monkeypatch.setattr(harness, "iter_groups", counting)
    monkeypatch.setattr(harness, "_worker", worker)
    report = verify_equivalence(SweepSpec(("A2", "B2"), 3, (0, 1)))
    # The first check runs after one group is drawn, not after all 30: one
    # per (type, word), each with its 4 weights.
    assert first_call == [1]
    assert len(drawn) == 30
    assert sum(len(weights) for *_, weights in drawn) == report.instances == 120


def _sweep_workload_specs() -> list[SweepSpec]:
    """The sweep workload's blocks and its sampled block at seed 1."""
    data = workload_data("sweep")
    blocks = data["blocks"] + [dict(data["sampled"], seed=1)]
    return [SweepSpec.from_json(block) for block in blocks]


def _checked_twist_data(specs):
    """(d, t, w, lam) for each distinct twist data d of each block, with the
    first (type, word, weight) that gives it, as a clean verify checks
    them."""
    for spec in specs:
        seen = set()
        for _, t, word, weights in harness.iter_groups(spec):
            w = Word(word)
            for lam in weights:
                d = derive_twist_data(t, w, lam)
                if d not in seen:
                    seen.add(d)
                    yield d, t, w, lam


@pytest.mark.parametrize(
    "specs, checks",
    [(default_specs, 6_778), (_sweep_workload_specs, 7_928)],
    ids=["default sweep", "sweep workload at seed 1"],
)
def test_twist_data_checks_equal_the_public_function_oracle(specs, checks, monkeypatch):
    # The kernels, fed once per check with the table, the letters and the
    # coefficients, against the same checks made through the public walk
    # functions: the same verdict and the same problems on every check.
    # One check per twist data of each word made 14 178 and 16 178.
    count = 0
    for d, t, w, lam in _checked_twist_data(specs()):
        walk = walks.hesitant_walk(cartan_table(t), w.entries, lam.coefficients)
        checked = harness._twist_data_checks(d, t, w, lam, walk)
        assert checked == twist_data_checks_oracle(d, t, w, lam), (t, w, lam)
        count += 1
    assert count == checks
    # A clean verify runs the criterion once per check listed here.
    calls = record_calls(monkeypatch, cartier, "is_untwisted")
    for spec in specs():
        verify_equivalence(spec)
    assert len(calls) == checks


def _verify_run(specs, tmp_path, capsys) -> tuple[int, dict]:
    """The exit code of one `verify --spec` command over the blocks specs,
    and the report it prints without wall_ms, its one nondeterministic
    field."""
    code = main(["verify", "--spec", write_input(tmp_path / "spec.json", [asdict(s) for s in specs])])
    report = json.loads(capsys.readouterr().out)
    del report["wall_ms"]
    return code, report


@pytest.mark.parametrize(
    "specs, checks, detector_calls",
    [(default_specs, 5_191, 14_178), (_sweep_workload_specs, 5_932, 16_178)],
    ids=["default sweep", "sweep workload at seed 1"],
)
def test_a_verify_run_checks_each_twist_data_of_the_run_once(
    specs, checks, detector_calls, tmp_path, monkeypatch, capsys
):
    # Counted work: the blocks of one verify command share one memo, so a
    # twist data that an earlier block checked is a hit in a later one.  A
    # memo per block made 6 778 and 7 928 checks, as verify_equivalence
    # still makes on each block alone.
    blocks = specs()
    distinct = len({derived(*inst) for spec in blocks for inst in iter_instances(spec)})
    calls = record_calls(monkeypatch, cartier, "is_untwisted")
    detector = record_calls(monkeypatch, walks, "hesitant_walk")
    code, report = _verify_run(blocks, tmp_path, capsys)
    assert (code, report["counterexamples"]) == (EXIT_UNTWISTED, [])
    assert len(calls) == distinct == checks
    # A hit from an earlier block's word reruns the detector, as a hit from
    # another word of the same block does, so the detector runs as often as
    # with a memo per block: once per twist data of each word of a block.
    assert len(detector) == detector_calls


@pytest.mark.parametrize(
    "specs, groups",
    [(default_specs, 2_292), (_sweep_workload_specs, 4_292)],
    ids=["default sweep", "sweep workload at seed 1"],
)
def test_a_verify_run_checks_each_group_in_one_worker_call(specs, groups, tmp_path, monkeypatch, capsys):
    # Counted work: one _worker call per (type, word, weights) group, which
    # reads the Cartan table at most once for the detector, beside the
    # one read of each criterion call's checks.  A worker call per instance
    # made 22 967 and 24 967 calls and read 19 369 and 22 110 tables, once
    # per detector call plus once per criterion call.
    blocks = specs()
    workers = record_calls(monkeypatch, harness, "_worker")
    tables = record_calls(monkeypatch, harness, "cartan_table")
    calls = record_calls(monkeypatch, cartier, "is_untwisted")
    code, report = _verify_run(blocks, tmp_path, capsys)
    assert (code, report["counterexamples"]) == (EXIT_UNTWISTED, [])
    assert len(workers) == groups == sum(1 for spec in blocks for _ in harness.iter_groups(spec))
    assert len(tables) <= groups + len(calls)


def test_a_clean_sweep_checks_each_group_word_once_and_builds_no_walk_layer_word(monkeypatch):
    # Counted work: each (type, word) group builds one Word, which the word
    # cache of derive_twist_data checks against its type once, and the walk
    # kernels build no Word.  Both round trips run as kernels, so a clean
    # sweep calls none of the public functions that check their arguments
    # again.  Checking through the public walk functions made 22 528 letter
    # checks and 9 508 walk-layer Words here; checking each rebuilt walk
    # through is_hesitant_lambda_walk made 4 754 more letter checks; a word
    # cache that built its own Word to check the letters made 2 448 Words.
    spec = default_specs()[0]
    weightword._word_constants.cache_clear()
    checks = record_calls(monkeypatch, Word, "validate_for")
    built = record_calls(monkeypatch, Word, "__post_init__")
    words = record_calls(monkeypatch, walks, "Word")
    public = [
        record_calls(monkeypatch, module, name)
        for module, name in [
            (WalkWitness, "__init__"),
            (walks, "is_hesitant_lambda_walk"),
            (cartier, "minus_at"),
            (cartier, "witness_sigma_from_walk"),
            (cartier, "hesitant_walk_from_twist_witness"),
            (cartier, "maximal_failing_index"),
            (TwistData, "c_at"),
        ]
    ]
    groups = sum(1 for _ in harness.iter_groups(spec))
    report = verify_equivalence(spec)
    assert report.counterexamples == []
    assert groups == 1_224
    assert len(checks) <= groups
    assert len(built) <= groups
    assert words == []
    assert public == [[]] * len(public)


@pytest.mark.parametrize(
    "specs, parses",
    [(default_specs, 13), (_sweep_workload_specs, 19)],
    ids=["default sweep", "sweep workload at seed 1"],
)
def test_verify_parses_each_lie_type_once_per_block(specs, parses, monkeypatch):
    # Counted work: each type of a block is parsed once, however many words
    # and weights it has.  Parsing the type again for each (type, word) read
    # 2 305 and 4 304.
    blocks = specs()
    calls = record_calls(monkeypatch, harness, "parse_lie_type")
    for spec in blocks:
        verify_equivalence(spec)
    assert len(calls) == parses == sum(len(spec.lie_types) for spec in blocks)


# D4 and F4 words of length <= 2 over {0, 1}: most of the 16 weights of a
# word share their twist data, and so do many words, so the memo is hit far
# more often than missed.
SHARED = SweepSpec(("D4", "F4"), 2, (0, 1))

# 300 seeded draws of A2, B2 and G2 words of length <= 5: each group holds
# one weight, so every hit, 178 of the 300 instances, is a hit from another
# group's word, which SHARED rarely makes.
SAMPLED = SweepSpec(("A2", "B2", "G2"), 5, (0, 1), seed=1, sample_count=300)


def _assert_sweep_report_equals_the_per_instance_checks(fault, spec, monkeypatch):
    if fault is not None:
        _, (module, name, replacement), _ = FAULTS[fault]
        monkeypatch.setattr(module, name, replacement)
    report = verify_equivalence(spec)
    instances = list(iter_instances(spec))
    expected = [ce for inst in instances for ce in check_instance(inst)]
    expected.sort(key=lambda ce: json.dumps(ce, sort_keys=True))
    assert report.counterexamples == expected
    assert (fault is None) == (expected == [])
    untwisted = sum(cartier.is_untwisted(derived(*inst)).untwisted for inst in instances)
    assert (report.instances, report.untwisted_count) == (len(instances), untwisted)


@pytest.mark.parametrize("fault", [None] + sorted(FAULTS))
def test_sweep_report_equals_the_per_instance_checks(fault, monkeypatch):
    _assert_sweep_report_equals_the_per_instance_checks(fault, SHARED, monkeypatch)


@pytest.mark.parametrize("fault", [None] + sorted(FAULTS))
def test_sampled_sweep_report_equals_the_per_instance_checks(fault, monkeypatch):
    _assert_sweep_report_equals_the_per_instance_checks(fault, SAMPLED, monkeypatch)


def test_a_shared_fault_is_reported_for_every_instance_of_the_block_that_shares_it(monkeypatch):
    # A census fault is shared by the untwisted instances, a detector fault
    # by the twisted ones.  An entry with a problem is shared only within
    # its word, so each is found once per twist data of a word, with that
    # word's own problem text.
    for fault, sharers in (("census density -1", "untwisted_count"), ("verdict mismatch", "twisted_count")):
        _, (module, name, replacement), problem = FAULTS[fault]
        with monkeypatch.context() as patch:
            patch.setattr(module, name, replacement)
            calls = record_calls(patch, cartier, "is_untwisted")
            report = verify_equivalence(SHARED)
        sharing = getattr(report, sharers)
        assert len(calls) < report.instances
        assert [ce["problem"] for ce in report.counterexamples] == [problem] * sharing, fault
        shared_by = {json.dumps(ce["instance"]) for ce in report.counterexamples}
        assert len(shared_by) == sharing


def test_the_memo_key_is_the_whole_twist_data(monkeypatch):
    # A derive that reads weight coefficients outside the word gives every
    # weight of a nonempty word its own ell_1; the empty word has no ell.
    real = harness.derive_twist_data

    def leaky(t, w, lam):
        d = real(t, w, lam)
        if not d.n:
            return d
        # ell_1 is 0 or 1 and the leak is even and injective in the weight,
        # so their sum is injective too.
        leak = sum(v << (i + 1) for i, v in enumerate(lam.coefficients))
        return TwistData(n=d.n, c=d.c, ell=(d.ell[0] + leak,) + d.ell[1:])

    monkeypatch.setattr(harness, "derive_twist_data", leaky)
    calls = record_calls(monkeypatch, cartier, "is_untwisted")
    spec = SweepSpec(("A2", "B2"), 2, (0, 1))
    report = verify_equivalence(spec)
    # Each leaked twist data is checked once, and once more for each other
    # word that hits an entry with a problem, as the leak makes: the empty
    # word and the clean entries are shared by A2 and B2.
    groups = list(harness.iter_groups(spec))
    leaked = {leaky(t, Word(word), lam) for _, t, word, weights in groups for lam in weights}
    assert _distinct_twist_data(spec) < len(leaked) == 23
    assert len(leaked) < len(calls) == 28 < report.instances == 56


def test_no_memo_outlives_its_block(monkeypatch):
    calls = record_calls(monkeypatch, cartier, "is_untwisted")
    verify_equivalence(SHARED)
    first = len(calls)
    verify_equivalence(SHARED)
    assert first == len(calls) - first == _distinct_twist_data(SHARED) == 17


def test_a_block_leaves_no_memory_behind():
    # The memo dies with the call: a module-level memo would keep one entry
    # per distinct twist data of the block, several KB.  The block is SHARED
    # with lam_i in {0, 3}, which no other test runs, so no memo kept from
    # an earlier call could hold its entries already.  The warm-up makes D4
    # and F4 and reads their Cartan tables, which stay cached.
    verify_equivalence(SweepSpec(("D4", "F4"), 0, (0,)))
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        verify_equivalence(SweepSpec(("D4", "F4"), 2, (0, 3)))
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 2_048, after - before


# The collision fault: a derive_twist_data that reads every ell_j from
# lam_1, so that words whose twist data differ get one key.
def _ell_from_lambda_1(t, w, lam):
    return derive_twist_data(t, w, DominantWeight((lam.coefficients[0],) * t.rank))


@pytest.mark.parametrize(
    "spec, named",
    [
        (SweepSpec(("A2", "B2"), 4, (0, 1)), 60),
        (SweepSpec(("A3", "B3", "C3"), 4, (0, 1)), 864),
        (SweepSpec(("G2",), 5, (0, 1)), 74),
    ],
    ids=["A2 B2", "A3 B3 C3", "G2"],
)
def test_a_twist_data_collision_hides_no_fault(spec, named, monkeypatch):
    # Every instance that a memo of one word names is named: a hit from
    # another word reruns the detector and, where its walk or the entry's
    # problems differ, makes the instance's own checks.  Without that
    # recheck the block memo named 44, 692 and 66.
    expected = per_word_memo_counterexamples(spec, derive=_ell_from_lambda_1)
    monkeypatch.setattr(harness, "derive_twist_data", _ell_from_lambda_1)
    detector = record_calls(monkeypatch, walks, "hesitant_walk")
    report = verify_equivalence(spec)
    assert _one_detector_call_per_instance(detector)
    named_by = {json.dumps(ce["instance"], sort_keys=True) for ce in report.counterexamples}
    assert {json.dumps(ce["instance"], sort_keys=True) for ce in expected} <= named_by
    assert len(named_by) == named


def _timeless(report: SweepReport) -> dict:
    """The report's JSON without wall_ms, its one nondeterministic field."""
    out = report.to_json()
    del out["wall_ms"]
    return out


# Pairs of blocks that overlap.  In the first, the second block repeats the
# first's A2 words at the weights over {0, 1}, and its weights with a 2 give
# twist data that B2 words gave in the first.  In the second, A2 words give
# twist data that G2 words gave; under the collision fault, sharing those
# entries without the detector's recheck would drop counterexamples.
OVERLAPPING = {
    "A2 B2 then A2 over 0 1 2": [SweepSpec(("A2", "B2"), 3, (0, 1)), SweepSpec(("A2",), 3, (0, 1, 2))],
    "G2 then A2": [SweepSpec(("G2",), 4, (0, 1)), SweepSpec(("A2",), 4, (0, 1))],
}


@pytest.mark.parametrize("blocks", OVERLAPPING)
@pytest.mark.parametrize("fault", [None, "twist data collision"] + sorted(FAULTS))
def test_the_run_memo_hides_no_fault_in_a_later_block(fault, blocks, tmp_path, monkeypatch, capsys):
    # A verify run reports what its blocks report when each is checked on
    # its own, with a memo of its own, merged in block order: an entry of
    # an earlier block is shared only as a hit from another word, which
    # reruns the detector and makes its own checks where they could differ.
    if fault == "twist data collision":
        monkeypatch.setattr(harness, "derive_twist_data", _ell_from_lambda_1)
    elif fault is not None:
        _, (module, name, replacement), _ = FAULTS[fault]
        monkeypatch.setattr(module, name, replacement)
    calls = record_calls(monkeypatch, cartier, "is_untwisted")
    alone = SweepReport()
    for spec in OVERLAPPING[blocks]:
        alone.merge(verify_equivalence(spec))
    checked_alone = len(calls)
    code, report = _verify_run(OVERLAPPING[blocks], tmp_path, capsys)
    assert report == _timeless(alone)
    assert code == (EXIT_TWISTED if alone.counterexamples else EXIT_UNTWISTED)
    assert (fault is None) == (alone.counterexamples == [])
    # The run checks no more than the blocks alone, and a clean run fewer:
    # the later block hits what the first checked.  An entry with a problem
    # is rechecked on each hit from another word.
    checked_in_run = len(calls) - checked_alone
    assert checked_in_run <= checked_alone
    assert fault is not None or checked_in_run < checked_alone


def test_a_verify_run_leaves_no_memory_behind(tmp_path, capsys):
    # The run memo dies with the command: a memo kept after it would hold
    # one entry per distinct twist data of the run, several KB.  The blocks
    # weigh lam_i in {0, 5}, which no other test runs, so no memo kept from
    # an earlier call could hold their entries already.  The warm-up runs
    # the command once on the same words at lam = 0, which makes D4 and F4,
    # reads their Cartan tables and interns the pairs of their rows, all of
    # which stay cached.  Only blocks the package's own code allocated are
    # counted: what argparse and the re module cache depends on the tests
    # that ran before.
    warm = write_input(tmp_path / "warm.json", [asdict(SweepSpec(("D4", "F4"), 2, (0,)))])
    blocks = [SweepSpec(("D4", "F4"), 2, (0, 5)), SweepSpec(("F4",), 2, (0, 5, 6))]
    spec = write_input(tmp_path / "spec.json", [asdict(s) for s in blocks])
    assert main(["verify", "--spec", warm]) == EXIT_UNTWISTED
    capsys.readouterr()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        assert main(["verify", "--spec", spec]) == EXIT_UNTWISTED
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["counterexamples"] == []
    package = [tracemalloc.Filter(True, str(Path(harness.__file__).parent / "*"))]
    diff = after.filter_traces(package).compare_to(before.filter_traces(package), "filename")
    left = sum(stat.size_diff for stat in diff)
    assert left < 2_048, left


def test_report_json_is_deterministic():
    spec = SweepSpec(("A1",), 3, (0, 1))
    a, b = (_timeless(verify_equivalence(spec)) for _ in range(2))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert "wall_ms" in verify_equivalence(spec).to_json()


def test_merge():
    a = verify_equivalence(SweepSpec(("A1",), 2, (0, 1)))
    b = verify_equivalence(SweepSpec(("A2",), 2, (0, 1)))
    merged = SweepReport()
    merged.merge(a)
    merged.merge(b)
    assert merged.instances == a.instances + b.instances
    assert merged.untwisted_count == a.untwisted_count + b.untwisted_count


def test_parallel_matches_serial():
    spec = SweepSpec(("A2", "B2"), 3, (0, 1))
    serial = verify_equivalence(spec, jobs=1)
    parallel = verify_equivalence(spec, jobs=2)
    assert _timeless(serial) == _timeless(parallel)


@pytest.mark.parametrize("fault", [None, "verdict mismatch", "rebuilt walk not hesitant"])
def test_the_pool_matches_the_serial_sweep_across_chunks(fault, monkeypatch):
    # 728 groups fill two chunks, each checked with a memo of its own, and
    # the parent merges their reports.  Forked workers inherit the patch of
    # walks.hesitant_walk or cartier.m_to_walk.
    spec = SweepSpec(("A3", "B3"), 5, (0, 1))
    groups = sum(1 for _ in harness.iter_groups(spec))
    assert harness.CHUNK_GROUPS < groups == 728 <= 2 * harness.CHUNK_GROUPS
    if fault is not None:
        _, (module, name, replacement), _ = FAULTS[fault]
        monkeypatch.setattr(module, name, replacement)
    serial = verify_equivalence(spec, jobs=1)
    parallel = verify_equivalence(spec, jobs=2)
    assert _timeless(serial) == _timeless(parallel)
    assert len(serial.counterexamples) == (0 if fault is None else 3_848)


def test_scaling_invariance_on_small_block():
    assert scaling_invariance_failures(SweepSpec(("A2", "B2"), 4, (0, 1))) == []


def test_atlas_single_letter():
    report = atlas([SweepSpec(("A1",), 3, (1,))])
    counts = report["counts"]["A1"]["1"]
    assert counts["1"] == {"avoiding": 1, "total": 1}
    assert counts["2"] == {"avoiding": 0, "total": 1}
    assert counts["3"] == {"avoiding": 0, "total": 1}


def test_atlas_a2_counts():
    report = atlas([SweepSpec(("A2",), 2, (0, 1))])
    assert report["instances"] == 28
    # With full support, only the two repetition-free words of length 2 avoid.
    assert report["counts"]["A2"]["1,1"]["2"] == {"avoiding": 2, "total": 4}
    # Zero weight: nothing can end at a supported root, so every word avoids.
    for length, slot in report["counts"]["A2"]["0,0"].items():
        assert slot["avoiding"] == slot["total"], length
    assert atlas([]) == {"instances": 0, "counts": {}}


def test_default_specs_shape():
    specs = default_specs()[:3]
    assert all(isinstance(s, SweepSpec) for s in specs)
    assert any("G2" in s.lie_types for s in specs)
    assert len(default_specs()) > len(specs)


def test_spec_from_json_round_trip():
    spec = SweepSpec.from_json(
        {"lie_types": ["A2", "B2"], "max_word_length": 3, "weight_alphabet": [0, 2]}
    )
    assert spec == SweepSpec(("A2", "B2"), 3, (0, 2))
    # The constructor stores lists as tuples, so a spec built from lists equals it.
    assert SweepSpec(["A2", "B2"], 3, [0, 2]) == spec
    assert SweepSpec.from_json({"lie_types": ["A1"], "max_word_length": 1}).weight_alphabet == (
        0,
        1,
    )
