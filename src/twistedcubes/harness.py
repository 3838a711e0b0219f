"""Exhaustive and randomized verification of the untwisted/avoidance
equivalence, the cross-module witness round-trips, and census tallies."""

from __future__ import annotations

import importlib
import itertools
import json
import random
import time
from dataclasses import asdict, dataclass, field

from . import cartier, walks
from .cartier import DEFAULT_N_CAP
from .errors import CapExceeded, MalformedInput, require_int, require_ints
from .rootdata import LieType, cartan_table, parse_lie_type
from .twistedcube import census_buckets
from .walks import WalkWitness
from .weightword import DominantWeight, TwistData, Word, _word_constants, derive_twist_data


@dataclass(frozen=True)
class SweepSpec:
    """One block of instances: types x words up to a length x weight vectors."""

    lie_types: tuple[str, ...]
    max_word_length: int
    weight_alphabet: tuple[int, ...] = (0, 1)
    seed: int | None = None
    sample_count: int | None = None

    def __post_init__(self) -> None:
        """Every rule of a block, for one built in code as for one read from
        JSON: a malformed field raises MalformedInput, and a Lie type that
        does not parse RankOutOfRange.  Lists are stored as tuples."""
        names = self.lie_types
        if not isinstance(names, (list, tuple)):
            raise MalformedInput(f"lie_types must be a list of strings, got {names!r}")
        # A type or a weight value named twice would count its instances twice.
        types = [parse_lie_type(name) for name in names]
        if len(set(types)) < len(types):
            raise MalformedInput(f"lie_types names one type twice: {list(names)!r}")
        alphabet = require_ints("weight_alphabet", self.weight_alphabet)
        if any(v < 0 for v in alphabet):
            raise MalformedInput(f"weight_alphabet must be >= 0, got {list(alphabet)}")
        if len(set(alphabet)) < len(alphabet):
            raise MalformedInput(f"weight_alphabet repeats a value: {list(alphabet)}")
        _nonnegative_int("max_word_length", self.max_word_length)
        if self.seed is not None:
            # An exhaustive block draws nothing, so its seed would be ignored silently.
            if self.sample_count is None:
                raise MalformedInput("a seed needs a sample_count")
            require_int("seed", self.seed)
        count = self.sample_count
        if count is not None and _nonnegative_int("sample_count", count) and not (names and alphabet):
            raise MalformedInput("sampling needs a lie type and a weight value")
        vars(self).update(lie_types=tuple(names), weight_alphabet=alphabet)

    @classmethod
    def from_json(cls, obj) -> "SweepSpec":
        """One block of a spec file; the constructor checks every field.
        Other keys, such as a block's name, are ignored."""
        if not isinstance(obj, dict):
            raise MalformedInput(f"sweep block must be an object, got {obj!r}")
        missing = {"lie_types", "max_word_length"} - obj.keys()
        if missing:
            raise MalformedInput(f"sweep block lacks {sorted(missing)}")
        return cls(
            lie_types=obj["lie_types"],
            max_word_length=obj["max_word_length"],
            weight_alphabet=obj.get("weight_alphabet", (0, 1)),
            seed=obj.get("seed"),
            sample_count=obj.get("sample_count"),
        )


def require_checkable(spec: SweepSpec) -> None:
    """CapExceeded when the block holds words longer than the criterion's
    cap, so that a sweep fails before it checks any instance."""
    if spec.max_word_length > DEFAULT_N_CAP:
        raise CapExceeded(
            f"sweep block max_word_length = {spec.max_word_length} exceeds cap {DEFAULT_N_CAP}"
        )


def _nonnegative_int(field: str, value) -> int:
    """value itself if it is an int >= 0, else MalformedInput."""
    if require_int(field, value) < 0:
        raise MalformedInput(f"{field} must be >= 0, got {value}")
    return value


@dataclass
class SweepReport:
    instances: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    untwisted_count: int = 0
    twisted_count: int = 0
    wall_ms: int = 0

    def to_json(self) -> dict:
        return asdict(self)

    def merge(self, other: "SweepReport") -> None:
        self.instances += other.instances
        self.counterexamples.extend(other.counterexamples)
        self.untwisted_count += other.untwisted_count
        self.twisted_count += other.twisted_count
        self.wall_ms += other.wall_ms


Instance = tuple[str, tuple[int, ...], tuple[int, ...]]


def iter_groups(spec: SweepSpec):
    """Deterministic stream of (type name, type, word, weights) groups: an
    exhaustive block gives each word of each type with every weight of the
    type, and a sampled one (sample_count set) each seeded draw with its
    drawn weight.  Each type is parsed and named, and each of its weights
    built as a DominantWeight, once (once per draw when sampled)."""
    types = [(str(t), t) for t in map(parse_lie_type, spec.lie_types)]
    if spec.sample_count is not None:
        # A missing seed means seed 0, so that the stream stays deterministic.
        rng = random.Random(0 if spec.seed is None else spec.seed)
        for _ in range(spec.sample_count):
            type_name, t = rng.choice(types)
            n = rng.randint(0, spec.max_word_length)
            word = tuple(rng.randint(1, t.rank) for _ in range(n))
            weight = DominantWeight(rng.choice(spec.weight_alphabet) for _ in range(t.rank))
            yield type_name, t, word, (weight,)
        return
    for type_name, t in types:
        weights = tuple(map(DominantWeight, itertools.product(spec.weight_alphabet, repeat=t.rank)))
        for n in range(spec.max_word_length + 1):
            for word in itertools.product(range(1, t.rank + 1), repeat=n):
                yield type_name, t, word, weights


def _twist_data_checks(
    d: TwistData, t: LieType, w: Word, lam: DominantWeight, walk
) -> tuple[bool, tuple[str, ...]]:
    """Every check of one instance of type t and word w at weight lam, whose
    twist data is d and whose detector walk is walk: the criterion, the
    sigma-to-walk rebuild and its predicate, the untwisted census, the verdict
    comparison and the walk-to-sigma round trip.  Each reads lam only at the
    letters of w, that is through ell, so the result depends on d and the
    walk alone.  Returns the criterion's verdict (True when untwisted) and
    the problems found.

    The worker's word cache has checked w's letters against t, once per
    word, and lam has t's rank, so every walk check runs as a kernel on t's
    Cartan table, the letters and the coefficients: walk is what the
    detector kernel walks.hesitant_walk gives, walks.minimal_walk minimizes
    it, and walks.hesitant tests the rebuilt walk, whose letters are read
    from w once its positions are checked to increase inside w.  Both round
    trips run as the kernels cartier.walk_to_m and cartier.m_to_walk on d
    and the harness's own positions and m.  A WalkWitness is built only to
    print a problem, or to raise the public path's error on rebuilt
    positions that fail their check."""
    problems: list[str] = []
    result = cartier.is_untwisted(d)
    if result.untwisted != (walk is None):
        witness = None if walk is None else WalkWitness(*walk)
        problems.append(
            f"verdict mismatch: criterion says untwisted={result.untwisted}, "
            f"detector witness={witness}"
        )

    table = cartan_table(t)
    if walk is not None:
        # Each fact is checked once, where it is made: minimal_walk raises
        # NotAWitness on a detector walk that is not hesitant, and walk_to_m
        # raises NotMinimalWitness on a sigma whose leading Cartier entry is
        # not negative.
        try:
            minimal, _ = walks.minimal_walk(table, *walk, lam.coefficients)
            cartier.walk_to_m(d, minimal)
        except Exception as exc:  # noqa: BLE001 - failures are data here
            problems.append(f"walk-to-sigma round trip raised {exc!r}")

    if not result.untwisted:
        try:
            positions = cartier.m_to_walk(d, result.m.m)
            letters = w.entries
            # Positions that do not increase inside w raise what the public
            # path raises on them, through the WalkWitness it builds.
            if not (
                0 < positions[0]
                and positions[-1] <= len(letters)
                and all(map(int.__lt__, positions, positions[1:]))
            ):
                WalkWitness.from_word(w, positions)
            rebuilt = tuple([letters[p - 1] for p in positions])
            if not walks.hesitant(table, rebuilt, lam.coefficients):
                problems.append(f"rebuilt walk {WalkWitness(positions, rebuilt)} fails its predicate")
        except Exception as exc:  # noqa: BLE001
            problems.append(f"sigma-to-walk round trip raised {exc!r}")
    else:
        problems += _census_problems(d)
    return result.untwisted, tuple(problems)


def _census_problems(d: TwistData) -> list[str]:
    """The problems of an untwisted cube's census, whose points should all
    have density +1 and lie in PD: 0 <= x_j <= A_j(x) for every j.

    A census point has a < x_j < 0 or 0 <= x_j <= a at each j, a being
    A_j(x), so it lies in PD exactly when no coordinate is negative.  So the
    kernel files flags, not points: the hooks flag a negative x_2 and a
    negative entry of (x_3, ..., x_n), level 1 adds the two, and a point
    escapes PD when its x_1 is negative or its object is nonzero."""
    (first, lists), _, negative = census_buckets(d, _negative_head, _negative_tail)
    problems = []
    if negative:
        problems.append("untwisted census has a point of density != +1")
    # Each value of x_1 from first on holds a point, so a negative first is
    # a point with x_1 < 0.
    if first < 0 or any(map(any, lists)):
        problems.append("untwisted census point escapes the weak-inequality polytope")
    return problems


def _negative_head(head: tuple[int, ...]) -> bool:
    """The census prefix hook of _census_problems: whether x_2 < 0, and
    False for the empty head of n <= 1."""
    return bool(head) and head[0] < 0


def _negative_tail(tail: tuple[int, ...]) -> tuple[bool, bool]:
    """The census leaf hook of _census_problems: whether (x_3, ..., x_n) has
    a negative entry, for either density."""
    negative = min(tail, default=0) < 0
    return negative, negative


def _worker(group: tuple, memo: dict, report: SweepReport) -> None:
    """Check every instance of group, a (type name, type, word, weights)
    group of iter_groups, and count each into report, its counterexample
    records in check order.  The group's Word is built once, the word cache
    read once, which checks the letters against the type and gives the
    word's rows and ell gather, and the type's Cartan table read at most
    once, for the detector.  iter_groups builds every weight with the
    type's rank, so no weight's rank is checked again here.

    memo files the entries of the twist data already checked with it, by
    this call of _check_groups or by an earlier block of the same verify
    run, by the word rows and then by ell: memo[rows][ell] holds the
    group's word that last used it, the positions of that word's detector
    walk, and its _twist_data_checks, so that instances with the same
    (c, ell) share every check, across words too.  The shelf memo[rows] is
    looked up once per group, by value, and each weight's ell is one
    gather of its coefficients.  A TwistData is derived only for an
    instance that makes its own checks, with the same word cache, so a
    fault in the rows or the gather reaches the key and the checked data
    alike.  A hit from another word runs the detector kernel on this
    instance's letters and weight, and this instance makes its own checks
    unless the walk has the entry's positions and the entry has no
    problem: so a fault that gives two words one twist data cannot hide
    behind the entry, and a counterexample carries its own word's problem
    text.  A hit from the same word shares the entry, so a problem found
    once is reported for every weight of the word that shares it."""
    type_name, t, word_entries, weights = group
    w = Word(word_entries)
    rows, gather = _word_constants(t, w)
    shelf = memo.setdefault(rows, {})
    table = None
    untwisted_count = 0
    for lam in weights:
        ell = gather(lam.coefficients)
        entry = shelf.get(ell)
        if entry is None or entry[0] is not w:
            if table is None:
                table = cartan_table(t)
            walk = walks.hesitant_walk(table, word_entries, lam.coefficients)
            positions = None if walk is None else walk[0]
            if entry is None or entry[1] != positions or entry[3]:
                d = derive_twist_data(t, w, lam)
                entry = (w, positions, *_twist_data_checks(d, t, w, lam, walk))
            else:
                entry = (w, positions, entry[2], entry[3])
            shelf[ell] = entry
        _, _, untwisted, problems = entry
        untwisted_count += untwisted
        if problems:
            instance_json = {"type": type_name, "word": list(word_entries), "weight": list(lam.coefficients)}
            report.counterexamples.extend({"instance": instance_json, "problem": p} for p in problems)
    report.instances += len(weights)
    report.untwisted_count += untwisted_count
    report.twisted_count += len(weights) - untwisted_count


def _check_groups(groups, memo: dict | None = None) -> SweepReport:
    """The report of every instance of the (type name, type, word, weights)
    groups of iter_groups, one _worker call per group.  One memo serves all
    the groups: memo when given, the run memo of a serial verify, else a
    new one that dies with the call, as for a pool worker's chunk and
    check_instance's one group.  Counterexamples come in check order."""
    if memo is None:
        memo = {}
    report = SweepReport()
    for group in groups:
        _worker(group, memo, report)
    return report


def check_instance(inst: Instance) -> list[dict]:
    """All per-instance assertions; returns a list of counterexample records."""
    type_name, word_entries, weight_coeffs = inst
    t, lam = parse_lie_type(type_name), DominantWeight(weight_coeffs)
    w = Word(word_entries)
    # The worker trusts a weight's rank, as iter_groups gives it; the rank
    # is checked before the letters, as at every entry that reads a triple.
    lam.validate_for(t)
    return _check_groups([(type_name, t, w.entries, (lam,))]).counterexamples


# Consecutive groups per pool task: each chunk is one pickle and one memo.
CHUNK_GROUPS = 512


def verify_equivalence(spec: SweepSpec, jobs: int = 1, memo: dict | None = None) -> SweepReport:
    """Run every per-instance check over the sweep; failures are report data,
    never exceptions.  A block whose words outgrow the criterion's cap
    raises CapExceeded before any check.  A serial sweep checks the block
    with one memo of checked twist data: memo, which the blocks of one
    verify run share, or else one that dies with the call.  A pool ignores
    memo: it checks runs of CHUNK_GROUPS groups, each with a memo of its
    own, and merges their reports."""
    require_checkable(spec)
    start = time.monotonic()
    # Groups stream in: a serial sweep draws each group as it checks it, and
    # the pool draws one chunk per task, so neither path holds a block's
    # whole instance list.
    groups = iter_groups(spec)
    if jobs > 1:
        report = SweepReport()
        chunks = iter(lambda: list(itertools.islice(groups, CHUNK_GROUPS)), [])
        # multiprocessing is loaded only for a pool, so a serial sweep and
        # every other command skip its modules.
        with importlib.import_module("multiprocessing").Pool(jobs) as pool:
            for part in pool.imap(_check_groups, chunks):
                report.merge(part)
    else:
        report = _check_groups(groups, memo)
    report.counterexamples.sort(key=lambda ce: json.dumps(ce, sort_keys=True))
    report.wall_ms = int((time.monotonic() - start) * 1000)
    return report


def atlas(specs: list[SweepSpec]) -> dict:
    """Tally hesitant-lambda-walk-avoiding words per (type, weight, word
    length) slot across the blocks; blocks may share slots.  Each group's
    word is checked against its type once, and the detector kernel reads the
    Cartan table and each weight's coefficients; iter_groups builds every
    weight with the type's rank."""
    counts: dict = {}
    instances = 0
    for spec in specs:
        for type_name, t, word_entries, weights in iter_groups(spec):
            Word(word_entries).validate_for(t)
            table = cartan_table(t)
            by_weight = counts.setdefault(type_name, {})
            length_key = str(len(word_entries))
            for lam in weights:
                walk = walks.hesitant_walk(table, word_entries, lam.coefficients)
                weight_key = ",".join(str(c) for c in lam.coefficients)
                slot = by_weight.setdefault(weight_key, {}).setdefault(
                    length_key, {"avoiding": 0, "total": 0}
                )
                slot["avoiding"] += walk is None
                slot["total"] += 1
                instances += 1
    return {"instances": instances, "counts": counts}


def default_specs() -> list[SweepSpec]:
    """The desk-scale sweep: every case branch of the sufficiency analysis at
    small rank.  The first three blocks, over the {0, 1} alphabet, are the
    core sweep of scripts/default_sweep_core.json, under 60 s
    single-threaded; the last two widen the alphabet to {0, 1, 2}."""
    return [
        SweepSpec(("A1", "A2", "A3", "B2", "B3", "C3"), 5, (0, 1)),
        SweepSpec(("D4", "F4"), 4, (0, 1)),
        SweepSpec(("G2",), 6, (0, 1)),
        SweepSpec(("A1", "A2", "B2"), 5, (0, 1, 2)),
        SweepSpec(("G2",), 6, (0, 1, 2)),
    ]
