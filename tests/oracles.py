"""Independent reference implementations that the tests compare the library
against, and the builders the test files share: instances, hypothesis
strategies, a call counter and readers of the benchmark's data.  The oracles
are slow by design, and none of this is part of the installed package."""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from twistedcubes import cartier, harness, walks
from twistedcubes.cartier import DEFAULT_N_CAP, UntwistResult, compute_m, is_untwisted
from twistedcubes.cli import load_instance
from twistedcubes.errors import CapExceeded, RankOutOfRange
from twistedcubes.harness import SweepSpec, iter_groups
from twistedcubes.rootdata import (
    FAMILIES,
    LieType,
    cartan_pairing,
    cartan_table,
    parse_lie_type,
)
from twistedcubes.twistedcube import LatticeCensus, contains_PD, lattice_points
from twistedcubes.walks import WalkWitness
from twistedcubes.weightword import (
    DominantWeight,
    TwistData,
    Word,
    appears_in_lambda,
    bound,
    derive_twist_data,
)

NAIVE_N_CAP = 16


def adjacent(t: LieType, i: int, j: int) -> bool:
    """Whether roots i and j (1-based) are joined by a Dynkin-diagram edge."""
    return i != j and cartan_table(t)[i - 1][j - 1] < 0


def contains(d: TwistData, x) -> bool:
    """Whether x lies in the twisted cube C(c, ell): for each j, with
    a = ell_j - sum_{k>j} c[j, k] x_k, either a < x_j < 0 or 0 <= x_j <= a.
    Written out from c_at, apart from the census kernel's bound."""
    for j in range(1, d.n + 1):
        a = d.ell[j - 1] - sum(d.c_at(j, k) * x[k - 1] for k in range(j + 1, d.n + 1))
        if not (a < x[j - 1] < 0 or 0 <= x[j - 1] <= a):
            return False
    return True


def density(d: TwistData, x) -> int:
    """The signed density: 0 outside C, else (-1)^n times the product of
    sgn(x_k), with sgn = 1 on negatives and -1 on [0, inf)."""
    if not contains(d, x):
        return 0
    rho = (-1) ** d.n
    for v in x:
        rho *= 1 if v < 0 else -1
    return rho


def derive_twist_data_oracle(t: LieType, w: Word, lam: DominantWeight) -> TwistData:
    """Oracle for ``derive_twist_data``: each c[j, k] with j < k is
    cartan_pairing(t, word[k], word[j]), the k-th letter's root against the
    j-th letter's coroot, and ell_p = lam at the p-th letter; the raw
    constructor cleans c and builds the rows.  Nothing is shared between
    calls."""
    letters = w.entries
    n = len(letters)
    c = {
        (j, k): cartan_pairing(t, letters[k - 1], letters[j - 1])
        for j in range(1, n + 1)
        for k in range(j + 1, n + 1)
    }
    return TwistData(n=n, c=c, ell=tuple(lam.coefficients[i - 1] for i in letters))


def is_untwisted_exhaustive(d: TwistData, cap: int = DEFAULT_N_CAP) -> UntwistResult:
    """Oracle for ``is_untwisted``: compute_m on every one of the 2^n sign
    vectors, in lexicographic order with + before -, until one has a
    negative entry; reports that sigma, its first negative entry k and m."""
    if d.n > cap:
        raise CapExceeded(f"n = {d.n} exceeds cap {cap}")
    for sigma in map("".join, itertools.product("+-", repeat=d.n)):
        mv = compute_m(d, sigma)
        for k, value in enumerate(mv.m, start=1):
            if value < 0:
                return UntwistResult(untwisted=False, sigma=sigma, k=k, m=mv)
    return UntwistResult(untwisted=True)


def all_types_up_to_rank(max_rank: int) -> list[LieType]:
    """Every admissible LieType with rank <= max_rank, in canonical order:
    each family-rank pair that the LieType constructor accepts."""
    out = []
    for family in FAMILIES:
        for rank in range(1, max_rank + 1):
            try:
                out.append(LieType(family, rank))
            except RankOutOfRange:
                pass
    return out


def find_hesitant_lambda_walk_naive(
    t: LieType, w: Word, lam: DominantWeight
) -> WalkWitness | None:
    """Oracle by exhaustive subword enumeration; capped at n <= 16.

    Returns some valid witness (not necessarily the canonical one) or None.
    """
    n = len(w)
    if n > NAIVE_N_CAP:
        raise CapExceeded(f"naive detector capped at n <= {NAIVE_N_CAP}, got {n}")
    letters = w.entries
    support = [appears_in_lambda(lam, i) for i in letters]
    adj = {
        (a, b)
        for a in range(1, t.rank + 1)
        for b in range(1, t.rank + 1)
        if adjacent(t, a, b)
    }
    # Bit-twiddled subset scan; per-mask work is dominated by the early
    # rejections (fewer than two set bits, or an unrepeated first letter).
    for mask in range(3, 1 << n):
        m = mask
        low = m & -m
        b0 = low.bit_length() - 1
        m ^= low
        if m == 0:
            continue
        low = m & -m
        b1 = low.bit_length() - 1
        if letters[b0] != letters[b1]:
            continue
        m ^= low
        prev = b1
        ok = True
        while m:
            low = m & -m
            b = low.bit_length() - 1
            m ^= low
            if (letters[prev], letters[b]) not in adj:
                ok = False
                break
            prev = b
        if ok and support[prev]:
            positions = [p + 1 for p in range(n) if mask >> p & 1]
            return WalkWitness.from_word(w, positions)
    return None


def first_hesitant_lambda_walk(
    t: LieType, w: Word, lam: DominantWeight
) -> tuple[int, ...] | None:
    """Oracle for the canonical walk: the lexicographically smallest position
    tuple whose subword is a hesitant lambda-walk, a prefix counting as
    smaller than its extensions, or None.

    Depth-first search over increasing positions, smaller positions first:
    a repeated first letter, then adjacent steps until a root in lam.
    """
    letters = w.entries
    n = len(letters)

    def extend(positions: tuple[int, ...]) -> tuple[int, ...] | None:
        last = letters[positions[-1] - 1]
        if appears_in_lambda(lam, last):
            return positions
        for q in range(positions[-1] + 1, n + 1):
            if adjacent(t, last, letters[q - 1]):
                found = extend(positions + (q,))
                if found is not None:
                    return found
        return None

    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            if letters[q - 1] == letters[p - 1]:
                found = extend((p, q))
                if found is not None:
                    return found
    return None


def latest_minimal_walk(t: LieType, w: Word, lam: DominantWeight) -> tuple[int, ...] | None:
    """The positions of the latest minimal hesitant lambda-walk of w, or None
    if no position starts a hesitant lambda-walk.

    It starts at k, the largest position that starts a hesitant lambda-walk.
    It repeats k's letter at the largest later position that starts a
    lambda-walk, and then, until its letter is in lam, steps to the largest
    later position of an adjacent letter that starts a lambda-walk.
    Quadratic in the word's length.
    """
    letters = w.entries
    n = len(letters)
    # starts[q]: some lambda-walk subword of w begins at position q.
    starts = [False] * (n + 2)
    for q in range(n, 0, -1):
        a = letters[q - 1]
        starts[q] = appears_in_lambda(lam, a) or any(
            starts[r] and adjacent(t, a, letters[r - 1]) for r in range(q + 1, n + 1)
        )

    def latest(after: int, fits) -> int | None:
        return next((q for q in range(n, after, -1) if starts[q] and fits(letters[q - 1])), None)

    k = next(
        (p for p in range(n, 0, -1) if latest(p, lambda b: b == letters[p - 1]) is not None),
        None,
    )
    if k is None:
        return None
    positions = [k, latest(k, lambda b: b == letters[k - 1])]
    while not appears_in_lambda(lam, letters[positions[-1] - 1]):
        last = letters[positions[-1] - 1]
        positions.append(latest(positions[-1], lambda b: adjacent(t, last, b)))
    return tuple(positions)


def minimize_splice(t: LieType, witness: WalkWitness, lam: DominantWeight) -> WalkWitness:
    """Oracle for ``minimize`` on a hesitant lambda-walk: truncate the
    walking component at its earliest root in lam, then, for each kept root
    in turn, splice out the detour up to its next repeat until it has none;
    positions are looked up again at the end.  Quadratic in the walk's
    length."""
    head = witness.positions[0]
    walking = list(zip(witness.positions[1:], witness.subword[1:]))
    stop = next(i for i, (_, letter) in enumerate(walking) if appears_in_lambda(lam, letter))
    walking = walking[: stop + 1]
    i = 0
    while i < len(walking):
        dup = next(
            (b for b in range(i + 1, len(walking)) if walking[b][1] == walking[i][1]),
            None,
        )
        if dup is None:
            i += 1
        else:
            del walking[i + 1 : dup + 1]
    positions = (head,) + tuple(p for p, _ in walking)
    return WalkWitness(
        positions,
        tuple(witness.subword[witness.positions.index(p)] for p in positions),
    )


def brute_force_census(d: TwistData, box: int | None = None) -> LatticeCensus:
    """Independent oracle: test every integer point of an enclosing box.

    Per-coordinate half-widths default to the running worst-case bound
    |x_j| <= |ell_j| + sum_{k>j} |c_jk| B_k; intended for tiny n only.
    """
    if d.n == 0:
        return lattice_points(d)
    if box is not None:
        bounds = [box] * d.n
    else:
        bounds = [0] * d.n
        for j in range(d.n, 0, -1):
            row = d.rows[j - 1]
            bounds[j - 1] = abs(d.ell[j - 1]) + sum(abs(v) * bounds[k - 1] for k, v in row)
    pts: list[tuple[tuple[int, ...], int]] = []

    def walk(coords: list[int]) -> None:
        if len(coords) == d.n:
            rho = density(d, coords)
            if rho != 0:
                pts.append((tuple(coords), rho))
            return
        b = bounds[len(coords)]
        for v in range(-b, b + 1):
            walk(coords + [v])

    walk([])
    pts.sort()
    pos = sum(1 for _, rho in pts if rho == 1)
    return LatticeCensus(points=tuple(pts), num_positive=pos, num_negative=len(pts) - pos)


def descent_census(d: TwistData) -> LatticeCensus:
    """Order oracle for ``lattice_points``: a recursive descent from x_n,
    one call per point, then one sort of all the points."""
    pts: list[tuple[tuple[int, ...], int]] = []

    def descend(j: int, x: list[int], rho: int) -> None:
        if j == 0:
            pts.append((tuple(x), rho))
            return
        a = bound(d, j, x)
        for v in range(0, a + 1) if a >= 0 else range(a + 1, 0):
            x[j - 1] = v
            descend(j - 1, x, rho if v < 0 else -rho)

    descend(d.n, [0] * d.n, (-1) ** d.n)
    pts.sort()
    pos = sum(1 for _, rho in pts if rho == 1)
    return LatticeCensus(points=tuple(pts), num_positive=pos, num_negative=len(pts) - pos)


def untwisted_census_problems(d: TwistData) -> list[str]:
    """Oracle for the sweep's census check of an untwisted cube: every point
    of ``lattice_points`` is listed, and its density and ``contains_PD``
    are tested one point at a time."""
    census = lattice_points(d)
    problems = []
    if any(rho != 1 for _, rho in census.points):
        problems.append("untwisted census has a point of density != +1")
    if any(not contains_PD(d, p) for p, _ in census.points):
        problems.append("untwisted census point escapes the weak-inequality polytope")
    return problems


def twist_data_checks_oracle(
    d: TwistData, t: LieType, w: Word, lam: DominantWeight
) -> tuple[bool, tuple[str, ...]]:
    """Oracle for ``harness._twist_data_checks``: the same checks, each made
    through the public functions, which check the word and the weight again
    on every call and pass WalkWitness objects between them."""
    problems: list[str] = []
    result = cartier.is_untwisted(d)
    walk = walks.find_hesitant_lambda_walk(t, w, lam)
    if result.untwisted != (walk is None):
        problems.append(
            f"verdict mismatch: criterion says untwisted={result.untwisted}, "
            f"detector witness={walk}"
        )
    if walk is not None:
        try:
            minimal = walks.minimize(t, walk, lam)
            cartier.witness_sigma_from_walk(d, minimal.positions)
        except Exception as exc:  # noqa: BLE001 - failures are data here
            problems.append(f"walk-to-sigma round trip raised {exc!r}")
    if not result.untwisted:
        try:
            rebuilt = cartier.hesitant_walk_from_twist_witness(d, w, result.m.m)
            if not walks.is_hesitant_lambda_walk(t, Word(rebuilt.subword), lam):
                problems.append(f"rebuilt walk {rebuilt} fails its predicate")
        except Exception as exc:  # noqa: BLE001
            problems.append(f"sigma-to-walk round trip raised {exc!r}")
    else:
        problems += harness._census_problems(d)
    return result.untwisted, tuple(problems)


def per_word_memo_counterexamples(spec: SweepSpec, derive=derive_twist_data) -> list[dict]:
    """Oracle for the instances ``harness.verify_equivalence`` names: the
    counterexample records of a sweep whose memo lives for one word, as
    verify's was before it kept one for the whole block.  Each weight's
    twist data comes from derive, and the checks of each distinct twist data
    of a word are made once, through the public functions, and shared by
    the word's weights that give it."""
    records = []
    for type_name, t, word, weights in iter_groups(spec):
        w = Word(word)
        memo: dict = {}
        for lam in weights:
            d = derive(t, w, lam)
            if d not in memo:
                memo[d] = twist_data_checks_oracle(d, t, w, lam)
            instance = {"type": type_name, "word": list(word), "weight": list(lam.coefficients)}
            records += [{"instance": instance, "problem": p} for p in memo[d][1]]
    return records


def scaling_invariance_failures(spec: SweepSpec, factor: int = 3) -> list[dict]:
    """Instances whose untwisted verdict changes when the weight is scaled;
    the criterion depends on the weight only through its support, so this
    must come back empty."""
    failures: list[dict] = []
    for type_name, word_entries, weight_coeffs in iter_instances(spec):
        base = is_untwisted(derived(type_name, word_entries, weight_coeffs)).untwisted
        scaled_weight = tuple(factor * c for c in weight_coeffs)
        scaled = is_untwisted(derived(type_name, word_entries, scaled_weight)).untwisted
        if base != scaled:
            failures.append(
                {
                    "type": type_name,
                    "word": list(word_entries),
                    "weight": list(weight_coeffs),
                    "factor": factor,
                }
            )
    return failures


def demazure_rho(t: LieType, word) -> tuple[int, ...]:
    """w*ρ in fundamental-weight coordinates, w* being the Demazure (0-Hecke)
    product of the word: read from the right, letter i replaces μ by
    s_i μ = μ - μ_i α_i when μ_i > 0, starting from μ = ρ.  Row i of the
    Cartan table is α_i in those coordinates."""
    table = cartan_table(t)
    mu = (1,) * t.rank
    for i in reversed(word):
        m = mu[i - 1]
        if m > 0:
            mu = tuple(v - m * a for v, a in zip(mu, table[i - 1]))
    return mu


def point_weight(t: LieType, word, weight, x) -> tuple[int, ...]:
    """The weight λ - Σ_j x_j α_{i_j} of the lattice point x of the word's
    cube, in fundamental-weight coordinates, where row i of the Cartan table
    is α_i, as in demazure_rho."""
    table = cartan_table(t)
    mu = list(weight)
    for i, v in zip(word, x):
        for p, a in enumerate(table[i - 1]):
            mu[p] -= v * a
    return tuple(mu)


def demazure_character(table, word, weight) -> dict:
    """D_{i_1} ⋯ D_{i_n} e^λ as {weight: multiplicity}, zeros dropped, the
    operators applied from the right, with α_i row i of the Cartan table, as
    in point_weight.  D_i e^μ is Σ_{x=0}^{μ_i} e^{μ - xα_i} when μ_i >= 0,
    0 when μ_i = -1, and -Σ_{x=μ_i+1}^{-1} e^{μ - xα_i} when μ_i <= -2."""
    character = {tuple(weight): 1}
    for i in reversed(word):
        alpha = table[i - 1]
        image: dict = {}
        for mu, mult in character.items():
            m = mu[i - 1]
            xs, sign = (range(m + 1), 1) if m >= 0 else (range(m + 1, 0), -1)
            for x in xs:
                nu = tuple(v - x * a for v, a in zip(mu, alpha))
                image[nu] = image.get(nu, 0) + sign * mult
        character = {mu: mult for mu, mult in image.items() if mult}
    return character


def is_longest_element(t: LieType, word) -> bool:
    """Whether the Demazure product of the word is w₀: exactly when w*ρ has
    no entry >= 0, as w₀ρ = -ρ* and no shorter w maps ρ to an antidominant
    weight."""
    return all(v < 0 for v in demazure_rho(t, word))


def positive_coroots(t: LieType) -> list[tuple[int, ...]]:
    """The positive coroots in simple-coroot coordinates: the simple ones
    closed under s_i β^∨ = β^∨ - ⟨α_i, β^∨⟩ α_i^∨ while they stay positive."""
    table = cartan_table(t)
    r = t.rank
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    found, todo = set(simple), list(simple)
    while todo:
        beta = todo.pop()
        for i in range(r):
            pairing = sum(c * a for c, a in zip(beta, table[i]))
            image = tuple(c - pairing * (j == i) for j, c in enumerate(beta))
            if min(image) >= 0 and image not in found:
                found.add(image)
                todo.append(image)
    return sorted(found)


def weyl_dimension(t: LieType, weight) -> Fraction:
    """dim V(λ) by Weyl's formula, the product over the positive coroots of
    ⟨λ + ρ, β^∨⟩ / ⟨ρ, β^∨⟩, with λ in fundamental-weight coordinates."""
    dim = Fraction(1)
    for beta in positive_coroots(t):
        dim *= Fraction(sum(c * (l + 1) for c, l in zip(beta, weight)), sum(beta))
    return dim


# The builders the test files share.


def iter_instances(spec: SweepSpec):
    """The (type name, word, weight) instances of harness.iter_groups, one
    weight at a time, with the weight as its tuple of coefficients."""
    for type_name, _, word, weights in iter_groups(spec):
        for weight in weights:
            yield type_name, word, weight.coefficients


def derived(type_name: str, word, weight) -> TwistData:
    """The twist data of the derived instance (type, word, weight), with the
    type by name and the word and weight as sequences of integers."""
    return derive_twist_data(parse_lie_type(type_name), Word(word), DominantWeight(weight))


def raw_twist_data(min_n=0, max_n=3, c_bound=2, ell=None):
    """Raw TwistData with n in [min_n, max_n], every c[j, k] in
    [-c_bound, c_bound] and every ell_j in ell = (low, high), by default
    (-c_bound, c_bound)."""
    low, high = (-c_bound, c_bound) if ell is None else ell
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(low, high), min_size=n, max_size=n),
            st.lists(
                st.integers(-c_bound, c_bound),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ),
        )
    ).map(_raw)


def _raw(args):
    n, ell, cvals = args
    keys = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    return TwistData(n=n, c=dict(zip(keys, cvals)), ell=tuple(ell))


@st.composite
def word_instances(draw, types, max_len, max_coefficient):
    """A type drawn from types, a word over its letters of at most max_len
    letters, and a weight with coefficients in [0, max_coefficient]."""
    t = draw(st.sampled_from(types))
    word = Word(tuple(draw(st.lists(st.integers(1, t.rank), max_size=max_len))))
    lam = DominantWeight(
        tuple(draw(st.lists(st.integers(0, max_coefficient), min_size=t.rank, max_size=t.rank)))
    )
    return t, word, lam


def record_calls(monkeypatch, module, name) -> list[tuple[tuple, object]]:
    """Patch module.name with a wrapper that forwards each call and records
    it in the returned list as (positional arguments, result)."""
    calls = []
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, recorded)
    return calls


#: The hot-path kernels, as (module, name): the functions that the
#: benchmark's workloads spend their time in, below the public wrappers.
KERNELS = (
    ("twistedcubes.weightword", "derive_twist_data"),
    ("twistedcubes.cartier", "is_untwisted"),
    ("twistedcubes.cartier", "_compute_m"),
    ("twistedcubes.walks", "hesitant_walk"),
    ("twistedcubes.walks", "minimal_walk"),
    ("twistedcubes.walks", "hesitant"),
    ("twistedcubes.cartier", "walk_to_m"),
    ("twistedcubes.cartier", "m_to_walk"),
    ("twistedcubes.twistedcube", "census_buckets"),
    ("twistedcubes.weightword", "bound"),
)


def record_kernel_calls(monkeypatch) -> dict[tuple[str, str], list[list]]:
    """record_calls on each kernel of KERNELS under every name a
    twistedcubes module holds for it, since cli and harness import some of
    them by name: for each (module, name), one list of calls per name."""
    holders = [
        module
        for name, module in list(sys.modules.items())
        if name == "twistedcubes" or name.startswith("twistedcubes.")
    ]
    calls = {}
    for module, name in KERNELS:
        real = getattr(importlib.import_module(module), name)
        calls[module, name] = [
            record_calls(monkeypatch, holder, attr)
            for holder in holders
            for attr, value in list(vars(holder).items())
            if value is real
        ]
    return calls


WORKLOAD_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def workload_data(workload: str):
    """The committed data of a benchmark workload,
    perfbench/data/<workload>.json: its instances, each with the outcome the
    workload expects under "expect"."""
    return json.loads((WORKLOAD_DATA / f"{workload}.json").read_text(encoding="utf-8"))


def check_untwisted_instances() -> list[dict]:
    """The 63 instances of the check-untwisted workload: the fixed ones, then
    the pool's, by type and length in file order."""
    data = workload_data("check-untwisted")
    pool = [inst for by_length in data["pool"].values() for group in by_length.values() for inst in group]
    return data["fixed"] + pool


def write_input(path: Path, obj) -> str:
    """Write obj, an instance or a sweep spec, to path as JSON and return
    the path as a string.  A benchmark instance's "expect" field is left
    out, as the workload leaves it out of the files it runs."""
    if isinstance(obj, dict):
        obj = {key: value for key, value in obj.items() if key != "expect"}
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def load_twist_data(inst: dict) -> TwistData:
    """The twist data of an instance, read from its file by
    ``cli.load_instance`` as the CLI reads it."""
    with tempfile.TemporaryDirectory() as tmp:
        d, _ = load_instance(write_input(Path(tmp) / "inst.json", inst))
    return d


#: The running n = 2 example, c_12 = 1 and ell = (3, 5), as the JSON of
#: scripts/figure_example.json and as the twist data the CLI reads from it:
#: a half-open region with one lattice point of density -1, at (-1, 5).
FIGURE_EXAMPLE = Path(__file__).resolve().parent.parent / "scripts" / "figure_example.json"
RUNNING_EXAMPLE_JSON = json.loads(FIGURE_EXAMPLE.read_text(encoding="utf-8"))
RUNNING_EXAMPLE = load_twist_data(RUNNING_EXAMPLE_JSON)
