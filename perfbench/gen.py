"""Generate the benchmark's committed instance lists with their expected outputs.

Run from the repository root:

    python3 perfbench/gen.py [--only check-untwisted,census]

It writes one JSON file per workload into ``perfbench/data/``.  The lists are
made from a fixed generator seed, so regenerating at the same commit gives the
same files.  Every list is cross-checked while it is made: the sign-vector
criterion and the hesitant-walk detector must agree on every derived instance,
the running example's census must match its closed form, the A2 signed counts
must equal the Weyl dimension formula, and every sweep block must come back
without counterexamples.  A failed cross-check stops the generator.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twistedcubes import harness  # noqa: E402
from twistedcubes.cartier import is_untwisted  # noqa: E402
from twistedcubes.rootdata import parse_lie_type  # noqa: E402
from twistedcubes.twistedcube import lattice_points  # noqa: E402
from twistedcubes.walks import find_hesitant_lambda_walk  # noqa: E402
from twistedcubes.weightword import (  # noqa: E402
    DominantWeight,
    TwistData,
    Word,
    derive_twist_data,
)

DATA = Path(__file__).resolve().parent / "data"
GEN_SEED = 1407_8543

UNTWISTED_CURVE_N = range(8, 17)
UNTWISTED_SEEDED_TYPES = ("B3", "G2", "D4")
# Seeded words only at every other n: the cost grows about 2.3 times per
# letter, so words of neighbouring n would interleave in cost and the ranks of
# the median and tail calls would jump between them from seed to seed.
UNTWISTED_SEEDED_N = (8, 10, 12)
UNTWISTED_POOL = 6
UNTWISTED_DRAW = 2
UNTWISTED_CANDIDATES = 18

TWISTED_TYPES = ("A3", "B3", "C3", "D4", "F4", "G2")
TWISTED_N = (10, 20)
TWISTED_POOL = 1600
TWISTED_FIXED_TAIL = 16
# A call above this work proxy (about half a second) would take most of a pass.
TWISTED_MAX_COST = 1_500_000
TWISTED_STRATA = 384

SAMPLED_BLOCK = {
    "name": "sampled",
    "lie_types": ["A2", "A3", "B3", "C3", "D4", "G2"],
    "max_word_length": 9,
    "weight_alphabet": [0, 1],
    "sample_count": 2000,
}
SAMPLED_SEEDS = range(1, 17)
DEFAULT_BLOCK_NAMES = ("rank3-w01", "d4-f4-w01", "g2-w01", "rank2-w012", "g2-w012")

RUNNING_L = [17000 + 250 * i for i in range(8)]
A2_WORDS = ([1, 2, 1, 2, 1, 2], [2, 1, 2, 1, 2, 1])
A2_K = 8
# The census sizes keep the three kinds' calls apart in time (running example
# fastest, A2 slowest), so the median call is always a B2 one.
B2_WORD = [2, 2, 1, 2]
B2_WEIGHTS = ([15, 15], [14, 16], [16, 14])


class CrossCheckFailed(RuntimeError):
    """A generated instance disagrees with an independent expectation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CrossCheckFailed(message)


def _derived(inst: dict) -> TwistData:
    return derive_twist_data(
        parse_lie_type(inst["type"]), Word(tuple(inst["word"])), DominantWeight(tuple(inst["weight"]))
    )


def _walk(inst: dict):
    return find_hesitant_lambda_walk(
        parse_lie_type(inst["type"]), Word(tuple(inst["word"])), DominantWeight(tuple(inst["weight"]))
    )


def _check_expect(inst: dict) -> dict:
    """Expected `check` output, after both criteria agree on the verdict."""
    result = is_untwisted(_derived(inst))
    _require(
        result.untwisted == (_walk(inst) is None),
        f"criterion and detector disagree on {inst}",
    )
    if result.untwisted:
        return {"exit": 0}
    return {"exit": 1, "sigma": str(result.sigma), "k": result.k, "m": list(result.m.m)}


def _avoiding_word(rng: random.Random, t, lam: DominantWeight, n: int) -> tuple[int, ...]:
    """A random word of length n that avoids hesitant lambda-walks.

    Avoidance is inherited by prefixes, so the word grows one letter at a time
    from the letters that keep it avoiding, restarting at a dead end.
    """
    for _ in range(1000):
        word: tuple[int, ...] = ()
        while len(word) < n:
            options = [
                i
                for i in range(1, t.rank + 1)
                if find_hesitant_lambda_walk(t, Word(word + (i,)), lam) is None
            ]
            if not options:
                break
            word += (rng.choice(options),)
        if len(word) == n:
            return word
    raise CrossCheckFailed(f"no avoiding word of length {n} for {t} at {lam}")


def gen_check_untwisted(rng: random.Random) -> dict:
    fixed = []
    for n in UNTWISTED_CURVE_N:
        inst = {"type": "A3", "word": [1 + p % 3 for p in range(n)], "weight": [0, 0, 0]}
        inst["expect"] = _check_expect(inst)
        _require(inst["expect"]["exit"] == 0, f"A3 curve instance {inst} is twisted")
        fixed.append(inst)
    pool: dict[str, dict[str, list]] = {}
    for name in UNTWISTED_SEEDED_TYPES:
        t = parse_lie_type(name)
        for n in UNTWISTED_SEEDED_N:
            candidates = []
            while len(candidates) < UNTWISTED_CANDIDATES:
                weight = tuple(rng.randint(0, 2) for _ in range(t.rank))
                if not any(weight) or all(weight):
                    continue  # with full support only words shorter than 5 avoid
                lam = DominantWeight(weight)
                word = _avoiding_word(rng, t, lam, n)
                if not any(weight[i - 1] for i in word):
                    continue  # every ell would be zero
                inst = {"type": name, "word": list(word), "weight": list(weight)}
                candidates.append((len(_derived(inst).c), len(candidates), inst))
            # Every sign vector is visited, so the cost grows with the number
            # of nonzero c entries; keep the words nearest the median so that
            # every seed draws words of about the same cost.
            middle = sorted(candidates)[len(candidates) // 2][0]
            kept = sorted(candidates, key=lambda item: (abs(item[0] - middle), item[1]))
            slot = pool.setdefault(name, {}).setdefault(str(n), [])
            for _, _, inst in kept[:UNTWISTED_POOL]:
                inst["expect"] = _check_expect(inst)
                _require(inst["expect"]["exit"] == 0, f"avoiding word {inst} is twisted")
                slot.append(inst)
    return {"fixed": fixed, "pool": pool, "draw": UNTWISTED_DRAW}


def _twisted_cost(d: TwistData, sigma: str) -> int:
    """Work proxy of a twisted `is_untwisted` call: sign vectors visited up to
    the first failing one, times the entries scanned per sign vector."""
    visited = int(sigma.replace("+", "0").replace("-", "1"), 2) + 1
    return visited * (d.n + len(d.c))


def gen_check_twisted(rng: random.Random) -> dict:
    pool = []
    while len(pool) < TWISTED_POOL:
        name = rng.choice(TWISTED_TYPES)
        t = parse_lie_type(name)
        n = rng.randint(*TWISTED_N)
        weight = [rng.randint(0, 1) for _ in range(t.rank)]
        if not any(weight):
            continue
        inst = {"type": name, "word": [rng.randint(1, t.rank) for _ in range(n)], "weight": weight}
        if _walk(inst) is None:
            continue
        inst["expect"] = _check_expect(inst)
        cost = _twisted_cost(_derived(inst), inst["expect"]["sigma"])
        if cost <= TWISTED_MAX_COST:
            pool.append((cost, len(pool), inst))
    pool.sort(key=lambda item: item[:2])
    ranked = [inst for _, _, inst in pool]
    body, tail = ranked[:-TWISTED_FIXED_TAIL], ranked[-TWISTED_FIXED_TAIL:]
    # Consecutive cost ranks form one stratum; a run draws one instance from
    # each, so every seed gets the same cost profile.
    size, extra = divmod(len(body), TWISTED_STRATA)
    strata, start = [], 0
    for s in range(TWISTED_STRATA):
        stop = start + size + (1 if s < extra else 0)
        strata.append(body[start:stop])
        start = stop
    return {"fixed_tail": tail, "strata": strata}


def _sweep_expect(block: dict) -> dict:
    report = harness.verify_equivalence(harness.SweepSpec.from_json(block), jobs=1)
    _require(not report.counterexamples, f"sweep block {block} has counterexamples")
    return {
        "instances": report.instances,
        "untwisted_count": report.untwisted_count,
        "twisted_count": report.twisted_count,
    }


def gen_sweep() -> dict:
    blocks = []
    for name, spec in zip(DEFAULT_BLOCK_NAMES, harness.default_specs(), strict=True):
        block = {
            "name": name,
            "lie_types": list(spec.lie_types),
            "max_word_length": spec.max_word_length,
            "weight_alphabet": list(spec.weight_alphabet),
        }
        block["expect"] = _sweep_expect(block)
        blocks.append(block)
    sampled = dict(SAMPLED_BLOCK)
    sampled["expect_by_seed"] = {
        str(seed): _sweep_expect(dict(SAMPLED_BLOCK, seed=seed)) for seed in SAMPLED_SEEDS
    }
    return {"blocks": blocks, "sampled": sampled, "warmup_block": "g2-w01"}


def _census_expect(d: TwistData) -> dict:
    census = lattice_points(d)
    return {
        "positive": census.num_positive,
        "negative": census.num_negative,
        "signed": census.signed_count,
    }


def _weyl_dim_a2(l1: int, l2: int) -> int:
    return (l1 + 1) * (l2 + 1) * (l1 + l2 + 2) // 2


def gen_census() -> dict:
    running = []
    for L in RUNNING_L:
        inst = {"n": 2, "c": {"1,2": 1}, "ell": [L, 5]}
        inst["expect"] = _census_expect(TwistData(n=2, c={(1, 2): 1}, ell=(L, 5)))
        # x2 runs over 0..5 and x1 over 0..L-x2: 6L - 9 points, all of density +1.
        _require(
            inst["expect"] == {"positive": 6 * L - 9, "negative": 0, "signed": 6 * L - 9},
            f"running example census {inst} breaks its closed form",
        )
        running.append(inst)
    a2 = []
    for word in A2_WORDS:
        inst = {"type": "A2", "word": word, "weight": [A2_K, A2_K]}
        inst["expect"] = _census_expect(_derived(inst))
        _require(
            inst["expect"]["signed"] == _weyl_dim_a2(A2_K, A2_K),
            f"A2 census {inst} misses the Weyl dimension",
        )
        a2.append(inst)
    b2 = []
    for weight in B2_WEIGHTS:
        inst = {"type": "B2", "word": B2_WORD, "weight": weight}
        _require(_check_expect(inst)["exit"] == 1, f"B2 census instance {inst} is untwisted")
        inst["expect"] = _census_expect(_derived(inst))
        _require(inst["expect"]["negative"] > 0, f"B2 census {inst} has no density -1 point")
        b2.append(inst)
    warmup = {"n": 2, "c": {"1,2": 1}, "ell": [3, 5]}
    warmup["expect"] = {"positive": 10, "negative": 1, "signed": 9}
    _require(
        _census_expect(TwistData(n=2, c={(1, 2): 1}, ell=(3, 5))) == warmup["expect"],
        "running example (3, 5) census changed",
    )
    return {"kinds": {"running": running, "a2": a2, "b2": b2}, "warmup": warmup}


def _dump(obj, indent: str = "") -> str:
    """JSON with one instance or leaf value per line."""
    if isinstance(obj, dict) and "expect" not in obj:
        inner = indent + " "
        items = [f"{inner}{json.dumps(k)}: {_dump(v, inner)}" for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        inner = indent + " "
        return "[\n" + ",\n".join(inner + _dump(v, inner) for v in obj) + "\n" + indent + "]"
    return json.dumps(obj, sort_keys=True)


GENERATORS = {
    "check-untwisted": lambda: gen_check_untwisted(random.Random(GEN_SEED)),
    "check-twisted": lambda: gen_check_twisted(random.Random(GEN_SEED + 1)),
    "sweep": gen_sweep,
    "census": gen_census,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="comma-separated workloads to regenerate")
    args = parser.parse_args(argv)
    names = args.only.split(",") if args.only else list(GENERATORS)
    DATA.mkdir(exist_ok=True)
    for name in names:
        data = GENERATORS[name]()
        path = DATA / f"{name}.json"
        path.write_text(_dump(data) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
