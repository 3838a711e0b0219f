"""The benchmark's workloads: seeded selection from the committed instance
lists, one op per in-process CLI call, and the check of each call's output.

Every op is one ``twistedcubes.cli.main(argv)`` call.  Its ``count`` is how
many ops it stands for in ``ops_per_s``: 1 for a ``check`` call, the instance
count for a ``verify`` call, the point count for a ``lattice`` call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("check-untwisted", "check-twisted", "sweep", "census")


@dataclass
class Op:
    """One CLI call with the output it must produce."""

    kind: str  # "check", "verify" or "lattice"
    argv: list[str]
    expect: dict
    count: int
    out: Path | None = None  # the `lattice --out` file


def _load(workload: str) -> dict:
    with open(DATA / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: Path, obj) -> str:
    """Write an input file once per run: the run's later set-ups find it in
    place, so file-system noise stays out of the median set-up time."""
    text = json.dumps(obj)
    if not path.exists() or path.read_text(encoding="utf-8") != text:
        path.write_text(text, encoding="utf-8")
    return str(path)


def _write_instance(workdir: Path, name: str, inst: dict) -> str:
    return _write(workdir / f"{name}.json", {key: value for key, value in inst.items() if key != "expect"})


def _check_op(workdir: Path, name: str, inst: dict) -> Op:
    path = _write_instance(workdir, name, inst)
    return Op("check", ["check", "--instance", path], inst["expect"], 1)


def _lattice_op(workdir: Path, name: str, inst: dict) -> Op:
    path = _write_instance(workdir, name, inst)
    out = workdir / f"{name}.jsonl"
    expect = inst["expect"]
    count = expect["positive"] + expect["negative"]
    return Op("lattice", ["lattice", "--instance", path, "--out", str(out)], expect, count, out=out)


def _verify_op(workdir: Path, name: str, blocks: list[dict]) -> Op:
    spec, expect = [], {"instances": 0, "untwisted_count": 0, "twisted_count": 0}
    for block in blocks:
        spec.append({key: value for key, value in block.items() if key != "expect"})
        for key in expect:
            expect[key] += block["expect"][key]
    path = _write(workdir / f"{name}.json", spec)
    return Op("verify", ["verify", "--spec", path, "--jobs", "1"], expect, expect["instances"])


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Op], list[Op]]:
    """The ops of one pass and the warm-up ops, for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    data = _load(workload)
    if workload == "check-untwisted":
        insts = list(data["fixed"])
        for type_name in sorted(data["pool"]):
            by_n = data["pool"][type_name]
            insts += [inst for n in sorted(by_n, key=int) for inst in rng.sample(by_n[n], data["draw"])]
        ops = [_check_op(workdir, f"u{i}", inst) for i, inst in enumerate(insts)]
        warm = ops[:2]
    elif workload == "check-twisted":
        insts = list(data["fixed_tail"]) + [rng.choice(stratum) for stratum in data["strata"]]
        rng.shuffle(insts)
        ops = [_check_op(workdir, f"t{i}", inst) for i, inst in enumerate(insts)]
        warm = ops[:2]
    elif workload == "sweep":
        sampled = dict(data["sampled"])
        seed_key = rng.choice(sorted(sampled.pop("expect_by_seed").items()))
        sampled["seed"], sampled["expect"] = int(seed_key[0]), seed_key[1]
        all_blocks = data["blocks"] + [sampled]
        ops = [_verify_op(workdir, "sweep", all_blocks)]
        warm_blocks = [b for b in data["blocks"] if b["name"] == data["warmup_block"]]
        warm = [_verify_op(workdir, "sweep-warmup", warm_blocks)]
    elif workload == "census":
        kinds = data["kinds"]
        ops = [_lattice_op(workdir, f"c-{kind}", rng.choice(kinds[kind])) for kind in sorted(kinds)]
        warm = [_lattice_op(workdir, "c-warmup", data["warmup"])]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return ops, warm


def block_key(block) -> tuple:
    """Identify a sweep block, given as spec JSON or as a `SweepSpec`."""
    get = block.get if isinstance(block, dict) else lambda key: getattr(block, key)
    return (
        tuple(get("lie_types")),
        int(get("max_word_length")),
        tuple(get("weight_alphabet")),
        get("sample_count") is not None,
    )


def sweep_block_names() -> dict[tuple, str]:
    """The `sweep` workload's block names, by `block_key`."""
    data = _load("sweep")
    return {block_key(block): block["name"] for block in data["blocks"] + [data["sampled"]]}


def failed_ops(op: Op, code: int | None, stdout: str) -> int:
    """How many of the op's `count` ops came out wrong; a raised exception
    arrives here as code None and fails them all."""
    if code is None:
        return op.count
    if op.kind == "check":
        return 0 if _check_ok(op.expect, code, stdout) else 1
    if op.kind == "verify":
        return _verify_failed(op, code, stdout)
    return 0 if _lattice_ok(op, code) else op.count


def _check_ok(expect: dict, code: int, stdout: str) -> bool:
    if code != expect["exit"]:
        return False
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    if expect["exit"] == 0:
        return report == {"untwisted": True}
    return report.get("untwisted") is False and all(
        report.get(key) == expect[key] for key in ("sigma", "k", "m")
    )


def _verify_failed(op: Op, code: int, stdout: str) -> int:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return op.count
    if code != 0 or any(report.get(key) != value for key, value in op.expect.items()):
        return op.count
    # Totals agree; each instance named in a counterexample is still wrong.
    return len({json.dumps(ce.get("instance"), sort_keys=True) for ce in report["counterexamples"]})


def _lattice_ok(op: Op, code: int) -> bool:
    if code != 0:
        return False
    try:
        data = op.out.read_bytes()
    except OSError:
        return False
    lines = data.splitlines()
    try:
        totals = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return False
    expect = op.expect
    return (
        totals == expect
        and len(lines) == expect["positive"] + expect["negative"] + 1
        and data.count(b'"rho": -1}') == expect["negative"]
    )
