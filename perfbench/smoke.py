"""Smoke check of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke.py

It checks that a tiny run of every workload, untraced and traced, is correct
and emits exactly the metrics ``BENCHMARK.json`` names, with their units; and
that the output checker rejects a deliberately corrupted expected output of
every kind of op.  It prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads
from gauge import Gauge

CORRUPTIONS = {
    # op kind -> how to break an expected output of that kind
    "check": lambda expect: expect.update(k=expect["k"] + 1) if expect["exit"] else expect.update(exit=1),
    "verify": lambda expect: expect.update(twisted_count=expect["twisted_count"] + 1),
    "lattice": lambda expect: expect.update(negative=expect["negative"] + 1),
}


def check_metrics(bench: dict, workdir: Path) -> list[str]:
    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[section]}
        for workload in workloads.WORKLOADS:
            result = run.run(workload, 1, 0, trace, workdir, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if got != wanted:
                problems.append(f"{label}: metrics differ from BENCHMARK.json {section}: {sorted(set(got) ^ set(wanted))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: tiny run not correct: {json.dumps(result)[:200]}")
            print(f"{label}: {len(got)} metrics, attempted {result['attempted']}", file=sys.stderr)
    return problems


def check_rejects_corruption(workdir: Path) -> list[str]:
    problems = []
    cli = run.import_cli()
    for workload in workloads.WORKLOADS:
        op = workloads.build(workload, 1, workdir)[1][0]
        for corrupt in (False, True):
            bad = copy.deepcopy(op)
            if corrupt:
                CORRUPTIONS[bad.kind](bad.expect)
            runner = run.Runner(cli, Gauge())
            runner.call(bad, 0)
            expected = bad.count if corrupt else 0
            if runner.failed != expected:
                problems.append(
                    f"{workload}: {'corrupted' if corrupt else 'intact'} expected output gave "
                    f"{runner.failed} failed ops, want {expected}"
                )
        print(f"{workload}: checker rejects a corrupted {op.kind} output", file=sys.stderr)
    return problems


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        problems = check_metrics(bench, Path(tmp)) + check_rejects_corruption(Path(tmp))
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check passed" if not problems else f"smoke check failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
