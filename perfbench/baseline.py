"""Measure a baseline and write it to ``perfbench/BASELINE.json``.

Run from the repository root:

    python3 perfbench/baseline.py [--runs 10] [--workloads sweep,census]

For each workload it makes ``--runs`` untraced runs, each a fresh process
with its own seed, and one traced run.  It records each end-to-end metric's
quartiles and its spread, (q3 - q1) / median, with the traced per-layer
numbers, the processor count and the Python version.  It takes about half a
minute per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    detail = json.loads(lines[-2]) if trace == 0 else None
    return json.loads(lines[-1]), detail


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    path = HERE / "BASELINE.json"
    baseline = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"workloads": {}}
    baseline.update(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        run_seconds=bench["run_seconds"],
        runs=args.runs,
    )
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        details = []
        for seed in range(1, args.runs + 1):
            result, detail = one_run(workload, seed, bench["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} is not correct: {result}")
            details.append(detail)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, file=sys.stderr)
        summary = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            summary[name] = {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median}
            print(f"  {name}: median {median:.6g} spread {(q3 - q1) / median:.4f}", file=sys.stderr)
        traced, _ = one_run(workload, args.runs + 1, bench["run_seconds"], 1)
        baseline["workloads"][workload] = {
            "end_to_end": summary,
            "tail_percentile": statistics.median(d["latency_ms_tail_percentile"] for d in details),
            "tail_samples": statistics.median(d["latency_samples"] for d in details),
            "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
        }
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
