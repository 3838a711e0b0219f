"""The twistedcubes benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload check-twisted --seed 1 --seconds 20 --trace 0

It imports the library from ``src/`` of the checkout and drives it through
``twistedcubes.cli.main([...])`` in this process, with stdout captured, one
call after another (a closed loop with one client).  A run builds the seeded
op list, then repeats whole passes over it until ``--seconds`` have gone by.
Every call's output is checked against the committed expected output; a
wrong output, a wrong exit code or a raised exception counts as failed ops
and never stops the run.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the run alternates an untraced and a traced pass and
reports the per-layer ones (see ``tracing.py``), per traced pass.  The line
before it gives the tail percentile, the sample count and the unscaled
throughput.  The spans of a traced run are written to
``.bench_build/perfbench/trace-<workload>.jsonl``.

Every reported time is scaled to reference speed by ``gauge.Gauge``, which
times a fixed loop between ops: the speed of this kind of machine drifts too
much from minute to minute for raw times to compare across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from gauge import Gauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7


class Runner:
    """Runs ops through the CLI, checks them and records when each ran."""

    def __init__(self, cli, gauge: Gauge, gauge_inside: bool = True):
        self.cli = cli
        self.gauge = gauge
        self.gauge_inside = gauge_inside
        self.calls: list[tuple[int, float, float, float]] = []  # (op id, start, end, busy s)
        self.attempted = 0
        self.failed = 0

    def call(self, op: workloads.Op, op_id: int, tracer: tracing.Tracer | None = None) -> None:
        stdout = io.StringIO()
        stolen = self.gauge.stolen
        gauged = self.gauge.during() if self.gauge_inside else contextlib.nullcontext()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), gauged:
            start = perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(op.argv)
                else:
                    code = tracer.span(tracing.ROOT_SPAN, op_id, self.cli.main, op.argv)
            except (Exception, SystemExit):  # noqa: BLE001 - a crash is a failed op, not a stop
                code = None
            end = perf_counter()
        if op.kind == "lattice":
            # lattice_points leaves its point list in a reference cycle (a
            # recursive closure).  A CLI process would exit instead; collect
            # it so that one call's garbage does not add to the next call's
            # peak memory.
            gc.collect()
        self.calls.append((op_id, start, end, end - start - (self.gauge.stolen - stolen)))
        self.attempted += op.count
        self.failed += workloads.failed_ops(op, code, stdout.getvalue())

    def run_pass(self, ops, first_id: int = 0, tracer=None) -> None:
        for i, op in enumerate(ops):
            self.gauge.sample_if_due()
            self.call(op, first_id + i, tracer)
        self.gauge.sample()


def import_cli():
    """Import the library fresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "twistedcubes" or m.startswith("twistedcubes.")]:
        del sys.modules[name]
    import twistedcubes.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"twistedcubes imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path, gauge: Gauge):
    """Import, input generation and warm-up: what `setup_s` measures."""
    cli = import_cli()
    ops, warm = workloads.build(workload, seed, workdir)
    warm_runner = Runner(cli, gauge)
    warm_runner.run_pass(warm)
    return cli, ops, warm, warm_runner.failed


def tail(typical_ms: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, samples).  Below 20 samples that percentile would
    not be a tail, and the slowest sample stands in for it."""
    ordered = sorted(typical_ms)
    count = len(ordered)
    rank = count - 10 if count >= 20 else count  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / count, count


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object.  `tiny` measures one
    pass over the warm-up ops only, for the smoke check."""
    gauge = Gauge()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        gauge.sample()
        start = perf_counter()
        cli, ops, warm, warm_failed = setup(workload, seed, workdir, gauge)
        end = perf_counter()
        gauge.sample()
        setup_s.append((end - start) * gauge.scale(start, end))
    if tiny:
        ops = warm

    # Untraced passes take op ids 0, 1, ... pass after pass; in a traced run
    # every second pass is traced.
    # Spans would count the gauge's samples inside a call as library time,
    # so a traced run gauges its calls, traced or not, only from outside.
    runner = Runner(cli, gauge, gauge_inside=not trace)
    tracer = tracing.Tracer() if trace else None
    traced_ids: list[int] = []
    passes = 0
    start = perf_counter()
    while True:
        runner.run_pass(ops, len(runner.calls))
        if tracer is not None:
            traced_ids.append(len(runner.calls))
            tracer.install()
            try:
                runner.run_pass(ops, len(runner.calls), tracer)
            finally:
                tracer.uninstall()
        passes += 1
        if tiny or perf_counter() - start >= seconds:
            break

    failed = runner.failed + warm_failed
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed}
    # Each call's time at reference speed, by op id.
    scale = {op_id: gauge.scale(start, end) for op_id, start, end, _ in runner.calls}
    scaled = {op_id: busy * 1000.0 * scale[op_id] for op_id, _, _, busy in runner.calls}
    traced = {first + i for first in traced_ids for i in range(len(ops))}
    if tracer is None:
        # An op's typical latency is the median over the passes of its calls.
        per_op = [[] for _ in ops]
        for op_id, ms in scaled.items():
            per_op[op_id % len(ops)].append(ms)
        typical_ms = [statistics.median(samples) for samples in per_op]
        tail_ms, tail_pct, samples = tail(typical_ms)
        raw_s = sum(busy for _, _, _, busy in runner.calls)
        print(json.dumps({
            "latency_ms_tail_percentile": tail_pct,
            "latency_samples": samples,
            "passes": passes,
            "raw_ops_per_s": runner.attempted / raw_s,
            "reference_loop_ms": statistics.median(gauge.ms),
        }))
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "ops_per_s": (sum(op.count for op in ops) * 1000.0 / sum(typical_ms), "1/s"),
            "latency_ms_p50": (statistics.median(typical_ms), "ms"),
            "latency_ms_tail": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        instances = sum(op.count for op in ops if op.kind != "lattice")
        layers = tracing.per_layer(tracer, scale, passes, instances, workloads.sweep_block_names())
        traced_ms = sum(ms for op_id, ms in scaled.items() if op_id in traced)
        untraced_ms = sum(ms for op_id, ms in scaled.items() if op_id not in traced)
        layers["trace.overhead_ratio"] = traced_ms / untraced_ms
        layers["error_rate"] = failed / runner.attempted
        metrics = {name: (value, tracing.unit(name)) for name, value in layers.items()}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload}.jsonl")
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the twistedcubes CLI and library.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twistedcubes" / "__init__.py").is_file():
        print(f"error: no twistedcubes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
