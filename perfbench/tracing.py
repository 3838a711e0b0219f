"""Traced mode: spans and counters around the library's public functions.

The wrappers live here, in the benchmark, not in the library.  Each one
replaces a function under every name a ``twistedcubes`` module holds for it,
because ``cli`` and ``harness`` import ``lattice_points`` and
``derive_twist_data`` by name.  Spans are kept in memory as
``(name, start, end, parent, op, attr)`` and written out when the run ends.
``compute_m`` and ``cartan_pairing`` are only counted: a span per call would
cost more than the call.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

from workloads import block_key

# span name -> the functions it covers, as (module, attribute)
SPANS = {
    "cli.load_instance": [("twistedcubes.cli", "load_instance")],
    "weightword.derive_twist_data": [("twistedcubes.weightword", "derive_twist_data")],
    "cartier.is_untwisted": [("twistedcubes.cartier", "is_untwisted")],
    "walks.find_hesitant_lambda_walk": [("twistedcubes.walks", "find_hesitant_lambda_walk")],
    "walks.is_minimal": [("twistedcubes.walks", "is_minimal")],
    "witness.walk_to_sigma": [
        ("twistedcubes.walks", "minimize"),
        ("twistedcubes.cartier", "witness_sigma_from_walk"),
    ],
    "witness.sigma_to_walk": [
        ("twistedcubes.cartier", "maximal_failing_index"),
        ("twistedcubes.cartier", "hesitant_walk_from_twist_witness"),
    ],
    "twistedcube.lattice_points": [("twistedcubes.twistedcube", "lattice_points")],
    "twistedcube.contains_PD": [("twistedcubes.twistedcube", "contains_PD")],
    "harness.verify_equivalence": [("twistedcubes.harness", "verify_equivalence")],
    "harness.worker": [
        ("twistedcubes.harness", "_worker"),
        ("twistedcubes.harness", "check_instance"),
    ],
}

COUNTERS = {
    "cartier.compute_m.calls": ("twistedcubes.cartier", "compute_m"),
    "rootdata.cartan_pairing.calls": ("twistedcubes.rootdata", "cartan_pairing"),
}

# What a span records beside its times: n for the criterion curve, the block
# for a sweep block, the point count for a census.
ATTRS = {
    "cartier.is_untwisted": lambda args, result: args[0].n,
    "harness.verify_equivalence": lambda args, result: block_key(args[0]),
    "twistedcube.lattice_points": lambda args, result: len(result.points),
}

CURVE_N = range(8, 17)
ROOT_SPAN = "cli.main"


class Tracer:
    """Collects spans and counts while its patches are installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.stack = [-1]
        self.op = -1
        self._undo: list[tuple] = []

    def span(self, name: str, op: int, fn, *args):
        """Run fn(*args) as a root span of op."""
        self.op = op
        return self._wrap(name, fn, None)(*args)

    def _wrap(self, name: str, fn, attr):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                value = None if attr is None or result is None else attr(args, result)
                spans[index] = (name, start, end, parent, self.op, value)

        return wrapped

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for name, targets in SPANS.items():
            for module, attr in targets:
                fn = getattr(sys.modules[module], attr)
                self._replace(fn, self._wrap(name, fn, ATTRS.get(name)))
        for name, (module, attr) in COUNTERS.items():
            fn = getattr(sys.modules[module], attr)
            self._replace(fn, self._count(name, fn))

    def _replace(self, fn, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "twistedcubes" and not modname.startswith("twistedcubes."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer(tracer: Tracer, scale: dict, passes: int, instances: int, block_names: dict) -> dict:
    """Per-layer metrics per traced pass: self-time totals in ms and call
    counts.  `scale` turns each op's times into reference-speed times, by op
    id; `instances` is the number of instances one pass checks."""
    spans = tracer.spans
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, op, _ in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1000.0 * scale[op]
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    curve: dict[int, list[float]] = {}
    block_ms = dict.fromkeys(block_names.values(), 0.0)
    points = 0
    for i, (name, start, end, _, op, attr) in enumerate(spans):
        total = (end - start) * 1000.0 * scale[op]
        self_ms[name] = self_ms.get(name, 0.0) + total - child_ms[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "cartier.is_untwisted":
            curve.setdefault(attr, []).append(total)
        elif name == "harness.verify_equivalence":
            block_ms[block_names[attr]] += total
        elif name == "twistedcube.lattice_points":
            points += attr or 0

    def ms(name: str) -> float:
        return self_ms.get(name, 0.0) / passes

    untwisted_calls = calls.get("cartier.is_untwisted", 0) / passes
    lattice_ms = ms("twistedcube.lattice_points")
    out = {
        "cartier.is_untwisted.ms": ms("cartier.is_untwisted"),
        "cartier.is_untwisted.calls": untwisted_calls,
        "cartier.is_untwisted.calls_per_instance": untwisted_calls / instances if instances else 0.0,
    }
    for n in CURVE_N:
        out[f"cartier.is_untwisted.ms.n{n:02d}"] = statistics.median(curve[n]) if n in curve else 0.0
    out.update(
        {
            "cartier.compute_m.calls": tracer.counts["cartier.compute_m.calls"] / passes,
            "weightword.derive_twist_data.ms": ms("weightword.derive_twist_data"),
            "rootdata.cartan_pairing.calls": tracer.counts["rootdata.cartan_pairing.calls"] / passes,
            "walks.find_hesitant_lambda_walk.ms": ms("walks.find_hesitant_lambda_walk"),
            "walks.is_minimal.ms": ms("walks.is_minimal"),
            "witness.walk_to_sigma.ms": ms("witness.walk_to_sigma"),
            "witness.sigma_to_walk.ms": ms("witness.sigma_to_walk"),
            "twistedcube.lattice_points.ms": lattice_ms,
            "twistedcube.lattice_points.points": points / passes,
            "twistedcube.lattice_points.us_per_point": lattice_ms * 1000.0 * passes / points if points else 0.0,
            "twistedcube.contains_PD.ms": ms("twistedcube.contains_PD"),
            "cli.load_instance.ms": ms("cli.load_instance"),
            "cli.main.self_ms": ms(ROOT_SPAN),
            "harness.self_ms": ms("harness.verify_equivalence") + ms("harness.worker"),
        }
    )
    for block, total in block_ms.items():
        out[f"harness.verify_equivalence.block_ms.{block}"] = total / passes
    return out


def unit(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith((".calls", ".points")):
        return "count"
    if name.endswith(".us_per_point"):
        return "us"
    if name.endswith(("_ratio", "_rate", ".calls_per_instance")):
        return "ratio"
    return "ms"
