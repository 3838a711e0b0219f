"""Command-line front door.

Exit-code protocol: 0 = untwisted / success, 1 = twisted / counterexamples
found, 2 = malformed input or unsupported request, such as a census too
large to produce.  This makes the tool usable as a shell predicate.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager, nullcontext

from . import cartier, harness, walks
from .errors import MalformedInput, TwistedCubeError
from .rootdata import parse_lie_type
from .twistedcube import census_buckets
from .weightword import DominantWeight, TwistData, Word, derive_twist_data

EXIT_UNTWISTED = 0
EXIT_TWISTED = 1
EXIT_ERROR = 2


def _unique_keys(pairs):
    """One JSON object's dict; a key given twice is a ValueError, where
    json.load would keep its last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"the key {key!r} appears twice in one object")
        obj[key] = value
    return obj


# Built once: json.load with a hook would build a decoder on every call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)

# A key of c: two ASCII decimal integers joined by one comma.  int() alone
# would also take a sign, spaces, underscores and non-ASCII digits.
_C_KEY = re.compile(r"([0-9]+),([0-9]+)")


def _read_json(path: str, what: str):
    """The JSON value in the file at path; what names the file in the
    MalformedInput raised when it cannot be read or parsed, or when an
    object in it gives a key twice."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _DECODER.decode(fh.read())
    # ValueError: bad JSON, or an integer with too many digits to convert;
    # RecursionError: arrays or objects nested too deep for the decoder.
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedInput(f"cannot read {what} {path}: {exc}") from exc


def load_instance(path: str):
    """Read an instance file; returns (twist_data, context) where context is
    (lie_type, word, weight) for derived instances and None for raw ones.
    The constructors check the values; this checks only the JSON shape."""
    obj = _read_json(path, "instance file")
    if not isinstance(obj, dict):
        raise MalformedInput("instance file must hold a JSON object")
    # Any other key, a misspelt c or a field of the other schema, would be
    # ignored silently.
    if obj.keys() == {"type", "word", "weight"}:
        t = parse_lie_type(obj["type"])
        w, lam = Word(obj["word"]), DominantWeight(obj["weight"])
        return derive_twist_data(t, w, lam), (t, w, lam)
    if obj.keys() in ({"n", "ell"}, {"n", "c", "ell"}):
        raw_c = obj.get("c", {})
        if not isinstance(raw_c, dict):
            raise MalformedInput(f"c must be an object, got {raw_c!r}")
        c: dict[tuple[int, int], int] = {}
        for key, value in raw_c.items():
            try:
                j, k = map(int, _C_KEY.fullmatch(key).groups())
            # AttributeError: no match; ValueError: too many digits for int().
            except (AttributeError, ValueError) as exc:
                raise MalformedInput(f"bad c key {key!r}; expected 'j,k'") from exc
            if (j, k) in c:
                raise MalformedInput(f"c names the pair ({j}, {k}) twice")
            c[(j, k)] = value
        return TwistData(n=obj["n"], c=c, ell=obj["ell"]), None
    raise MalformedInput(
        "instance must be {type, word, weight}, or {n, ell} with an optional c"
    )


def _walk_json(t, lam, witness: walks.WalkWitness) -> dict:
    return {
        "kind": "hesitant_lambda_walk",
        "positions": list(witness.positions),
        "subword": list(witness.subword),
        "minimal": walks.is_minimal(t, witness, lam),
    }


def cmd_check(args) -> int:
    d, context = load_instance(args.instance)
    result = cartier.is_untwisted(d)
    report = result.to_json()
    if not result.untwisted and context is not None:
        t, w, lam = context
        witness = walks.find_hesitant_lambda_walk(t, w, lam)
        if witness is not None:
            report["walk"] = _walk_json(t, lam, witness)
    with _output(None) as out:
        print(json.dumps(report), file=out)
    return EXIT_UNTWISTED if result.untwisted else EXIT_TWISTED


@contextmanager
def _output(path: str | None):
    """The file at path opened for writing, or stdout when path is None.  An
    OSError from opening, writing or flushing it is malformed input (exit 2),
    not a crash, which would exit 1 and read as "twisted".  The flush is
    inside the try, so that a write error still held in stdout's buffer
    surfaces here rather than at interpreter exit."""
    to_stdout = path is None
    try:
        with nullcontext(sys.stdout) if to_stdout else open(path, "w", encoding="utf-8") as out:
            yield out
            out.flush()
    except OSError as exc:
        if to_stdout:
            _discard_stdout()
        raise MalformedInput(f"cannot write {'stdout' if to_stdout else path}: {exc}") from exc


def _discard_stdout() -> None:
    """Point stdout's file descriptor at os.devnull.  A failed flush keeps
    its bytes in stdout's buffer, and the interpreter's flush at exit would
    fail on them again and exit 120; this way that flush succeeds.  A
    stdout without a file descriptor, as when a caller captures it, is left
    as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def cmd_lattice(args) -> int:
    d, _ = load_instance(args.instance)
    # Byte for byte what json.dumps({"x": list(point), "rho": rho}) writes.
    # The text of each tail (x_3, ..., x_n) that level 2 files is formatted
    # once, with both line ends, and x_2 once per list that level 1 reads;
    # the lines of a value of x_1 are its text, '{"x": [' and x_1, joined
    # with the ends of its list.
    rest = ", %d" * (d.n - 2)
    mark = ", %d" if d.n > 1 else ""

    def leaf(tail):
        text = rest % tail
        return text + '], "rho": 1}\n', text + '], "rho": -1}\n'

    # n = 0 has no x_1: the value 0 of its one list is written as nothing.
    start = '{"x": [%d' if d.n else '{"x": [%.0s'
    (first, lists), positive, negative = census_buckets(d, lambda head: mark % head, leaf)
    totals = {"positive": positive, "negative": negative, "signed": positive - negative}
    with _output(args.out) as out:
        for v, ends in enumerate(lists, first):
            line = start % v
            out.write(line + line.join(ends))
        out.write(json.dumps(totals) + "\n")
    return EXIT_UNTWISTED


def _load_specs(path: str | None) -> list[harness.SweepSpec]:
    if path is None:
        return harness.default_specs()
    obj = _read_json(path, "sweep spec")
    blocks = obj if isinstance(obj, list) else [obj]
    return [harness.SweepSpec.from_json(b) for b in blocks]


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise MalformedInput(f"--jobs must be at least 1, got {args.jobs}")
    # More workers than CPUs only adds forks that may fail; the report is the
    # same for any number of workers.
    jobs = min(args.jobs, os.cpu_count() or 1)
    specs = _load_specs(args.spec)
    for spec in specs:
        harness.require_checkable(spec)
    merged = harness.SweepReport()
    # One memo of checked twist data for the whole run, so that a twist data
    # an earlier block checked is a hit in a later one; a pool ignores it.
    memo: dict = {}
    for spec in specs:
        merged.merge(harness.verify_equivalence(spec, jobs=jobs, memo=memo))
    with _output(None) as out:
        print(json.dumps(merged.to_json()), file=out)
    return EXIT_UNTWISTED if not merged.counterexamples else EXIT_TWISTED


def cmd_atlas(args) -> int:
    report = harness.atlas(_load_specs(args.spec))
    with _output(None) as out:
        print(json.dumps(report, sort_keys=True), file=out)
    return EXIT_UNTWISTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistedcubes",
        description="Decide untwistedness, enumerate signed lattice points, "
        "and run verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide the untwistedness criterion")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lattice", help="list the signed lattice-point census")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--out", help="write JSON lines here instead of stdout")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("verify", help="run the equivalence sweep")
    p.add_argument("--spec", help="sweep spec JSON (object or list); default sweep if omitted")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers, at most the CPU count; more than one gains only on large sweeps",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("atlas", help="tally avoiding words per type/weight/length")
    p.add_argument("--spec", help="sweep spec JSON (object or list); default sweep if omitted")
    p.set_defaults(func=cmd_atlas)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TwistedCubeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    # A census too large to hold is an unsupported request, not "twisted";
    # one too long to index a list raises OverflowError before allocating.
    except (MemoryError, OverflowError):
        print("error: the output did not fit in memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
