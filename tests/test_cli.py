import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twistedcubes
from twistedcubes import cartier, cli, harness, twistedcube, walks
from twistedcubes.cli import EXIT_ERROR, EXIT_TWISTED, EXIT_UNTWISTED, load_instance, main
from twistedcubes.errors import DimensionMismatch, MalformedInput, TwistedCubeError
from twistedcubes.rootdata import parse_lie_type
from twistedcubes.weightword import DominantWeight, Word, derive_twist_data

from oracles import (
    RUNNING_EXAMPLE_JSON,
    check_untwisted_instances,
    record_calls,
    workload_data,
    write_input,
)


@pytest.fixture
def derived_twisted(tmp_path):
    return write_input(tmp_path / "twisted.json", {"type": "A2", "word": [1, 2, 1], "weight": [2, 1]})


@pytest.fixture
def derived_untwisted(tmp_path):
    inst = {"type": "A3", "word": [1, 2, 3, 1, 2, 1], "weight": [0, 0, 3]}
    return write_input(tmp_path / "untwisted.json", inst)


@pytest.fixture
def raw_n2(tmp_path):
    return write_input(tmp_path / "raw.json", RUNNING_EXAMPLE_JSON)


def test_check_untwisted_exit_and_json(derived_untwisted, capsys):
    assert main(["check", "--instance", derived_untwisted]) == EXIT_UNTWISTED
    assert json.loads(capsys.readouterr().out) == {"untwisted": True}


def test_check_twisted_includes_walk(derived_twisted, capsys):
    assert main(["check", "--instance", derived_twisted]) == EXIT_TWISTED
    report = json.loads(capsys.readouterr().out)
    assert report["untwisted"] is False
    assert report["sigma"] == "-+-"
    assert report["k"] == 1
    assert report["m"] == [-2, 0, 2]
    assert report["walk"]["positions"] == [1, 3]
    assert report["walk"]["subword"] == [1, 1]
    assert report["walk"]["minimal"] is True


def test_check_raw_instance_has_no_walk(raw_n2, capsys):
    assert main(["check", "--instance", raw_n2]) == EXIT_TWISTED
    report = json.loads(capsys.readouterr().out)
    assert report["untwisted"] is False
    assert "walk" not in report


def test_lattice_stream(raw_n2, capsys):
    assert main(["lattice", "--instance", raw_n2]) == EXIT_UNTWISTED
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12  # 11 points + summary
    assert json.loads(lines[-1]) == {"positive": 10, "negative": 1, "signed": 9}
    assert json.loads(lines[0]) == {"x": [-1, 5], "rho": -1}


def test_lattice_out_file(raw_n2, tmp_path):
    out = tmp_path / "census.jsonl"
    assert main(["lattice", "--instance", raw_n2, "--out", str(out)]) == EXIT_UNTWISTED
    assert len(out.read_text().strip().splitlines()) == 12


def test_lattice_and_check_take_entries_too_large_for_floats(tmp_path):
    # The census is empty, but the bound at x_2 = -1 is 10**400, which no
    # float holds; check and lattice read it as an int.
    path = write_input(tmp_path / "huge.json", {"n": 2, "c": {"1,2": 10**400}, "ell": [0, -1]})
    assert main(["lattice", "--instance", path]) == EXIT_UNTWISTED
    assert main(["check", "--instance", path]) == EXIT_TWISTED


def test_a_census_that_does_not_fit_in_memory_exits_2(raw_n2, tmp_path, monkeypatch, capsys):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "census_buckets", out_of_memory)
    out = tmp_path / "census.jsonl"
    assert main(["lattice", "--instance", raw_n2, "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: the output did not fit in memory\n"
    assert not out.exists()


# Runs the CLI on its arguments under a 512 MB address-space limit of its
# own, and prints its peak RSS in KB.
_UNDER_A_MEMORY_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from twistedcubes.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


@pytest.mark.parametrize("command", ["lattice"])
def test_a_census_too_long_to_list_exits_2(command, tmp_path, capsys):
    # Level 1 is two runs of about 10**30 values, too many to index a list:
    # an OverflowError, raised before anything is allocated.
    path = write_input(tmp_path / "long.json", {"n": 2, "c": {"1,2": 1}, "ell": [10**30, 1]})
    out = tmp_path / "out"
    assert main([command, "--instance", path, "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: the output did not fit in memory\n"
    assert not out.exists()
    # Level 1 is one run of 10**30 + 1 values.  A list built value by value
    # would grow until memory ran out, so the case runs in a child process
    # with a memory limit, and must fail there before it allocates.
    path = write_input(tmp_path / "one_run.json", {"n": 2, "c": {}, "ell": [10**30, 0]})
    env = dict(os.environ, PYTHONPATH=str(Path(twistedcubes.__file__).parents[1]))
    argv = [command, "--instance", path, "--out", str(out)]
    child = subprocess.run(
        [sys.executable, "-c", _UNDER_A_MEMORY_LIMIT, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == EXIT_ERROR
    assert child.stderr == "error: the output did not fit in memory\n"
    assert int(child.stdout) < 100 * 1024
    assert not out.exists()


@pytest.mark.parametrize("command", ["lattice"])
@pytest.mark.parametrize("where", ["directory", "missing parent", pytest.param("", id="empty")])
def test_unwritable_out_exits_2(raw_n2, tmp_path, command, where, capsys):
    # Exit 1 would read as "twisted"; an output that cannot be written is
    # malformed input.  An empty path is a path like any other, not stdout.
    out = {"directory": tmp_path, "missing parent": tmp_path / "missing" / "out", "": ""}[where]
    assert main([command, "--instance", raw_n2, "--out", str(out)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["check", "verify", "atlas", "lattice"])
def test_unwritable_stdout_exits_2(derived_untwisted, tmp_path, command):
    # A stdout that cannot be written must not end in a traceback with exit
    # 1, which reads as "twisted", nor in exit 120 from the interpreter's
    # flush of the failed bytes at exit.  It takes a real process with a
    # buffered stdout: the error shows only when that buffer is flushed, so
    # PYTHONUNBUFFERED is dropped from the caller's environment.
    if command in ("verify", "atlas"):
        spec = {"lie_types": ["A1"], "max_word_length": 1, "weight_alphabet": [1]}
        argv = [command, "--spec", write_input(tmp_path / "spec.json", spec)]
    else:
        argv = [command, "--instance", derived_untwisted]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(twistedcubes.__file__).parents[1])
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "twistedcubes.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr.startswith("error: cannot write stdout")
    assert proc.stderr.count("\n") == 1


def test_lattice_keeps_the_per_value_check(raw_n2, tmp_path, monkeypatch, capsys):
    # The bucket writer checks every chosen value, as lattice_points does.
    monkeypatch.setattr(twistedcube, "_coordinate_ok", lambda a, v: False)
    out = tmp_path / "census.jsonl"
    assert main(["lattice", "--instance", raw_n2, "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: an enumerated lattice point lies outside the cube\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "raw",
    [RUNNING_EXAMPLE_JSON, {"n": 2, "c": {"1,2": 3}, "ell": [-3, 4]}],
    ids=["ex1", "negative runs"],
)
@pytest.mark.parametrize(
    "reject",
    # The last value of a run 0..a, and the first of a run a+1..-1; each run
    # is checked at its two ends only.
    [lambda a, v: v == a >= 0, lambda a, v: v == a + 1 < 0],
    ids=["last of 0..a", "first of a+1..-1"],
)
def test_lattice_checks_both_ends_of_each_run(raw, reject, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(twistedcube, "_coordinate_ok", lambda a, v: not reject(a, v))
    inst, out = write_input(tmp_path / "inst.json", raw), tmp_path / "census.jsonl"
    assert main(["lattice", "--instance", inst, "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: an enumerated lattice point lies outside the cube\n"
    assert not out.exists()


# The sha256 of each `lattice --out` file of the census workload, as the
# writer made it when every line was formatted from its whole point.
CENSUS_SHA256 = {
    "warmup": "cb7906eb94d0ba9ee2cf9e30d999254fa4e3a6064ee9b6488ee165fd1c7af237",
    "a2-0": "04a8dc9780612de3cfe690522f1f5cfeee9a89d1f9119dd3339eb069c44c17a7",
    "a2-1": "04a8dc9780612de3cfe690522f1f5cfeee9a89d1f9119dd3339eb069c44c17a7",
    "b2-0": "c104d31b0437b401c14fd9e4303798fcd26e1d616997c649dbaeaa1db6370a9b",
    "b2-1": "aea911095434f4aaf31e8f860beca908892c1400c470fa44057961a7f72f3eae",
    "b2-2": "1de5d63fc177498e12c87aa0eb9c8f520d3a1b8c5330ae703874e0eaa289513b",
    "running-0": "ea5fe535e2cffb445be67fb821f68c5659d259799f3f3f24f2323a134b3e16be",
    "running-1": "1839e18154132d169352247a3d32a8f56e05c3666c9ffcf643fc201af92f44ae",
    "running-2": "6b45ef39c8895d7e0cc5d4db490fb670eda0d87a4600862f25ac15771058c077",
    "running-3": "496b548a9af953595e24114a80aa72c6856806a930321c8dacbf0849f4821c06",
    "running-4": "1392c468ebe4e7da42ecbef89f9f26bdcd32db16cb38345ec60c760236ea7622",
    "running-5": "f97c70f4a12e6feddffe7f18024bb7bbbb0cd8ff0173a34128702c48f742ae41",
    "running-6": "b67b71ca34454caf23e22b90a9616ce3d7c429abd488a0b9df9b0d12fbd33ba9",
    "running-7": "d6bd03c87f447ee1d2cf4d0cf7e2146d2d27889b9bfbb4f9a92f53d20fe18434",
}


def _census_instances():
    data = workload_data("census")
    yield pytest.param(data["warmup"], CENSUS_SHA256["warmup"], id="warmup")
    for kind, instances in sorted(data["kinds"].items()):
        for i, inst in enumerate(instances):
            yield pytest.param(inst, CENSUS_SHA256[f"{kind}-{i}"], id=f"{kind}-{i}")


@pytest.mark.parametrize("inst, sha256", _census_instances())
def test_lattice_meets_the_census_workload_expectations(inst, sha256, tmp_path):
    # The benchmark's census workload checks each `lattice --out` this way
    # against the expected totals committed with its data; the digest pins
    # every byte.
    expect = inst["expect"]
    path, out = write_input(tmp_path / "inst.json", inst), tmp_path / "census.jsonl"
    assert main(["lattice", "--instance", path, "--out", str(out)]) == EXIT_UNTWISTED
    data = out.read_bytes()
    lines = data.splitlines()
    assert json.loads(lines[-1]) == expect
    assert len(lines) == expect["positive"] + expect["negative"] + 1
    assert data.count(b'"rho": -1}') == expect["negative"]
    assert hashlib.sha256(data).hexdigest() == sha256


@pytest.mark.parametrize("seed", [1, 2])
def test_verify_meets_the_sweep_workload_expectations(seed, tmp_path, capsys):
    # The benchmark's sweep workload runs one `verify --spec` over its blocks
    # and its sampled block at a drawn seed, and checks the totals against
    # the expected counts committed with its data.
    data = workload_data("sweep")
    blocks = [{key: value for key, value in block.items() if key != "expect"} for block in data["blocks"]]
    sampled = {key: value for key, value in data["sampled"].items() if key != "expect_by_seed"}
    expect = [block["expect"] for block in data["blocks"]] + [data["sampled"]["expect_by_seed"][str(seed)]]
    spec = write_input(tmp_path / "spec.json", blocks + [dict(sampled, seed=seed)])
    assert main(["verify", "--spec", spec]) == EXIT_UNTWISTED
    report = json.loads(capsys.readouterr().out)
    for key in ("instances", "untwisted_count", "twisted_count"):
        assert report[key] == sum(block[key] for block in expect), key
    assert report["counterexamples"] == []


@pytest.mark.parametrize(
    "raw, first, totals",
    [
        ({"n": 0, "ell": []}, {"x": [], "rho": 1}, {"positive": 1, "negative": 0, "signed": 1}),
        ({"n": 1, "ell": [-12]}, {"x": [-11], "rho": -1}, {"positive": 0, "negative": 11, "signed": -11}),
        # Both signs, and negative and multi-digit coordinates.
        (
            {"n": 3, "c": {"1,2": 3, "1,3": -2, "2,3": -4}, "ell": [2, -3, 4]},
            {"x": [-28, 13, 4], "rho": -1},
            {"positive": 63, "negative": 238, "signed": -175},
        ),
    ],
)
def test_lattice_line_bytes_at_the_edges(tmp_path, raw, first, totals):
    inst, out = write_input(tmp_path / "inst.json", raw), tmp_path / "census.jsonl"
    assert main(["lattice", "--instance", inst, "--out", str(out)]) == EXIT_UNTWISTED
    lines = out.read_text(encoding="utf-8").splitlines()
    parsed = [json.loads(line) for line in lines]
    assert lines == [json.dumps(obj) for obj in parsed]
    assert parsed[0] == first
    xs = [obj["x"] for obj in parsed[:-1]]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert parsed[-1] == totals
    rhos = [obj["rho"] for obj in parsed[:-1]]
    assert (rhos.count(1), rhos.count(-1)) == (totals["positive"], totals["negative"])


def test_verify_with_spec_file(tmp_path, capsys):
    spec = write_input(tmp_path / "spec.json", {"lie_types": ["A2"], "max_word_length": 3})
    assert main(["verify", "--spec", spec]) == EXIT_UNTWISTED
    report = json.loads(capsys.readouterr().out)
    assert report["instances"] == 60  # (1 + 2 + 4 + 8) * 4
    assert report["counterexamples"] == []


def test_verify_reports_a_counterexample(tmp_path, monkeypatch, capsys):
    spec = {"lie_types": ["A1"], "max_word_length": 2, "weight_alphabet": [1]}
    argv = ["verify", "--spec", write_input(tmp_path / "spec.json", spec)]
    assert main(argv) == EXIT_UNTWISTED
    report = json.loads(capsys.readouterr().out)
    assert (report["instances"], report["untwisted_count"], report["twisted_count"]) == (3, 2, 1)
    assert report["counterexamples"] == []
    # With the detector blinded, the twisted word (1, 1) is a verdict mismatch.
    monkeypatch.setattr(walks, "hesitant_walk", lambda table, letters, coefficients: None)
    assert main(argv) == EXIT_TWISTED
    report = json.loads(capsys.readouterr().out)
    assert (report["instances"], report["untwisted_count"], report["twisted_count"]) == (3, 2, 1)
    assert report["counterexamples"] == [
        {
            "instance": {"type": "A1", "word": [1, 1], "weight": [1]},
            "problem": "verdict mismatch: criterion says untwisted=False, detector witness=None",
        }
    ]


def test_atlas_with_spec_file(tmp_path, capsys):
    spec = write_input(tmp_path / "spec.json", [{"lie_types": ["A1"], "max_word_length": 2}])
    assert main(["atlas", "--spec", spec]) == EXIT_UNTWISTED
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["A1"]["1"]["2"] == {"avoiding": 0, "total": 1}


def test_atlas_merges_blocks_that_share_a_type(tmp_path, capsys):
    spec = write_input(
        tmp_path / "spec.json",
        [
            {"lie_types": ["A1", "A2"], "max_word_length": 2, "weight_alphabet": [0, 1]},
            {"lie_types": ["A2"], "max_word_length": 3, "weight_alphabet": [1]},
        ],
    )
    assert main(["atlas", "--spec", spec]) == EXIT_UNTWISTED
    report = json.loads(capsys.readouterr().out)
    tallies = [
        slot
        for per_weight in report["counts"].values()
        for per_length in per_weight.values()
        for slot in per_length.values()
    ]
    assert sum(slot["total"] for slot in tallies) == report["instances"]
    # A2 at weight (1, 1): four words of length 2 in each block.
    assert report["counts"]["A2"]["1,1"]["2"] == {"avoiding": 4, "total": 8}
    assert report["counts"]["A2"]["1,1"]["3"]["total"] == 8
    assert report["counts"]["A2"]["0,0"]["2"]["total"] == 4


def test_only_the_criterion_is_capped(tmp_path, capsys):
    # n = 21 is past the criterion's 2**n cap, but the census of the zero
    # cube is one point, so lattice takes it.
    path = write_input(tmp_path / "zero21.json", {"n": 21, "c": {}, "ell": [0] * 21})
    assert main(["lattice", "--instance", path]) == EXIT_UNTWISTED
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in lines] == [
        {"x": [0] * 21, "rho": 1},
        {"positive": 1, "negative": 0, "signed": 1},
    ]
    assert main(["check", "--instance", path]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: n = 21 exceeds cap 20\n"


def _check_workload_instances():
    """The instances of the benchmark's check workloads that the compute_m
    pin runs: every fixed twisted one, the first of each twisted stratum,
    and every untwisted one."""
    twisted = workload_data("check-twisted")
    yield from twisted["fixed_tail"]
    yield from (stratum[0] for stratum in twisted["strata"])
    yield from check_untwisted_instances()


def test_check_computes_m_once_when_twisted_and_never_when_untwisted(tmp_path, monkeypatch, capsys):
    # Counted work: the criterion computes the Cartier vector of its failing
    # sign vector alone, and check adds no call of its own.
    calls = record_calls(monkeypatch, cartier, "compute_m")
    exits = []
    for inst in _check_workload_instances():
        path = write_input(tmp_path / "inst.json", inst)
        start = len(calls)
        code = main(["check", "--instance", path])
        assert code == inst["expect"]["exit"]
        assert len(calls) - start == (code == EXIT_TWISTED)
        exits.append(code)
        # Every twisted derived instance holds a hesitant lambda-walk, and
        # the report carries it.
        report = json.loads(capsys.readouterr().out)
        assert ("walk" in report) == (code == EXIT_TWISTED)
        if "walk" in report:
            t = parse_lie_type(inst["type"])
            lam = DominantWeight(tuple(inst["weight"]))
            assert walks.is_hesitant_lambda_walk(t, Word(tuple(report["walk"]["subword"])), lam)
    assert (exits.count(EXIT_TWISTED), exits.count(EXIT_UNTWISTED)) == (400, 63)


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        json.dumps([1, 2, 3]),
        json.dumps({"type": "A2", "word": [1]}),
        json.dumps({"type": "A2", "word": [1], "weight": [1, 0], "n": 1}),
        # A field of the other schema, which would be ignored silently.
        json.dumps({"type": "A2", "word": [1, 2], "weight": [1, 0], "c": {"1,2": 5}}),
        json.dumps({"n": 1, "ell": [0], "word": [1]}),
        # An unknown key, such as a misspelt c, would be ignored silently: this
        # one would read as c = {} and exit 0, where c makes it exit 1.
        json.dumps({"n": 2, "C": {"1,2": 1}, "ell": [3, 5]}),
        json.dumps({"type": "A2", "word": [1, 2], "weight": [1, 0], "name": "x"}),
        json.dumps({"n": 2, "c": {"1;2": 1}, "ell": [0, 0]}),
        # int() would read the first key as (10, 11) and the others as (1, 2).
        *(
            json.dumps({"n": 11, "c": {key: 1}, "ell": [3] * 11})
            for key in ["1_0,1_1", " 1 , 2", "+1,2", "1,2 ", "\u0661,2"]
        ),
        # Two keys for one pair: neither value may win silently.
        json.dumps({"n": 2, "c": {"1,2": 1, "01,2": 5}, "ell": [0, 0]}),
        # A key given twice in one object: json.load alone keeps the last.
        '{"n": 2, "c": {"1,2": 1, "1,2": 5}, "ell": [3, 5]}',
        '{"n": 1, "c": {}, "ell": [3], "ell": [-4]}',
        '{"type": "A2", "word": [1, 2], "weight": [1, 0], "weight": [0, 1]}',
        json.dumps({"type": "Z9", "word": [], "weight": []}),
        json.dumps({"type": "A2", "word": [3], "weight": [0, 0]}),
        # A letter <= 0 must not wrap round to the end of the Cartan table.
        json.dumps({"type": "A2", "word": [0], "weight": [0, 0]}),
        json.dumps({"type": "A2", "word": [-1], "weight": [0, 0]}),
        json.dumps({"type": "A2", "word": [1], "weight": [-1, 0]}),
        # Non-integers must be rejected, never crash (exit 1) or be coerced.
        json.dumps({"type": "A2", "word": "12", "weight": [1, 0]}),
        json.dumps({"type": "A2", "word": [1.5, 2], "weight": [1, 0]}),
        json.dumps({"type": "A2", "word": [1, 2], "weight": [1, "0"]}),
        json.dumps({"n": 2, "c": {"1,2": "x"}, "ell": [3, 5]}),
        json.dumps({"n": 2, "c": {"1,2": 1}, "ell": [3.5, 5]}),
        json.dumps({"n": True, "c": {}, "ell": [3]}),
        json.dumps({"n": 2, "c": [1], "ell": [3, 5]}),
        json.dumps({"type": 2, "word": [1], "weight": [1, 0]}),
        # Too many digits for int(): a ValueError that is not a JSONDecodeError.
        '{"n": ' + "1" * 5000 + ', "c": {}, "ell": []}',
        json.dumps({"type": "A" + "1" * 5000, "word": [], "weight": []}),
        # Nested too deep for the decoder: a RecursionError, not a ValueError.
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=lambda payload: payload if len(payload) < 80 else payload[:40] + "...",
)
def test_malformed_inputs_exit_2(tmp_path, payload, capsys):
    path = tmp_path / "inst.json"
    path.write_text(payload)
    assert main(["check", "--instance", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def _whole_walk(w: Word) -> walks.WalkWitness:
    return walks.WalkWitness.from_word(w, range(1, len(w) + 1))


# Every entry that reads a (type, word, weight) triple, with the word taken
# whole as a walk by the two that read a walk, and check_instance reading it
# as the type's name and the two tuples.
_TRIPLE_ENTRIES = {
    "derive_twist_data": derive_twist_data,
    "check_instance": lambda t, w, lam: harness.check_instance((str(t), w.entries, lam.coefficients)),
    "is_lambda_walk": walks.is_lambda_walk,
    "is_hesitant_lambda_walk": walks.is_hesitant_lambda_walk,
    "find_hesitant_lambda_walk": walks.find_hesitant_lambda_walk,
    "is_minimal": lambda t, w, lam: walks.is_minimal(t, _whole_walk(w), lam),
    "minimize": lambda t, w, lam: walks.minimize(t, _whole_walk(w), lam),
}


@pytest.mark.parametrize(
    "word, weight, message",
    [
        ((1, 1, 2), (0, 1, 0), "weight has rank 3, expected 2"),
        ((1, 1, 3), (0, 1), "word letter 3 outside [1, 2] for A2"),
        # The weight's rank is checked first.
        ((1, 1, 3), (0, 1, 0), "weight has rank 3, expected 2"),
    ],
    ids=["rank", "letter", "both"],
)
def test_each_fault_of_a_triple_raises_one_error_at_every_entry(word, weight, message, tmp_path, capsys):
    t, w, lam = parse_lie_type("A2"), Word(word), DominantWeight(weight)
    raised = {}
    for name, entry in _TRIPLE_ENTRIES.items():
        with pytest.raises(TwistedCubeError) as info:
            entry(t, w, lam)
        raised[name] = (type(info.value), str(info.value))
    assert raised == dict.fromkeys(_TRIPLE_ENTRIES, (DimensionMismatch, message))
    path = write_input(tmp_path / "inst.json", {"type": "A2", "word": word, "weight": weight})
    assert main(["check", "--instance", path]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_benchmark_and_script_instance_holds_only_instance_keys():
    # load_instance rejects any other key, and the benchmark leaves out only
    # "expect" from the files it writes.
    twisted, census = workload_data("check-twisted"), workload_data("census")
    instances = [
        *twisted["fixed_tail"],
        *(inst for stratum in twisted["strata"] for inst in stratum),
        *check_untwisted_instances(),
        census["warmup"],
        *(inst for kind in census["kinds"].values() for inst in kind),
        RUNNING_EXAMPLE_JSON,
    ]
    keys = {frozenset(inst.keys() - {"expect"}) for inst in instances}
    assert keys <= {frozenset({"type", "word", "weight"}), frozenset({"n", "ell"}), frozenset({"n", "c", "ell"})}


@pytest.mark.parametrize(
    "block",
    [
        {"lie_types": "A1", "max_word_length": 1},
        {"lie_types": [3], "max_word_length": 1},
        {"lie_types": ["A1"], "max_word_length": 1, "weight_alphabet": ["x"]},
        {"lie_types": ["A1"], "max_word_length": 1, "weight_alphabet": [0, -1]},
        {"lie_types": ["A1"], "max_word_length": 1.7},
        {"lie_types": ["A1"], "max_word_length": -1},
        {"lie_types": ["A1"], "max_word_length": 1, "sample_count": "3"},
        {"lie_types": ["A1"], "max_word_length": 1, "seed": 1.5, "sample_count": 2},
        # Sampling draws from both lists, so neither may be empty.
        {"lie_types": [], "max_word_length": 1, "sample_count": 2},
        {"lie_types": ["A1"], "max_word_length": 1, "weight_alphabet": [], "sample_count": 2},
        [{"lie_types": ["A1"], "max_word_length": 1}, 3],
        '{"lie_types": ["A1"], "max_word_length": ' + "9" * 5000 + "}",
        '{"lie_types": ["A1"], "max_word_length": 1, "max_word_length": 2}',
        # A type or a weight value given twice would count its instances twice.
        {"lie_types": ["A1", " A1"], "max_word_length": 2, "weight_alphabet": [1]},
        {"lie_types": ["A1"], "max_word_length": 2, "weight_alphabet": [1, 1]},
        # A seed without a sample count would be ignored silently.
        {"lie_types": ["A1"], "max_word_length": 2, "seed": 5},
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=lambda block: block[:50] + "..." if isinstance(block, str) else json.dumps(block),
)
def test_malformed_spec_exits_2(tmp_path, block, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(block if isinstance(block, str) else json.dumps(block))
    assert main(["verify", "--spec", str(spec)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


# Every A1 word of positive length is twisted at weight 1, so a sweep that
# checks these words anyway stops early on each and ends at length 21.
_BEYOND_CAP = {"lie_types": ["A1"], "max_word_length": 21, "weight_alphabet": [1]}


@pytest.mark.parametrize(
    "blocks",
    [
        [_BEYOND_CAP],
        [dict(_BEYOND_CAP, seed=1, sample_count=5)],
        [{"lie_types": ["A1"], "max_word_length": 2}, _BEYOND_CAP],
    ],
    ids=["exhaustive", "sampled", "second-block"],
)
def test_verify_rejects_words_beyond_the_cap_before_any_check(tmp_path, blocks, monkeypatch, capsys):
    calls = record_calls(monkeypatch, harness, "_worker")
    spec = write_input(tmp_path / "spec.json", blocks)
    assert main(["verify", "--spec", spec]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


@pytest.mark.parametrize("command", ["verify", "atlas"])
def test_bad_lie_type_in_a_later_block_fails_before_any_check(tmp_path, command, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "_worker", lambda *args: calls.append(args))
    monkeypatch.setattr(walks, "hesitant_walk", lambda *args: calls.append(args))
    spec = write_input(
        tmp_path / "spec.json",
        [{"lie_types": ["A2"], "max_word_length": 5}, {"lie_types": ["Z9"], "max_word_length": 2}],
    )
    assert main([command, "--spec", spec]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: cannot parse Lie type 'Z9'\n"
    assert calls == []


def test_verify_caps_jobs_at_the_cpu_count(tmp_path, monkeypatch, capsys):
    received = []
    monkeypatch.setattr(
        harness,
        "verify_equivalence",
        lambda spec, jobs=1, memo=None: received.append(jobs) or harness.SweepReport(),
    )
    spec = write_input(tmp_path / "spec.json", {"lie_types": ["A1"], "max_word_length": 2})
    assert main(["verify", "--spec", spec, "--jobs", "100000"]) == EXIT_UNTWISTED
    capsys.readouterr()
    assert received == [os.cpu_count() or 1]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_rejects_jobs_below_one(tmp_path, jobs, monkeypatch, capsys):
    started = []
    monkeypatch.setattr(multiprocessing, "Pool", lambda *args: started.append(args))
    monkeypatch.setattr(harness, "_worker", lambda group, memo, report: started.append(group))
    spec = write_input(tmp_path / "spec.json", {"lie_types": ["A1"], "max_word_length": 2})
    assert main(["verify", "--spec", spec, "--jobs", jobs]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: --jobs must be at least 1, got {jobs}")
    assert started == []


def test_the_cli_does_not_import_multiprocessing_fractions_or_decimal():
    # Only a sweep with more than one job loads multiprocessing; check and
    # the other commands pay for none of its modules.  No command reads a
    # Fraction or a Decimal.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(twistedcubes.__file__).parents[1])
    code = (
        "import sys, twistedcubes.cli; "
        "assert not {'multiprocessing', 'fractions', 'decimal'} & sys.modules.keys()"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_atlas_accepts_words_beyond_the_cap(tmp_path, capsys):
    # The walk detector has no cap.
    spec = write_input(tmp_path / "spec.json", _BEYOND_CAP)
    assert main(["atlas", "--spec", spec]) == EXIT_UNTWISTED
    assert json.loads(capsys.readouterr().out)["counts"]["A1"]["1"]["21"]["total"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "--format", "human"],
        ["lattice", "--max-n", "3"],
        ["verify", "--max-n", "0"],
        ["atlas", "--max-n", "3"],
        ["atlas", "--format", "human"],
        ["check", "--format", "json"],
        ["verify", "--format", "json"],
        ["check", "--max-n", "20"],
    ],
    ids=" ".join,
)
def test_options_a_command_does_not_read_are_rejected(
    raw_n2, derived_untwisted, tmp_path, argv, capsys
):
    # Each command gets an input that it would take, so that only the
    # option can end it.
    if argv[0] == "lattice":
        argv = argv + ["--instance", raw_n2, "--out", str(tmp_path / "out")]
    elif argv[0] == "check":
        argv = argv + ["--instance", derived_untwisted]
    elif argv[0] == "verify":
        spec = {"lie_types": ["A1"], "max_word_length": 1}
        argv = argv + ["--spec", write_input(tmp_path / "spec.json", spec)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    capsys.readouterr()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["check", "--instance", str(tmp_path / "nope.json")]) == EXIT_ERROR
    capsys.readouterr()


def test_load_instance_raw(raw_n2):
    d, context = load_instance(raw_n2)
    assert context is None
    assert d.n == 2
    assert d.c_at(1, 2) == 1


def test_load_instance_rejects_bad_spec_file(tmp_path, capsys):
    spec = write_input(tmp_path / "spec.json", {"max_word_length": 3})
    assert main(["verify", "--spec", spec]) == EXIT_ERROR
    capsys.readouterr()


def test_load_instance_names_a_pair_given_twice(tmp_path):
    path = write_input(tmp_path / "inst.json", {"n": 2, "c": {"1,2": 1, "01,2": 5}, "ell": [0, 0]})
    with pytest.raises(MalformedInput, match=r"\(1, 2\) twice"):
        load_instance(path)


def test_load_instance_malformed_raises():
    with pytest.raises(MalformedInput):
        load_instance("/nonexistent/path.json")


# Fuzzing the two loaders.  Junk strings use no capital letter, so they never
# name a Lie type, nor the "expect" key that write_input leaves out, and
# spec integers stay small, so no draw can ask for a sweep that runs for
# more than a moment.
_JUNK_TEXT = st.text(alphabet="01,x -", max_size=4)


def _json(ints):
    leaves = st.none() | st.booleans() | ints | st.floats() | _JUNK_TEXT
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JUNK_TEXT, inner, max_size=3),
        max_leaves=8,
    )


_DROP = object()


def _mutations(valid: dict, domains: dict, junk):
    """valid with each field kept, dropped, or replaced by a draw from its
    domain or from junk."""
    fields = {
        key: st.just(value) | st.just(_DROP) | domains.get(key, st.nothing()) | junk
        for key, value in valid.items()
    }
    return st.fixed_dictionaries(fields).map(
        lambda obj: {k: v for k, v in obj.items() if v is not _DROP}
    )


_INSTANCE_JSON = _json(st.integers())
_SPEC_JSON = _json(st.integers(-2, 3))
_TYPES = st.sampled_from(["A1", "A2", "B2", "G2"])
_SMALL = st.integers(-2, 3)

INSTANCES = (
    _INSTANCE_JSON
    | _mutations(
        {"type": "A2", "word": [1, 2, 1], "weight": [2, 1]},
        {"type": _TYPES, "word": st.lists(_SMALL, max_size=4)},
        _INSTANCE_JSON,
    )
    | _mutations(RUNNING_EXAMPLE_JSON, {}, _INSTANCE_JSON)
)

_SPEC_BLOCKS = _mutations(
    {
        "name": "fuzz",
        "lie_types": ["A2"],
        "max_word_length": 2,
        "weight_alphabet": [0, 1],
        "seed": 1,
        "sample_count": 2,
    },
    {
        "lie_types": st.lists(_TYPES | _SPEC_JSON, max_size=2),
        "max_word_length": _SMALL,
        "weight_alphabet": st.lists(_SMALL, max_size=3),
        "sample_count": _SMALL | st.none(),
        "seed": st.integers() | st.none(),
    },
    _SPEC_JSON,
)
SPECS = _SPEC_JSON | _SPEC_BLOCKS | st.lists(_SPEC_BLOCKS, max_size=2)


# lattice enumerates the census, so its instances keep every
# integer small: an unbounded ell or c could ask for a huge census.
_TINY = st.integers(-3, 5)
_TINY_JSON = _json(_TINY)
TINY_INSTANCES = (
    _TINY_JSON
    | _mutations(
        {"type": "A2", "word": [1, 2, 1], "weight": [2, 1]},
        {"type": _TYPES, "word": st.lists(_TINY, max_size=3), "weight": st.lists(_TINY, max_size=3)},
        _TINY_JSON,
    )
    | _mutations(RUNNING_EXAMPLE_JSON, {"n": _TINY, "ell": st.lists(_TINY, max_size=3)}, _TINY_JSON)
    # Well-formed raw instances, so that many draws reach the census rather
    # than a loader error.
    | st.integers(0, 3).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "n": st.just(n),
                "c": st.dictionaries(st.sampled_from(["1,2", "1,3", "2,3"]), _TINY, max_size=3),
                "ell": st.lists(_TINY, min_size=n, max_size=n),
            }
        )
    )
)


def _run_on_json(command: str, flag: str, value, codes=(EXIT_UNTWISTED, EXIT_TWISTED, EXIT_ERROR)) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        argv = [command, flag, write_input(Path(tmp) / "input.json", value)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in codes
    if code == EXIT_ERROR:
        assert err.getvalue().startswith("error: ")


@settings(deadline=None)
@given(INSTANCES)
def test_check_never_crashes_on_arbitrary_json(value):
    _run_on_json("check", "--instance", value)


@settings(deadline=None)
@given(SPECS)
def test_verify_never_crashes_on_arbitrary_json(value):
    _run_on_json("verify", "--spec", value)


@settings(max_examples=300, deadline=None)
@given(TINY_INSTANCES)
def test_lattice_never_crashes_on_arbitrary_json(value):
    _run_on_json("lattice", "--instance", value, codes=(EXIT_UNTWISTED, EXIT_ERROR))

