import contextlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twistedcubes
from twistedcubes import harness, twistedcube, walks
from twistedcubes.cli import EXIT_ERROR, EXIT_TWISTED, EXIT_UNTWISTED, load_instance, main
from twistedcubes.errors import MalformedInput


@pytest.fixture
def derived_twisted(tmp_path):
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps({"type": "A2", "word": [1, 2, 1], "weight": [2, 1]}))
    return str(path)


@pytest.fixture
def derived_untwisted(tmp_path):
    path = tmp_path / "untwisted.json"
    path.write_text(json.dumps({"type": "A3", "word": [1, 2, 3, 1, 2, 1], "weight": [0, 0, 3]}))
    return str(path)


@pytest.fixture
def raw_n2(tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"n": 2, "c": {"1,2": 1}, "ell": [3, 5]}))
    return str(path)


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


def test_check_human_format(derived_twisted, capsys):
    assert main(["check", "--instance", derived_twisted, "--format", "human"]) == EXIT_TWISTED
    out = capsys.readouterr().out
    assert "twisted" in out
    assert "-+-" in out


def test_check_human_format_untwisted(derived_untwisted, capsys):
    assert main(["check", "--instance", derived_untwisted, "--format", "human"]) == EXIT_UNTWISTED
    assert capsys.readouterr().out == "untwisted: every Cartier vector is entrywise nonnegative\n"


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


def test_render_is_byte_stable(raw_n2, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["render", "--instance", raw_n2, "--out", str(a)]) == EXIT_UNTWISTED
    assert main(["render", "--instance", raw_n2, "--out", str(b)]) == EXIT_UNTWISTED
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


def test_render_rejects_wrong_dimension(derived_twisted, tmp_path, capsys):
    out = tmp_path / "bad.svg"
    assert main(["render", "--instance", derived_twisted, "--out", str(out)]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lattice", "render"])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_exits_2(raw_n2, tmp_path, command, where, capsys):
    # Exit 1 would read as "twisted"; an output that cannot be written is
    # malformed input.
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out"
    assert main([command, "--instance", raw_n2, "--out", str(out)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["check", "verify", "atlas", "lattice"])
def test_unwritable_stdout_exits_2(derived_untwisted, tmp_path, command):
    # A stdout that cannot be written must not end in a traceback with exit
    # 1, which reads as "twisted".  It takes a real process: the error shows
    # only when the buffered stdout is flushed.
    if command in ("verify", "atlas"):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"lie_types": ["A1"], "max_word_length": 1, "weight_alphabet": [1]}))
        argv = [command, "--spec", str(spec)]
    else:
        argv = [command, "--instance", derived_untwisted]
    env = dict(os.environ, PYTHONPATH=str(Path(twistedcubes.__file__).parents[1]))
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


def test_lattice_keeps_the_per_value_check(raw_n2, tmp_path, monkeypatch, capsys):
    # The bucket writer checks every chosen value, as lattice_points does.
    monkeypatch.setattr(twistedcube, "_coordinate_ok", lambda a, v: False)
    out = tmp_path / "census.jsonl"
    assert main(["lattice", "--instance", raw_n2, "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: an enumerated lattice point lies outside the cube\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "raw",
    [{"n": 2, "c": {"1,2": 1}, "ell": [3, 5]}, {"n": 2, "c": {"1,2": 3}, "ell": [-3, 4]}],
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
    inst, out = tmp_path / "inst.json", tmp_path / "census.jsonl"
    inst.write_text(json.dumps(raw))
    assert main(["lattice", "--instance", str(inst), "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: an enumerated lattice point lies outside the cube\n"
    assert not out.exists()


CENSUS_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "census.json"


def _census_instances():
    data = json.loads(CENSUS_DATA.read_text(encoding="utf-8"))
    yield pytest.param(data["warmup"], id="warmup")
    for kind, instances in sorted(data["kinds"].items()):
        for i, inst in enumerate(instances):
            yield pytest.param(inst, id=f"{kind}-{i}")


@pytest.mark.parametrize("inst", _census_instances())
def test_lattice_meets_the_census_workload_expectations(inst, tmp_path):
    # The benchmark's census workload checks each `lattice --out` this way
    # against the expected totals committed with its data.
    expect = inst["expect"]
    path, out = tmp_path / "inst.json", tmp_path / "census.jsonl"
    path.write_text(json.dumps({key: value for key, value in inst.items() if key != "expect"}))
    assert main(["lattice", "--instance", str(path), "--out", str(out)]) == EXIT_UNTWISTED
    data = out.read_bytes()
    lines = data.splitlines()
    assert json.loads(lines[-1]) == expect
    assert len(lines) == expect["positive"] + expect["negative"] + 1
    assert data.count(b'"rho": -1}') == expect["negative"]


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
    inst, out = tmp_path / "inst.json", tmp_path / "census.jsonl"
    inst.write_text(json.dumps(raw))
    assert main(["lattice", "--instance", str(inst), "--out", str(out)]) == EXIT_UNTWISTED
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
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lie_types": ["A2"], "max_word_length": 3}))
    assert main(["verify", "--spec", str(spec)]) == EXIT_UNTWISTED
    report = json.loads(capsys.readouterr().out)
    assert report["instances"] == 60  # (1 + 2 + 4 + 8) * 4
    assert report["counterexamples"] == []


def test_verify_human_format(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lie_types": ["A1"], "max_word_length": 2, "weight_alphabet": [1]}))
    argv = ["verify", "--spec", str(spec), "--format", "human"]
    assert main(argv) == EXIT_UNTWISTED
    summary = r"3 instances: 2 untwisted, 1 twisted, {} counterexamples \(\d+ ms\)\n"
    assert re.fullmatch(summary.format(0), capsys.readouterr().out)
    # With the detector blinded, the twisted word (1, 1) is a verdict mismatch,
    # printed as one indented JSON line under the summary.
    monkeypatch.setattr(walks, "find_hesitant_lambda_walk", lambda t, w, lam: None)
    assert main(argv) == EXIT_TWISTED
    out = capsys.readouterr().out
    head, line = out.splitlines(keepends=True)
    assert re.fullmatch(summary.format(1), head)
    assert line.startswith("  {")
    assert json.loads(line) == {
        "instance": {"type": "A1", "word": [1, 1], "weight": [1]},
        "problem": "verdict mismatch: criterion says untwisted=False, detector witness=None",
    }


def test_atlas_with_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"lie_types": ["A1"], "max_word_length": 2}]))
    assert main(["atlas", "--spec", str(spec)]) == EXIT_UNTWISTED
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["A1"]["1"]["2"] == {"avoiding": 0, "total": 1}


def test_atlas_merges_blocks_that_share_a_type(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            [
                {"lie_types": ["A1", "A2"], "max_word_length": 2, "weight_alphabet": [0, 1]},
                {"lie_types": ["A2"], "max_word_length": 3, "weight_alphabet": [1]},
            ]
        )
    )
    assert main(["atlas", "--spec", str(spec)]) == EXIT_UNTWISTED
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


def test_max_n_cap(derived_twisted, capsys):
    assert main(["check", "--instance", derived_twisted, "--max-n", "2"]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_only_the_criterion_is_capped(tmp_path, capsys):
    # n = 21 is past the criterion's 2**n cap, but the census of the zero
    # cube is one point, so lattice takes it.
    path = tmp_path / "zero21.json"
    path.write_text(json.dumps({"n": 21, "c": {}, "ell": [0] * 21}))
    assert main(["lattice", "--instance", str(path)]) == EXIT_UNTWISTED
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in lines] == [
        {"x": [0] * 21, "rho": 1},
        {"positive": 1, "negative": 0, "signed": 1},
    ]
    assert main(["check", "--instance", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: n = 21 exceeds cap 20\n"


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        json.dumps([1, 2, 3]),
        json.dumps({"type": "A2", "word": [1]}),
        json.dumps({"type": "A2", "word": [1], "weight": [1, 0], "n": 1}),
        json.dumps({"n": 2, "c": {"1;2": 1}, "ell": [0, 0]}),
        # Two keys for one pair: neither value may win silently.
        json.dumps({"n": 2, "c": {"1,2": 1, "01,2": 5}, "ell": [0, 0]}),
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


@pytest.mark.parametrize(
    "block",
    [
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
    calls = []
    real = harness._worker
    monkeypatch.setattr(
        harness,
        "_worker",
        lambda inst, t, w, memo: calls.append(inst) or real(inst, t, w, memo),
    )
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(blocks))
    assert main(["verify", "--spec", str(spec)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


@pytest.mark.parametrize("command", ["verify", "atlas"])
def test_bad_lie_type_in_a_later_block_fails_before_any_check(tmp_path, command, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "_worker", lambda *args: calls.append(args))
    monkeypatch.setattr(walks, "find_hesitant_lambda_walk", lambda *args: calls.append(args))
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            [{"lie_types": ["A2"], "max_word_length": 5}, {"lie_types": ["Z9"], "max_word_length": 2}]
        )
    )
    assert main([command, "--spec", str(spec)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: cannot parse Lie type 'Z9'\n"
    assert calls == []


def test_verify_caps_jobs_at_the_cpu_count(tmp_path, monkeypatch, capsys):
    received = []
    monkeypatch.setattr(
        harness, "verify_equivalence", lambda spec, jobs=1: received.append(jobs) or harness.SweepReport()
    )
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lie_types": ["A1"], "max_word_length": 2}))
    assert main(["verify", "--spec", str(spec), "--jobs", "100000"]) == EXIT_UNTWISTED
    capsys.readouterr()
    assert received == [os.cpu_count() or 1]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_rejects_jobs_below_one(tmp_path, jobs, monkeypatch, capsys):
    started = []
    monkeypatch.setattr(multiprocessing, "Pool", lambda *args: started.append(args))
    monkeypatch.setattr(harness, "_worker", lambda inst, t, w, memo: started.append(inst))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lie_types": ["A1"], "max_word_length": 2}))
    assert main(["verify", "--spec", str(spec), "--jobs", jobs]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: --jobs must be at least 1, got {jobs}")
    assert started == []


def test_the_cli_does_not_import_multiprocessing():
    # Only a sweep with more than one job loads it; check and the other
    # commands pay for none of its modules.
    env = dict(os.environ, PYTHONPATH=str(Path(twistedcubes.__file__).parents[1]))
    code = "import sys, twistedcubes.cli; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_atlas_accepts_words_beyond_the_cap(tmp_path, capsys):
    # The walk detector has no cap.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_BEYOND_CAP))
    assert main(["atlas", "--spec", str(spec)]) == EXIT_UNTWISTED
    assert json.loads(capsys.readouterr().out)["counts"]["A1"]["1"]["21"]["total"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "--format", "human"],
        ["lattice", "--max-n", "3"],
        ["render", "--max-n", "3"],
        ["render", "--format", "json"],
        ["verify", "--max-n", "0"],
        ["atlas", "--max-n", "3"],
        ["atlas", "--format", "human"],
    ],
    ids=" ".join,
)
def test_options_a_command_does_not_read_are_rejected(raw_n2, tmp_path, argv, capsys):
    if argv[0] in ("lattice", "render"):
        argv = argv + ["--instance", raw_n2, "--out", str(tmp_path / "out")]
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
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"max_word_length": 3}))
    assert main(["verify", "--spec", str(spec)]) == EXIT_ERROR
    capsys.readouterr()


def test_load_instance_names_a_pair_given_twice(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"n": 2, "c": {"1,2": 1, "01,2": 5}, "ell": [0, 0]}))
    with pytest.raises(MalformedInput, match=r"\(1, 2\) twice"):
        load_instance(str(path))


def test_load_instance_malformed_raises():
    with pytest.raises(MalformedInput):
        load_instance("/nonexistent/path.json")


# Fuzzing the two loaders.  Junk strings use no capital letter, so they never
# name a Lie type, and spec integers stay small, so no draw can ask for a
# sweep that runs for more than a moment.
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
    | _mutations({"n": 2, "c": {"1,2": 1}, "ell": [3, 5]}, {}, _INSTANCE_JSON)
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


def _run_on_json(command: str, flag: str, value) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(value))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, flag, str(path)])
    assert code in (EXIT_UNTWISTED, EXIT_TWISTED, EXIT_ERROR)
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
