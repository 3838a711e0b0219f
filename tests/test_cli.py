import json

import pytest

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


def test_verify_with_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lie_types": ["A2"], "max_word_length": 3}))
    assert main(["verify", "--spec", str(spec)]) == EXIT_UNTWISTED
    report = json.loads(capsys.readouterr().out)
    assert report["instances"] == 60  # (1 + 2 + 4 + 8) * 4
    assert report["counterexamples"] == []


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


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        json.dumps([1, 2, 3]),
        json.dumps({"type": "A2", "word": [1]}),
        json.dumps({"type": "A2", "word": [1], "weight": [1, 0], "n": 1}),
        json.dumps({"n": 2, "c": {"1;2": 1}, "ell": [0, 0]}),
        json.dumps({"type": "Z9", "word": [], "weight": []}),
        json.dumps({"type": "A2", "word": [3], "weight": [0, 0]}),
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
    ],
)
def test_malformed_inputs_exit_2(tmp_path, payload, capsys):
    path = tmp_path / "inst.json"
    path.write_text(payload)
    assert main(["check", "--instance", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


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


def test_load_instance_malformed_raises():
    with pytest.raises(MalformedInput):
        load_instance("/nonexistent/path.json")
