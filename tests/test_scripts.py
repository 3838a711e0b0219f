"""The files under scripts/, run the way the README shows them."""

import json
from pathlib import Path

from twistedcubes.cli import EXIT_UNTWISTED, main
from twistedcubes.harness import SweepSpec, default_specs, iter_groups

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_core_sweep_is_the_first_three_default_blocks():
    blocks = json.loads((SCRIPTS / "default_sweep_core.json").read_text(encoding="utf-8"))
    assert [SweepSpec.from_json(block) for block in blocks] == default_specs()[:3]


def test_pool_sweep_holds_81_720_instances():
    # The sweep on which --jobs 2 pays; counted, not run.
    blocks = json.loads((SCRIPTS / "pool_sweep.json").read_text(encoding="utf-8"))
    specs = [SweepSpec.from_json(block) for block in blocks]
    counts = [sum(len(weights) for *_, weights in iter_groups(spec)) for spec in specs]
    assert counts == [78_720, 3_000]


def test_lattice_on_the_figure_example(capsys):
    assert main(["lattice", "--instance", str(SCRIPTS / "figure_example.json")]) == EXIT_UNTWISTED
    *lines, totals = capsys.readouterr().out.splitlines()
    points = [json.loads(line) for line in lines]
    assert len(points) == 11
    assert [p for p in points if p["rho"] == -1] == [{"x": [-1, 5], "rho": -1}]
    assert json.loads(totals) == {"positive": 10, "negative": 1, "signed": 9}


def test_atlas_on_rank_two(capsys):
    assert main(["atlas", "--spec", str(SCRIPTS / "atlas_rank2.json")]) == EXIT_UNTWISTED
    report = json.loads(capsys.readouterr().out)
    totals = [
        slot["total"]
        for per_weight in report["counts"].values()
        for per_length in per_weight.values()
        for slot in per_length.values()
    ]
    assert report["instances"] > 0
    assert sum(totals) == report["instances"]
    assert sorted(report["counts"]) == ["A1", "A2", "B2", "G2"]
