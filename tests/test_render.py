import pytest

from twistedcubes.errors import DimensionMismatch
from twistedcubes.render import render_svg
from twistedcubes.twistedcube import lattice_points
from twistedcubes.weightword import TwistData

from oracles import RUNNING_EXAMPLE


def test_rejects_wrong_dimension():
    for n, ell in ((1, (1,)), (3, (1, 1, 1))):
        with pytest.raises(DimensionMismatch):
            render_svg(TwistData(n=n, c={}, ell=ell))


def test_running_example_structure():
    svg = render_svg(RUNNING_EXAMPLE)
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>\n")
    # Both density regions are present: solid fill and hatch pattern use.
    assert 'fill="#9db8e8"' in svg
    assert 'fill="url(#hatch)"' in svg
    # The half-open region has dashed strict edges.
    assert 'stroke-dasharray="6,4"' in svg
    # One dot per census point, colored by density.
    census = lattice_points(RUNNING_EXAMPLE)
    assert svg.count("<circle") == len(census.points)
    assert svg.count('fill="#000000"') == census.num_positive
    assert svg.count('r="3.5" fill="#b03030"') == census.num_negative


def test_deterministic_output():
    assert render_svg(RUNNING_EXAMPLE) == render_svg(RUNNING_EXAMPLE)


def test_closed_cube_has_no_dashes():
    # Nonnegative bounds everywhere: a single closed region, no strict edges.
    svg = render_svg(TwistData(n=2, c={}, ell=(2, 2)))
    assert "stroke-dasharray" not in svg
    assert 'fill="url(#hatch)"' not in svg
    assert svg.count("<circle") == 9


def test_degenerate_segment():
    svg = render_svg(TwistData(n=2, c={}, ell=(0, 0)))
    assert svg.count("<circle") == 1


def test_lattice_free_region_still_renders():
    # ell = (0, -1): the region is the segment {0} x (-1, 0), which holds no
    # integer point; the picture shows it (dashed) with zero census dots.
    svg = render_svg(TwistData(n=2, c={}, ell=(0, -1)))
    assert svg.count("<circle") == 0
    assert 'stroke-dasharray="6,4"' in svg
