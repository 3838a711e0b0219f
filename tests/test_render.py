import itertools
import re

import pytest

from twistedcubes.errors import DimensionMismatch
from twistedcubes.render import MARGIN_UNITS, SCALE, render_svg
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


def test_every_dot_lies_inside_the_box_of_the_pieces_corners():
    # The picture's box is built from the region pieces' corners alone: each
    # lattice point lies in the hull of one piece's corners, since A_1 is
    # affine in x_2.  So every dot lies at least the margin inside the
    # picture, on a grid of c_12 and ell that covers every sign pattern.
    inset = MARGIN_UNITS * SCALE - 0.01
    for c12, ell1, ell2 in itertools.product(range(-6, 7), range(-7, 8), range(-7, 8)):
        svg = render_svg(TwistData(n=2, c={(1, 2): c12}, ell=(ell1, ell2)))
        width, height = map(float, re.match(r'<svg [^>]*width="(\d+)" height="(\d+)"', svg).groups())
        for cx, cy in re.findall(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"', svg):
            assert inset <= float(cx) <= width - inset, (c12, ell1, ell2, cx, width)
            assert inset <= float(cy) <= height - inset, (c12, ell1, ell2, cy, height)
