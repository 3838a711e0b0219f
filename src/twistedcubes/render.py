"""Deterministic SVG rendering of two-dimensional twisted cubes.

Drawing conventions: the closed
(density +1) region is filled solid, the half-open (density -1) region is
hatched, strict-inequality boundary segments are dashed, and every lattice
point of the census is drawn as a dot.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, PreconditionViolated
from .twistedcube import lattice_points
from .weightword import TwistData, bound

SCALE = 40  # px per lattice unit
MARGIN_UNITS = 1


@dataclass(frozen=True)
class _Piece:
    """One sign-branch fragment of the region, over an x2 interval.

    x1 runs between 0 and the affine bound; `x1_open`/`lo_open`/`hi_open`
    mark which boundary edges are excluded (strict inequalities).
    """

    x2_lo: Fraction
    x2_hi: Fraction
    x1_open: bool  # negative x1 branch: A1 < x1 < 0
    lo_open: bool
    hi_open: bool
    rho: int


def _pieces(d: TwistData) -> list[_Piece]:
    ell2 = d.ell[1]
    if ell2 >= 0:
        x2_lo, x2_hi, lo_open, hi_open, x2_neg = Fraction(0), Fraction(ell2), False, False, False
    else:
        x2_lo, x2_hi, lo_open, hi_open, x2_neg = Fraction(ell2), Fraction(0), True, True, True
    c12 = d.c_at(1, 2)
    cuts = [x2_lo, x2_hi]
    if c12 != 0:
        root = Fraction(d.ell[0], c12)
        if x2_lo < root < x2_hi:
            cuts.insert(1, root)
    out: list[_Piece] = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        x1_neg = bound(d, 1, (0, mid)) < 0
        # Sign convention: both coordinates on the same side give +1.
        rho = 1 if x1_neg == x2_neg else -1
        out.append(
            _Piece(lo, hi, x1_neg, lo_open and lo == x2_lo, hi_open and hi == x2_hi, rho)
        )
    return out


def render_svg(d: TwistData) -> str:
    """Standalone SVG document for an n = 2 twisted cube whose picture's
    coordinates, in pixels, fit in a float."""
    if d.n != 2:
        raise DimensionMismatch(f"rendering requires n = 2, got n = {d.n}")
    census = lattice_points(d)
    pieces = _pieces(d)

    xs = [Fraction(0)]
    ys = [Fraction(0)]
    for p in pieces:
        xs += [bound(d, 1, (0, p.x2_lo)), bound(d, 1, (0, p.x2_hi)), Fraction(0)]
        ys += [p.x2_lo, p.x2_hi]
    x_min, x_max = min(xs) - MARGIN_UNITS, max(xs) + MARGIN_UNITS
    y_min, y_max = min(ys) - MARGIN_UNITS, max(ys) + MARGIN_UNITS
    # Every pixel coordinate lies between 0 and the width or the height.
    if max(x_max - x_min, y_max - y_min) * SCALE > sys.float_info.max:
        raise PreconditionViolated("the picture's coordinates are too large to draw as floats")
    width = float(x_max - x_min) * SCALE
    height = float(y_max - y_min) * SCALE

    def px(x: Fraction) -> str:
        return f"{float(x - x_min) * SCALE:.2f}"

    def py(y: Fraction) -> str:
        return f"{float(y_max - y) * SCALE:.2f}"

    lines: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        "<defs>",
        '<pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#b03030" stroke-width="1.5"/></pattern>',
        "</defs>",
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        # axes
        f'<line x1="{px(x_min)}" y1="{py(Fraction(0))}" x2="{px(x_max)}" '
        f'y2="{py(Fraction(0))}" stroke="#cccccc" stroke-width="1"/>',
        f'<line x1="{px(Fraction(0))}" y1="{py(y_min)}" x2="{px(Fraction(0))}" '
        f'y2="{py(y_max)}" stroke="#cccccc" stroke-width="1"/>',
    ]

    for p in pieces:
        corners = [
            (Fraction(0), p.x2_lo),
            (bound(d, 1, (0, p.x2_lo)), p.x2_lo),
            (bound(d, 1, (0, p.x2_hi)), p.x2_hi),
            (Fraction(0), p.x2_hi),
        ]
        fill = "#9db8e8" if p.rho == 1 else "url(#hatch)"
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in corners)
        lines.append(f'<polygon points="{pts}" fill="{fill}" stroke="none"/>')
        # Boundary edges, dashed where the inequality is strict.
        edges = [
            (corners[0], corners[1], p.lo_open),  # bottom (x2 = lo)
            (corners[1], corners[2], p.x1_open),  # slanted bound x1 = A1(x2)
            (corners[2], corners[3], p.hi_open),  # top (x2 = hi)
            (corners[3], corners[0], p.x1_open),  # x1 = 0 side
        ]
        for (ax, ay), (bx, by), dashed in edges:
            dash = ' stroke-dasharray="6,4"' if dashed else ""
            lines.append(
                f'<line x1="{px(ax)}" y1="{py(ay)}" x2="{px(bx)}" y2="{py(by)}" '
                f'stroke="#303030" stroke-width="1.5"{dash}/>'
            )

    for (x1, x2), rho in census.points:
        color = "#000000" if rho == 1 else "#b03030"
        lines.append(
            f'<circle cx="{px(Fraction(x1))}" cy="{py(Fraction(x2))}" r="3.5" fill="{color}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
