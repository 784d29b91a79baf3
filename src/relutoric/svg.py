"""Deterministic SVG rendering of two-dimensional fans.

All geometry is computed exactly and rounded once at the formatting stage
(three decimal places, round-half-even), so identical inputs produce
byte-identical documents.  Walls are colored by provenance: first-layer
hyperplanes black, bent hyperplanes red, synthetic augmentation gray,
extended hyperplanes blue.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnsupportedDimension
from .fan import BENT, EXTENDED, Fan, LAYER1, SYNTHETIC

SIZE = 400
CENTER = Fraction(SIZE, 2)
RAY_LENGTH = Fraction(180)
LABEL_RADIUS = Fraction(120)

COLORS = {
    LAYER1: "#000000",
    BENT: "#cc0000",
    SYNTHETIC: "#888888",
    EXTENDED: "#3355cc",
}
DEFAULT_COLOR = "#000000"

HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">\n'
    f'<rect x="0" y="0" width="{SIZE}" height="{SIZE}" fill="#ffffff"/>\n'
)
FOOTER = "</svg>\n"


def _fmt(value: Fraction) -> str:
    """Fixed three-decimal formatting of an exact rational."""
    scaled = round(value * 1000)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, part = divmod(scaled, 1000)
    if part == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{part:03d}".rstrip("0")


def _endpoint(ray, radius: Fraction) -> tuple[Fraction, Fraction]:
    scale = radius / max(abs(ray[0]), abs(ray[1]))
    # SVG y grows downward.
    return CENTER + scale * ray[0], CENTER - scale * ray[1]


def render_fan_svg(fan: Fan, support=None) -> str:
    """One line per ray, colored by wall provenance; optional slope labels
    per maximal cone when a support function is given."""
    if fan.dim != 2:
        raise UnsupportedDimension(f"can only render dimension 2, got {fan.dim}")
    kind_of_ray = {}
    for wall in fan.walls:
        kind_of_ray[wall.generators[0]] = wall.kind
    parts = [HEADER]
    for ray in fan.rays:
        x, y = _endpoint(ray, RAY_LENGTH)
        color = COLORS.get(kind_of_ray.get(ray, ""), DEFAULT_COLOR)
        dash = ' stroke-dasharray="6 4"' if kind_of_ray.get(ray) == SYNTHETIC else ""
        parts.append(
            f'<line x1="{_fmt(CENTER)}" y1="{_fmt(CENTER)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(y)}" stroke="{color}" '
            f'stroke-width="2"{dash}/>\n')
    if support is not None:
        for cone, slope in zip(fan.maximal_cones, support.slopes):
            probe = cone.interior_point()
            x, y = _endpoint(probe, LABEL_RADIUS)
            label = "(" + ", ".join(str(c) for c in slope) + ")"
            parts.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="12" '
                f'font-family="monospace" text-anchor="middle" '
                f'fill="#333333">{label}</text>\n')
    parts.append(FOOTER)
    return "".join(parts)
