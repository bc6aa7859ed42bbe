"""Static SVG renders of a constellation on the sphere.

Orthographic projection along +z, the north pole toward the viewer.  Points
on the northern hemisphere (the equator included) draw as filled disks,
southern points as hollow circles, and points closer than 1e-6 in the
chordal metric merge into one marker with a multiplicity label.  The
equator draws as a dashed, flattened ellipse, a depth cue, since its true
image coincides with the outline.  Output is deterministic: the same
inputs give byte-identical SVG.
"""

from __future__ import annotations

from .majorana import Constellation, _integer
from .sphere import chordal_distance, to_sphere

__all__ = ["render_constellation_svg"]

_MERGE_TOL = 1e-6
_POINT_RADIUS = 6.0


def _fmt(v: float) -> str:
    return format(v, ".2f")


def _merge_roots(roots):
    """Greedy chordal clustering; returns [(representative, count), ...]."""
    clusters: list[list] = []
    for root in roots:
        for cluster in clusters:
            if chordal_distance(root, cluster[0]) < _MERGE_TOL:
                cluster[1] += 1
                break
        else:
            clusters.append([root, 1])
    return [(rep, count) for rep, count in clusters]


def render_constellation_svg(constellation: Constellation, size: int = 512) -> str:
    """The constellation on a size x size canvas (size >= 64 pixels)."""
    size = _integer(size, "canvas size")
    if size < 64:
        raise ValueError(f"canvas size must be >= 64, got {size}")
    center = size / 2.0
    radius = 0.45 * size

    parts = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{_fmt(center)}" cy="{_fmt(center)}" r="{_fmt(radius)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>',
        f'<ellipse cx="{_fmt(center)}" cy="{_fmt(center)}" rx="{_fmt(radius)}" '
        f'ry="{_fmt(0.18 * radius)}" fill="none" stroke="#888888" '
        'stroke-width="1" stroke-dasharray="5 4"/>',
    ]
    labels = []
    for rep, count in _merge_roots(constellation.roots):
        v = to_sphere(rep)
        sx = center + v.x * radius
        sy = center - v.y * radius
        style = ('fill="black" stroke="none"' if v.z >= 0.0
                 else 'fill="white" stroke="black" stroke-width="1.5"')
        parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" '
                     f'r="{_fmt(_POINT_RADIUS)}" {style}/>')
        if count > 1:
            font = max(10.0, size * 0.025)
            labels.append(
                f'<text x="{_fmt(sx + _POINT_RADIUS + 2)}" '
                f'y="{_fmt(sy - _POINT_RADIUS - 2)}" '
                f'font-family="sans-serif" font-size="{_fmt(font)}" '
                f'fill="black">&#215;{count}</text>')
    parts.extend(labels)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
