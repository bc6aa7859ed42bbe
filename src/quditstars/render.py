"""Static SVG renders of a constellation on the sphere.

Orthographic projection along a coordinate axis (default: +z toward the
viewer).  Points on the viewer-facing hemisphere draw as filled disks,
hidden-hemisphere points as hollow circles, and points closer than 1e-6 in
the chordal metric merge into one marker with a multiplicity label.  Output
is deterministic: the same inputs give byte-identical SVG.
"""

from __future__ import annotations

from dataclasses import dataclass

from .majorana import Constellation
from .sphere import chordal_distance, to_sphere

__all__ = ["RenderSpec", "render_constellation_svg"]

_MERGE_TOL = 1e-6

# (right, up, depth) unit vectors per view axis; depth points at the viewer.
_VIEW_FRAMES = {
    "+z": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "-z": ((-1, 0, 0), (0, 1, 0), (0, 0, -1)),
    "+x": ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    "-x": ((0, -1, 0), (0, 0, 1), (-1, 0, 0)),
    "+y": ((-1, 0, 0), (0, 0, 1), (0, 1, 0)),
    "-y": ((1, 0, 0), (0, 0, 1), (0, -1, 0)),
}


@dataclass(frozen=True)
class RenderSpec:
    """Canvas size in pixels, marker radius, and the viewing axis."""

    size: int = 512
    point_radius: float = 6.0
    view: str = "+z"

    def __post_init__(self):
        if int(self.size) < 64:
            raise ValueError(f"canvas size must be >= 64, got {self.size}")
        if not self.point_radius > 0:
            raise ValueError(f"point radius must be positive, got {self.point_radius}")
        if self.view not in _VIEW_FRAMES:
            raise ValueError(f"view must be one of {sorted(_VIEW_FRAMES)}, got {self.view!r}")
        object.__setattr__(self, "size", int(self.size))
        object.__setattr__(self, "point_radius", float(self.point_radius))


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


def render_constellation_svg(constellation: Constellation,
                             spec: RenderSpec = RenderSpec()) -> str:
    size = spec.size
    center = size / 2.0
    radius = 0.45 * size
    right, up, depth = (list(v) for v in _VIEW_FRAMES[spec.view])

    parts = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{_fmt(center)}" cy="{_fmt(center)}" r="{_fmt(radius)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    # Equator: from the pole views the true image coincides with the outline,
    # so a flattened ellipse is drawn as a depth cue; from side views it
    # projects to a horizontal diameter.
    if spec.view in ("+z", "-z"):
        parts.append(
            f'<ellipse cx="{_fmt(center)}" cy="{_fmt(center)}" rx="{_fmt(radius)}" '
            f'ry="{_fmt(0.18 * radius)}" fill="none" stroke="#888888" '
            'stroke-width="1" stroke-dasharray="5 4"/>')
    else:
        parts.append(
            f'<line x1="{_fmt(center - radius)}" y1="{_fmt(center)}" '
            f'x2="{_fmt(center + radius)}" y2="{_fmt(center)}" '
            'stroke="#888888" stroke-width="1" stroke-dasharray="5 4"/>')

    def dot(vec, axis):
        return vec.x * axis[0] + vec.y * axis[1] + vec.z * axis[2]

    labels = []
    for rep, count in _merge_roots(constellation.roots):
        v = to_sphere(rep)
        sx = center + dot(v, right) * radius
        sy = center - dot(v, up) * radius
        facing = dot(v, depth) >= 0.0
        style = ('fill="black" stroke="none"' if facing
                 else 'fill="white" stroke="black" stroke-width="1.5"')
        parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" '
                     f'r="{_fmt(spec.point_radius)}" {style}/>')
        if count > 1:
            font = max(10.0, size * 0.025)
            labels.append(
                f'<text x="{_fmt(sx + spec.point_radius + 2)}" '
                f'y="{_fmt(sy - spec.point_radius - 2)}" '
                f'font-family="sans-serif" font-size="{_fmt(font)}" '
                f'fill="black">&#215;{count}</text>')
    parts.extend(labels)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
