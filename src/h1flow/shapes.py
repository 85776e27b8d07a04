"""Initial-curve generators for the experiments and the CLI.

Each generator takes all of its parameters; the default shape (n, size,
neck, amplitude, lobes) is written once, in GeneratorSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import PolyCurve
from .output import read_curve

KINDS = ("circle", "square", "ellipse", "barbell", "star", "file")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int = 200
    size: float = 1.0          # radius / side / semi-major axis
    size_b: float | None = None  # ellipse semi-minor axis (default size/2)
    neck: float = 0.25         # barbell neck half-width
    amplitude: float = 0.3     # star radial modulation
    lobes: int = 5             # star lobe count
    path: str | None = None    # input file for kind="file"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown shape {self.kind!r}")
        if self.kind != "file" and self.n < 3:
            raise ValueError("n must be >= 3")
        for name in ("size", "size_b"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.size <= 0.0 or (self.size_b is not None and self.size_b <= 0.0):
            raise ValueError("size parameters must be positive")
        if self.kind == "barbell" and not 0.0 < self.neck < self.size:
            raise ValueError("neck half-width must lie in (0, radius)")
        if self.kind == "file" and not self.path:
            raise ValueError("kind='file' needs a path")


def circle(radius: float, n: int) -> PolyCurve:
    th = 2.0 * np.pi * np.arange(n) / n
    return PolyCurve(radius * np.stack([np.cos(th), np.sin(th)], axis=1))


def square(side: float, n: int) -> PolyCurve:
    """Centered axis-aligned square traversed counterclockwise from the corner
    (side/2, -side/2); n must be divisible by 4."""
    if n % 4 != 0:
        raise ValueError("square needs n divisible by 4")
    u = np.arange(n) / n * 4.0  # perimeter position in side units
    verts = np.empty((n, 2))
    h = side / 2.0
    for i, p in enumerate(u):
        if p < 1.0:
            verts[i] = (h, -h + side * p)
        elif p < 2.0:
            verts[i] = (h - side * (p - 1.0), h)
        elif p < 3.0:
            verts[i] = (-h, h - side * (p - 2.0))
        else:
            verts[i] = (-h + side * (p - 3.0), -h)
    return PolyCurve(verts)


def ellipse(a: float, b: float, n: int) -> PolyCurve:
    th = 2.0 * np.pi * np.arange(n) / n
    return PolyCurve(np.stack([a * np.cos(th), b * np.sin(th)], axis=1))


def star(radius: float, amplitude: float, lobes: int, n: int) -> PolyCurve:
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must lie in [0, 1)")
    th = 2.0 * np.pi * np.arange(n) / n
    r = radius * (1.0 + amplitude * np.cos(lobes * th))
    return PolyCurve(np.stack([r * np.cos(th), r * np.sin(th)], axis=1))


def barbell(radius: float, neck: float, n: int) -> PolyCurve:
    """Two circles of the given radius centered at (+-2 radius, 0), joined by a
    straight neck at y = +-neck between the tangency angles. Vertices are laid
    out by equal arclength steps along the boundary walk, starting on the right
    lobe at its bottom neck junction.
    """
    r = radius
    cx = 2.0 * r
    alpha = math.asin(neck / r)
    arc_span = 2.0 * math.pi - 2.0 * alpha          # each lobe
    seg_len = 2.0 * (cx - r * math.cos(alpha))      # each neck segment
    pieces = [r * arc_span, seg_len, r * arc_span, seg_len]
    total = sum(pieces)
    bounds = np.concatenate(([0.0], np.cumsum(pieces)))
    targets = np.arange(n) / n * total
    verts = np.empty((n, 2))
    xj = cx - r * math.cos(alpha)                   # junction |x|
    for i, s in enumerate(targets):
        if s < bounds[1]:
            # right lobe, from angle -(pi - alpha) counterclockwise through 0
            phi = -(math.pi - alpha) + s / r
            verts[i] = (cx + r * math.cos(phi), r * math.sin(phi))
        elif s < bounds[2]:
            # top neck, right to left
            verts[i] = (xj - (s - bounds[1]), neck)
        elif s < bounds[3]:
            # left lobe, from angle alpha counterclockwise through pi
            phi = alpha + (s - bounds[2]) / r
            verts[i] = (-cx + r * math.cos(phi), r * math.sin(phi))
        else:
            # bottom neck, left to right
            verts[i] = (-xj + (s - bounds[3]), -neck)
    return PolyCurve(verts)


def generate(spec: GeneratorSpec) -> PolyCurve:
    if spec.kind == "circle":
        return circle(spec.size, spec.n)
    if spec.kind == "square":
        return square(spec.size, spec.n)
    if spec.kind == "ellipse":
        b = spec.size_b if spec.size_b is not None else spec.size / 2.0
        return ellipse(spec.size, b, spec.n)
    if spec.kind == "star":
        return star(spec.size, spec.amplitude, spec.lobes, spec.n)
    if spec.kind == "barbell":
        return barbell(spec.size, spec.neck, spec.n)
    return read_curve(spec.path)
