"""Initial-curve generators for the experiments and the CLI.

Each generator turns its parameters into a polygon and does nothing else: it
reads no file (a curve file is read by output.read_curve). Each takes all of
its parameters; the default shape (kind, n, size, neck, amplitude, lobes) is
written once, in GeneratorSpec. Each generator checks the counts it uses
where it uses them, through _count: n is an integer >= 3, and a star's lobes
an integer >= 1, so that the polygon closes evenly. GeneratorSpec checks the
kind and the sizes; its counts are checked when generate builds the curve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .curves import PolyCurve

KINDS = ("circle", "square", "ellipse", "barbell", "star")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str = "circle"
    n: int = 200
    size: float = 1.0          # radius / side / semi-major axis
    size_b: float | None = None  # ellipse semi-minor axis (default size/2)
    neck: float = 0.25         # barbell neck half-width
    amplitude: float = 0.3     # star radial modulation
    lobes: int = 5             # star lobe count

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown shape {self.kind!r}")
        for name in ("size", "size_b"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.size <= 0.0 or (self.size_b is not None and self.size_b <= 0.0):
            raise ValueError("size parameters must be positive")


def _count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer or is below its least value."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def circle(radius: float, n: int) -> PolyCurve:
    return ellipse(radius, radius, n)


def square(side: float, n: int) -> PolyCurve:
    """Centered axis-aligned square traversed counterclockwise from the corner
    (side/2, -side/2); n must be divisible by 4."""
    _count("n", n, 3)
    if n % 4 != 0:
        raise ValueError("square needs n divisible by 4")
    u = np.arange(n) / n * 4.0  # perimeter position in side units
    k = u.astype(int)           # side k runs from corner[k] along heading[k]
    h = side / 2.0
    corner = np.array([[h, -h], [h, h], [-h, h], [-h, -h]])
    heading = np.array([[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
    return PolyCurve(corner[k] + heading[k] * (side * (u - k))[:, None])


def ellipse(a: float, b: float, n: int) -> PolyCurve:
    _count("n", n, 3)
    th = 2.0 * np.pi * np.arange(n) / n
    return PolyCurve(np.stack([a * np.cos(th), b * np.sin(th)], axis=1))


def star(radius: float, amplitude: float, lobes: int, n: int) -> PolyCurve:
    _count("n", n, 3)
    _count("lobes", lobes, 1)
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
    _count("n", n, 3)
    if not 0.0 < neck < radius:
        raise ValueError("neck half-width must lie in (0, radius)")
    r = radius
    cx = 2.0 * r
    alpha = math.asin(neck / r)
    arc = r * (2.0 * math.pi - 2.0 * alpha)         # each lobe
    xj = cx - r * math.cos(alpha)                   # junction |x|
    # pieces 0 to 3: right lobe, top neck, left lobe, bottom neck
    bounds = np.cumsum([0.0, arc, 2.0 * xj, arc, 2.0 * xj])
    s = np.arange(n) / n * bounds[-1]
    k = np.searchsorted(bounds, s, "right") - 1
    d = s - bounds[k]
    # the right lobe starts at angle -(pi - alpha), the left one at alpha;
    # both run counterclockwise
    phi = np.where(k == 0, -(math.pi - alpha), alpha) + d / r
    lobe = np.stack([(1 - k) * cx + r * np.cos(phi), r * np.sin(phi)], axis=1)
    # the top neck runs right to left, the bottom one left to right
    top = k == 1
    bar = np.stack([np.where(top, xj - d, d - xj), np.where(top, neck, -neck)], axis=1)
    return PolyCurve(np.where((k % 2 == 0)[:, None], lobe, bar))


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
    return barbell(spec.size, spec.neck, spec.n)
