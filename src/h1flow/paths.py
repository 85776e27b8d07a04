"""Paths in curve space and their L2(ds) lengths.

A path is a finite frame sequence sampled at uniform times in [0, 1]. The
length functional integrates the L2(ds) speed with a left-endpoint rule; in
quotient mode the velocity is first projected onto the left frame's normals,
which is what makes reparametrization-heavy paths cheap and underlies the
vanishing-distance demonstrations (shrink, twist, zigzag). The speed is the
L2(ds) sum of the curves module, the one that gradient and norms use, of
|v|^2 by _dot, or of <v, N>^2 from the tangent's columns in quotient mode.

A path's frames are checked once, when it is built; as_mode relabels the
same frames. A path length measures each left frame once (its ArcData, whose
arclength s it never reads) and, in quotient mode, takes the normal
component from the columns of the unit tangent that frame_data uses.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .curves import PolyCurve, _dot, _l2ds_term, _unit_frames, arc_data, edge_lengths
from .errors import DegenerateCurve, UsageError

MODES = ("full", "quotient")


@dataclass(frozen=True)
class CurvePath:
    frames: tuple
    mode: str = "full"

    def __post_init__(self):
        frames = tuple(self.frames)
        if len(frames) < 2:
            raise ValueError("a path needs at least 2 frames")
        n = frames[0].n
        for f in frames:
            if f.n != n:
                raise UsageError(f"frame with {f.n} vertices among n = {n}")
            if edge_lengths(f).min() <= 0.0:
                raise DegenerateCurve("degenerate frame in path")
        _check_mode(self.mode)
        object.__setattr__(self, "frames", frames)

    @property
    def n(self) -> int:
        return self.frames[0].n


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


def as_mode(path: CurvePath, mode: str) -> CurvePath:
    """The path's frames, the same tuple, under another mode. Only the mode
    is checked: the frames were checked when the path was built."""
    _check_mode(mode)
    out = copy.copy(path)
    object.__setattr__(out, "mode", mode)
    return out


def path_length_l2ds(path: CurvePath) -> float:
    """sum_k sqrt(sum_i |v_i|^2 ds_i) dt with v the frame difference quotient;
    ds and (in quotient mode) the normals come from the left frame."""
    m = len(path.frames)
    dt = 1.0 / (m - 1)
    total = 0.0
    for k in range(m - 1):
        left = arc_data(path.frames[k])
        v = (path.frames[k + 1].vertices - left.vertices) / dt
        if path.mode == "quotient":
            # the normal component <v, N> = v_y T_x - v_x T_y
            tx, ty = _unit_frames(left)[2]
            vn = v[:, 1] * tx - v[:, 0] * ty
            q = vn * vn
        else:
            q = _dot(v, v)
        total += np.sqrt(_l2ds_term(left, q)) * dt
    return float(total)


def shrink_path(curve: PolyCurve, lam: float, frames: int) -> CurvePath:
    """Linear homothety toward lam * curve: frame k is ((1 - t_k) + t_k lam) * curve."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    if frames < 2:
        raise ValueError("frames must be >= 2")
    t = np.linspace(0.0, 1.0, frames)
    out = [PolyCurve(((1.0 - tk) + tk * lam) * curve.vertices) for tk in t]
    return CurvePath(frames=tuple(out), mode="full")


def _sample_polygon(curve: PolyCurve, positions: np.ndarray) -> np.ndarray:
    """Piecewise-linear point on the polygon at fractional vertex index p
    (periodic): vertex floor(p) blended with its successor."""
    n = curve.n
    p = np.mod(positions, n)
    idx = np.floor(p).astype(int) % n
    frac = p - np.floor(p)
    nxt = (idx + 1) % n
    V = curve.vertices
    return V[idx] * (1.0 - frac)[:, None] + V[nxt] * frac[:, None]


def reparam_path(curve: PolyCurve, twist, frames: int) -> CurvePath:
    """Path that slides the parametrization: frame k samples the polygon at
    index i + t_k * twist_i. The twist is a per-vertex index displacement whose
    endpoint i + twist_i must stay strictly increasing (an orientation-
    preserving circle bijection); anything else, a non-finite twist among
    them, raises UsageError.
    """
    if frames < 2:
        raise ValueError("frames must be >= 2")
    delta = np.asarray(twist, dtype=float)
    n = curve.n
    if delta.shape != (n,):
        raise UsageError(f"twist must have {n} entries")
    if not np.isfinite(delta).all():
        # a NaN fails no order test below, and inf - inf warns
        raise UsageError("twist must be finite")
    target = np.arange(n) + delta
    if np.any(np.diff(target) <= 0.0) or target[-1] - target[0] >= n:
        raise UsageError("i + twist_i must be strictly increasing around the circle")
    t = np.linspace(0.0, 1.0, frames)
    base = np.arange(n, dtype=float)
    out = [PolyCurve(_sample_polygon(curve, base + tk * delta)) for tk in t]
    return CurvePath(frames=tuple(out), mode="full")


def _schedule_weights(n: int, teeth: int) -> np.ndarray:
    """Per-vertex weight mu in [0, 1] between the early (double-speed) and late
    (hold-first) block schedules: 0 at even-block centers, 1 at odd-block
    centers, linear across the block boundaries, with C1 quadratic caps over a
    0.05 block fraction at the centers. The caps remove the profile kinks whose
    vertices otherwise carry motion-aligned normals and dominate the quotient
    cost at high teeth.
    """
    b = n / (2.0 * teeth)
    cap = 0.05 * b
    slope = 1.0 / (b - cap)
    p = np.arange(n) % (2.0 * b)
    x = np.abs(p - b)  # distance to the odd-block center, in [0, b]
    x = np.minimum(x, 2.0 * b - x)
    mu = np.empty(n)
    flank = (x >= cap) & (x <= b - cap)
    mu[flank] = 1.0 - slope * (x[flank] - cap) - 0.5 * slope * cap
    near_odd = x < cap
    mu[near_odd] = 1.0 - 0.5 * slope * x[near_odd] ** 2 / cap
    near_even = x > b - cap
    xe = b - x[near_even]
    mu[near_even] = 0.5 * slope * xe ** 2 / cap
    return np.clip(mu, 0.0, 1.0)


def zigzag_path(base: CurvePath, teeth: int) -> CurvePath:
    """Traverse the base path on a two-phase block schedule: even blocks move
    at double speed while t < 1/2 and then hold, odd blocks hold and then
    move. Block centers follow those schedules exactly; toward the block
    boundaries the per-vertex schedule interpolates smoothly between the two
    phases (see _schedule_weights). The final frame is the base's final frame.
    """
    if base.mode != "full":
        raise ValueError("zigzag needs a full-mode base path")
    n = base.n
    if teeth < 1 or (n // 2) * 2 != n or (n // 2) % teeth != 0:
        raise ValueError(f"teeth must be >= 1 and divide n/2 (n = {n}, teeth = {teeth})")
    mu = _schedule_weights(n, teeth)
    m = len(base.frames)
    # frame k, vertex i is row k * n + i
    flat = np.concatenate([f.vertices for f in base.frames])
    rows = np.arange(n)
    out = []
    out_frames = 4 * (m - 1) + 1
    for j in range(out_frames):
        t = j / (out_frames - 1)
        phase = (1.0 - mu) * min(2.0 * t, 1.0) + mu * max(2.0 * t - 1.0, 0.0)
        pos = phase * (m - 1)
        idx = np.minimum(pos.astype(int), m - 2)
        w = (pos - idx)[:, None]
        at = idx * n + rows
        verts = np.take(flat, at, axis=0) * (1.0 - w) + np.take(flat, at + n, axis=0) * w
        out.append(PolyCurve(verts))
    return CurvePath(frames=tuple(out), mode="full")

