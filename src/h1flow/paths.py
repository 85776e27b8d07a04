"""Paths in curve space and their L2(ds) lengths.

A path is a finite frame sequence sampled at uniform times in [0, 1]. The
length functional integrates the L2(ds) speed with a left-endpoint rule; in
quotient mode the velocity is first projected onto the left frame's normals,
which is what makes reparametrization-heavy paths cheap and underlies the
vanishing-distance demonstrations (shrink, twist, zigzag). The speed is the
L2(ds) sum of the curves module, the one that gradient's inner products use,
of |v|^2 by _dot, or of <v, N>^2 from the tangent's columns in quotient mode.

Every frame passes the gate of curves.arc_data, which refuses a non-finite
coordinate, a collapsed edge or a length past the double range. A path built
from explicit frames checks them once, when it is built, by the gate's edge
measurement, curves._edges, and copies their vertices into one read-only
(m, n, 2) table; its frames are a tuple of curves on the table's rows, and a
pickle or deep copy of it views its own table again. The three families
keep their recipe instead (the base table with the schedule, the scale, or
the twist), and their frames are a read-only sequence that forms frame k
when it is read and measures it by curves._measure, as the flow measures
its states, so a path's memory does not grow with its frame count. A
length is one pairwise walk over the frames: each frame is formed once and
each left frame measured once (its ArcData, whose arclength s it never
reads). A quotient walk also sums the full speed from the same v and ds, and
takes the normal component from the columns of the unit tangent of
_tangent, which records' curvature shares; a full walk never forms the
tangent, so a cusp fails only the quotient length. The walk's products run
with overflow ignored, and a sum that is not finite (inf, or NaN from
inf - inf in <v, N>) is refused with FloatingPointError; the frames are
formed and measured outside that context. The path keeps the lengths it
has walked, shared with its as_mode copies, which relabel the same frames.

The families form each frame as a blend of vertices, in a fresh C-ordered
(n, 2) array that _measure makes a curve in place, with no copy. No family
bounds its source coordinates in advance: the gate refuses a non-finite
frame, or one whose length overflows, when the frame is formed. zigzag_path
gathers both base frames of a blend from the table of an explicit base, so
all the zigzags of one base share it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .curves import PolyCurve, _dot, _edges, _l2ds_term, _measure, _owned, _tangent, _unit_edges, arc_data
from .errors import DegenerateCurve, UsageError
from .shapes import _count

MODES = ("full", "quotient")


class _Frames(Sequence):
    """The frames of a generated path, formed on demand: frame k is the
    curve of form(k), a fresh C-ordered float (n, 2) array, measured by
    _measure as it is formed. A frame with a non-finite coordinate, or a
    length past the double range, raises FloatingPointError, and one with an
    edge of zero length DegenerateCurve("degenerate frame in path"). An index
    reads one frame, negative ones included, and a slice a tuple of them;
    each read forms its frames afresh."""

    def __init__(self, count: int, form):
        self._count = count
        self._form = form

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k):
        at = range(self._count)[k]
        return tuple(map(self._frame, at)) if isinstance(at, range) else self._frame(at)

    def _frame(self, k: int) -> PolyCurve:
        return _accept(_measure, self._form(k))


def _accept(gate, X: np.ndarray):
    """gate(X), with a collapsed edge refused as DegenerateCurve("degenerate
    frame in path"): the gate is _measure for a formed frame, and the edge
    measurement of arc_data, curves._edges, for an explicit one."""
    try:
        return gate(X)
    except DegenerateCurve:
        raise DegenerateCurve("degenerate frame in path") from None


@dataclass(frozen=True)
class CurvePath:
    frames: Sequence
    mode: str = "full"
    # the walked lengths by mode, shared with the as_mode copies
    _lengths: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # an explicit path's frames, stacked: the (m, n, 2) table that they view
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        frames = self.frames
        if not isinstance(frames, _Frames):
            frames = tuple(frames)
            if len(frames) < 2:
                raise ValueError("a path needs at least 2 frames")
            n = frames[0].n
            for f in frames:
                if f.n != n:
                    raise UsageError(f"frame with {f.n} vertices among n = {n}")
                _accept(_edges, f.vertices)
            table = np.stack([f.vertices for f in frames])
            table.flags.writeable = False
            object.__setattr__(self, "_table", table)
            frames = tuple(map(_owned, table))
        _check_mode(self.mode)
        object.__setattr__(self, "frames", frames)

    def __setstate__(self, state):
        """A pickled or deep-copied explicit path's frames view its table,
        read-only, again."""
        self.__dict__.update(state)
        if self._table is not None:
            self._table.flags.writeable = False
            self.__dict__["frames"] = tuple(map(_owned, self._table))

    @property
    def n(self) -> int:
        return self.frames[0].n


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


def as_mode(path: CurvePath, mode: str) -> CurvePath:
    """The path's frames, the same sequence, under another mode. Only the
    mode is checked: the frames were checked when the path was built, or
    are checked as they are formed. The copy shares the path's frames, table
and lengths."""
    _check_mode(mode)
    out = object.__new__(CurvePath)
    out.__dict__.update(path.__dict__, mode=mode)
    return out


def _walk(frames, quotient: bool) -> dict:
    """The full length and, when quotient, the quotient length of the
    frames, by mode, from one pass: each frame is read once, and each left
    frame measured once."""
    dt = 1.0 / (len(frames) - 1)
    full = quot = 0.0
    it = iter(frames)
    right = next(it)
    for frame in it:
        left = arc_data(right)
        right = frame
        # an overflow here makes a sum inf, or NaN from inf - inf: refused below
        with np.errstate(over="ignore", invalid="ignore"):
            v = right.vertices - left.vertices
            v /= dt
            full += np.sqrt(_l2ds_term(left, _dot(v, v))) * dt
            if quotient:
                # the normal component <v, N> = v_y T_x - v_x T_y
                tx, ty = _tangent(*_unit_edges(left))
                vn = v[:, 1] * tx - v[:, 0] * ty
                quot += np.sqrt(_l2ds_term(left, vn * vn)) * dt
    if not (math.isfinite(full) and math.isfinite(quot)):
        raise FloatingPointError("path length overflows the double range")
    return {"full": float(full), "quotient": float(quot)} if quotient else {"full": float(full)}


def path_length_l2ds(path: CurvePath) -> float:
    """sum_k sqrt(sum_i |v_i|^2 ds_i) dt with v the frame difference quotient;
    ds and (in quotient mode) the normals come from the left frame. A
    length the path, or an as_mode copy of it, has walked is not walked
    again; a quotient walk gives the full length too. A length past the
    double range raises FloatingPointError, and is not kept."""
    lengths = path._lengths
    if path.mode not in lengths:
        lengths.update(_walk(path.frames, path.mode == "quotient"))
    return lengths[path.mode]


def shrink_path(curve: PolyCurve, lam: float, frames: int) -> CurvePath:
    """Linear homothety toward lam * curve: frame k is ((1 - t_k) + t_k lam) * curve.
    The frames are formed on demand (see _Frames) and refused, a degenerate
    one with DegenerateCurve("degenerate frame in path"), when formed."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    _count("frames", frames, 2)
    t = np.linspace(0.0, 1.0, frames)
    V = curve.vertices

    def form(k):
        return ((1.0 - t[k]) + t[k] * lam) * V

    return CurvePath(frames=_Frames(frames, form))


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
    them, raises UsageError. The frames are formed on demand (see _Frames)
    and refused, a degenerate one with
    DegenerateCurve("degenerate frame in path"), when formed.
    """
    _count("frames", frames, 2)
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

    def form(k):
        return _sample_polygon(curve, base + t[k] * delta)

    return CurvePath(frames=_Frames(frames, form))


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

    Vertex i of frame j blends vertex i of the two base frames around its
    phase. Both frames are gathered, a coordinate at a time, at one index
    into the flat table of the base frames, the right-hand one from the
    view of the table a frame later. The table is the explicit base's own,
    shared by all its zigzags; a generated base is made explicit, its
    frames stacked into one, for each zigzag. The blend is written into the
    frame's own (n, 2) array, which becomes the curve with no copy. The path
    keeps the table and the schedule and forms frame j when it is read (see
    _Frames); a frame is refused, a degenerate one with
    DegenerateCurve("degenerate frame in path"), when formed.
    """
    if base.mode != "full":
        raise ValueError("zigzag needs a full-mode base path")
    n = base.n
    if teeth < 1 or (n // 2) * 2 != n or (n // 2) % teeth != 0:
        raise ValueError(f"teeth must be >= 1 and divide n/2 (n = {n}, teeth = {teeth})")
    mu = _schedule_weights(n, teeth)
    omu = 1.0 - mu
    m = len(base.frames)
    if base._table is None:
        base = CurvePath(frames=tuple(base.frames))  # stacks the formed frames
    # coordinate c of frame k, vertex i is flat[2 (k n + i) + c]
    flat = base._table.ravel()
    rows = np.arange(0, 2 * n, 2)
    out_frames = 4 * (m - 1) + 1

    def form(j):
        t = j / (out_frames - 1)
        # (1 - mu) min(2t, 1) + mu max(2t - 1, 0) without its exact terms:
        # mu * 0.0 adds +0.0 and (1 - mu) * 1.0 is 1 - mu
        w = omu * (2.0 * t) if t < 0.5 else omu + mu * (2.0 * t - 1.0)
        w *= m - 1  # the position in the base frames
        at = w.astype(int)
        np.minimum(at, m - 2, out=at)
        w -= at  # the right-hand frame's weight
        ow = 1.0 - w
        at *= 2 * n
        at += rows
        verts = np.empty((n, 2))
        for c in range(2):
            a = flat[c:].take(at)
            a *= ow
            b = flat[2 * n + c:].take(at)  # the frame a step later
            b *= w
            np.add(a, b, out=verts[:, c])
        return verts

    return CurvePath(frames=_Frames(out_frames, form))
