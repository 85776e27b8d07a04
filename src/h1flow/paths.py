"""Paths in curve space and their L2(ds) lengths.

A path is a finite frame sequence sampled at uniform times in [0, 1]. The
length functional integrates the L2(ds) speed with a left-endpoint rule; in
quotient mode the velocity is first projected onto the left frame's normals,
which is what makes reparametrization-heavy paths cheap and underlies the
vanishing-distance demonstrations (shrink, twist, zigzag). With the
difference quotient v = dX_k / dt of the frame difference dX_k = X_{k+1} -
X_k, the rule's sum_k ||v||_{L2(ds)} dt is sum_k ||dX_k||_{L2(ds)}, and the
walk sums that, with no division by dt. The norm is the L2(ds) sum of the
curves module, the one that gradient's inner products use, of |dX|^2 by
_dot, or of <dX, N>^2 from the tangent's columns in quotient mode.

Every frame, explicit or generated, passes the one gate, curves.arc_data,
which refuses a non-finite coordinate, one outside the stated range
|X| < 2^300, or a collapsed edge. A path's frames are one read-only
sequence, _Frames, whose frame k is form(*data, k) for a module-level form
and its recipe data, measured in place when it is read, as the flow
measures its states. Explicit frames pass the gate once each when the path
is built, and their vertices are copied into one read-only (m, n, 2)
table, which operator.getitem reads a row at a time. The three families
keep their recipe instead (the base vertices with the schedule, the scale,
or the twist), so a generated path's memory does not grow with its frame
count. Every path pickles and deep-copies, and its copy keeps each recipe
array read-only. A length is one pairwise walk over the frames: each frame
is read, and so measured, once (its ArcData, whose arclength s it never
reads). A quotient walk also sums the full norm from the same dX and ds,
and takes the normal component from the columns of the unit tangent of
_tangent, which only this walk forms: a full walk and a record of the flow
never do, so a cusp, which has no normal, fails only the quotient length.
Inside the gate's range no product or sum of the walk overflows. The path
keeps the lengths it has walked, shared with its as_mode copies, which
relabel the same frames.

The families form each frame as a blend of vertices, in a fresh float
(n, 2) array that _owned makes a curve in place, with no copy: a
C-ordered one for _shrink and _reparam, and for _zigzag the transpose of a
(2, n) array, an F-ordered view whose coordinate columns are contiguous for
the gate's and the walk's per-coordinate passes. No family
bounds its source coordinates in advance: the gate refuses a non-finite
frame, or one outside its range, when the frame is formed. zigzag_path
gathers both base frames of a blend from the table inside an explicit
base's frames, so all the zigzags of one base share it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import pairwise
from operator import getitem

import numpy as np

from .curves import ArcData, PolyCurve, _dot, _l2ds_term, _owned, _tangent, _unit_edges, arc_data
from .errors import DegenerateCurve, UsageError
from .shapes import _count

MODES = ("full", "quotient")


class _Frames(Sequence):
    """The frames of a path, formed and measured when read: frame k is
    form(*data, k), a float (n, 2) array, which _owned makes a curve with
    no copy and _accept measures. form is a module-level function and data
    its recipe, so the sequence pickles: operator.getitem over the
    read-only table of explicit frames, whose row k it views, or the
    _shrink, _reparam or _zigzag of a family, which forms a fresh array
    (C-ordered, or for a zigzag an F-ordered view). Every array in data is
    read-only, also after a pickle or a deep copy. A frame with a
    non-finite coordinate, or one outside the gate's range |X| < 2^300,
    raises FloatingPointError, and one with an edge of zero length
    DegenerateCurve("degenerate frame in path"). An index reads one frame,
    negative ones included, and a slice a tuple of them; each read forms
    and measures its frames afresh."""

    def __init__(self, count: int, form, *data):
        self.__setstate__({"_count": count, "_form": form, "_data": data})

    def __setstate__(self, state):
        """Set on a new sequence, and on a pickled or deep-copied one: its
        recipe arrays are read-only."""
        self.__dict__.update(state)
        for a in self._data:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k):
        at = range(self._count)[k]
        return tuple(map(self._frame, at)) if isinstance(at, range) else self._frame(at)

    def _frame(self, k: int) -> ArcData:
        return _accept(_owned(self._form(*self._data, k)))


def _accept(curve: PolyCurve) -> ArcData:
    """arc_data(curve), the one gate, with a collapsed edge refused as
    DegenerateCurve("degenerate frame in path"): for a frame read from
    _Frames, its measurement, and for an explicit one, its check when the
    path is built."""
    try:
        return arc_data(curve)
    except DegenerateCurve:
        raise DegenerateCurve("degenerate frame in path") from None


@dataclass(frozen=True, eq=False)
class CurvePath:
    """Frames sampled at uniform times in [0, 1], under a length mode. The
    frames are a _Frames, kept as they are passed, or explicit curves of one
    vertex count, each passed through the one gate, arc_data, by _accept
    when the path is built: a measured frame (ArcData) passes as it is. The
    ArcData of that check is not kept; the path keeps the frames' vertices
    in the read-only table of its _Frames, which measures each frame again
    when it is read."""

    frames: Sequence
    mode: str = "full"
    # the walked lengths by mode, shared with the as_mode copies
    _lengths: dict = field(default_factory=dict, init=False, repr=False)

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
                _accept(f)
            frames = _Frames(len(frames), getitem, np.stack([f.vertices for f in frames]))
        _check_mode(self.mode)
        object.__setattr__(self, "frames", frames)

    @property
    def n(self) -> int:
        return self.frames[0].n


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


def as_mode(path: CurvePath, mode: str) -> CurvePath:
    """The path's frames, the same sequence, under another mode. Only the
    mode is checked: the frames were checked when the path was built, or
    are checked as they are formed. The copy shares the path's frames and
    lengths."""
    _check_mode(mode)
    out = object.__new__(CurvePath)
    out.__dict__.update(path.__dict__, mode=mode)
    return out


def _normal_sq(d: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """<d, N>^2 = (d_y T_x - d_x T_y)^2, formed and squared in one array."""
    dn = d[:, 1] * tx
    dn -= d[:, 0] * ty
    return np.multiply(dn, dn, out=dn)


def _walk(frames, quotient: bool) -> dict:
    """The full length and, when quotient, the quotient length of measured
    frames, by mode, from one pass: each frame is read, and so measured,
    once. Each pair adds sqrt(sum_i q_i ds_i) of the squares
    q of its frame difference d = X_{k+1} - X_k, |d|^2 and, when quotient,
    <d, N>^2, with no division by dt. Both frames lie inside the gate's
    range, so |d| < 2^301 and no square or sum overflows."""
    full = quot = 0.0
    for left, right in pairwise(frames):
        d = right.vertices - left.vertices
        full += np.sqrt(_l2ds_term(left, _dot(d, d)))
        if quotient:
            tx, ty = _tangent(*_unit_edges(left))
            quot += np.sqrt(_l2ds_term(left, _normal_sq(d, tx, ty)))
    return {"full": float(full), "quotient": float(quot)} if quotient else {"full": float(full)}


def path_length_l2ds(path: CurvePath) -> float:
    """sum_k sqrt(sum_i |X_{k+1,i} - X_{k,i}|^2 ds_i), which is the
    left-endpoint rule sum_k sqrt(sum_i |v_i|^2 ds_i) dt for the frame
    difference quotient v, formed without dividing by dt; ds and (in
    quotient mode) the normals come from the left frame. A length the path,
    or an as_mode copy of it, has walked is not walked again; a quotient
    walk gives the full length too. Every frame lies inside the gate's
    range, so the length is finite; a frame outside it raises
    FloatingPointError when read, and no length is kept."""
    lengths = path._lengths
    if path.mode not in lengths:
        lengths.update(_walk(path.frames, path.mode == "quotient"))
    return lengths[path.mode]


def _shrink(V: np.ndarray, t: np.ndarray, lam: float, k: int) -> np.ndarray:
    """Frame k of shrink_path: ((1 - t_k) + t_k lam) V."""
    return ((1.0 - t[k]) + t[k] * lam) * V


def shrink_path(curve: PolyCurve, lam: float, frames: int) -> CurvePath:
    """Linear homothety toward lam * curve: frame k is ((1 - t_k) + t_k lam) * curve.
    The frames are formed on demand (see _Frames) and refused, a degenerate
    one with DegenerateCurve("degenerate frame in path"), when formed."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    _count("frames", frames, 2)
    t = np.linspace(0.0, 1.0, frames)
    return CurvePath(frames=_Frames(frames, _shrink, curve.vertices, t, lam))


def _reparam(V: np.ndarray, delta: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """Frame k of reparam_path: the polygon V at the fractional vertex index
    p = i + t_k delta_i (periodic), vertex floor(p) blended with its
    successor."""
    n = len(V)
    p = np.mod(np.arange(n, dtype=float) + t[k] * delta, n)
    idx = np.floor(p).astype(int) % n
    frac = p - np.floor(p)
    nxt = (idx + 1) % n
    return V[idx] * (1.0 - frac)[:, None] + V[nxt] * frac[:, None]


def reparam_path(curve: PolyCurve, twist, frames: int) -> CurvePath:
    """Path that slides the parametrization: frame k samples the polygon at
    index i + t_k * twist_i. The twist is a per-vertex index displacement whose
    endpoint i + twist_i must stay strictly increasing (an orientation-
    preserving circle bijection); anything else, a non-finite twist among
    them, raises UsageError. The path keeps its own read-only copy of the
    twist, so a later change to the caller's array moves no frame. The
    frames are formed on demand (see _Frames) and refused, a degenerate one
    with DegenerateCurve("degenerate frame in path"), when formed.
    """
    _count("frames", frames, 2)
    delta = np.array(twist, dtype=float)
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
    return CurvePath(frames=_Frames(frames, _reparam, curve.vertices, delta, t))


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


def _zigzag(flat: np.ndarray, mu: np.ndarray, omu: np.ndarray, rows: np.ndarray, m: int,
            j: int) -> np.ndarray:
    """Frame j of zigzag_path over the flat table of m base frames of n
    vertices, coordinate c of frame k, vertex i at flat[2 (k n + i) + c]:
    the blend of the two base frames around each vertex's phase at
    t = j / (4 (m - 1)), written into the two contiguous rows of a fresh
    (2, n) array and returned as its transpose, an F-ordered (n, 2) view.
    rows is 2 i, and omu is 1 - mu."""
    n = mu.size
    t = j / (4 * (m - 1))
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
    verts = np.empty((2, n))  # one contiguous row per coordinate
    # every index lies in range: "clip" only spares take's buffering
    for c in range(2):
        a = flat[c:].take(at, out=verts[c], mode="clip")
        a *= ow
        b = flat[2 * n + c:].take(at, mode="clip")  # the frame a step later
        b *= w
        a += b
    return verts.T


def zigzag_path(base: CurvePath, teeth: int) -> CurvePath:
    """Traverse the base path on a two-phase block schedule: even blocks move
    at double speed while t < 1/2 and then hold, odd blocks hold and then
    move. Block centers follow those schedules exactly; toward the block
    boundaries the per-vertex schedule interpolates smoothly between the two
    phases (see _schedule_weights). The final frame is the base's final frame.

    Vertex i of frame j blends vertex i of the two base frames around its
    phase (see _zigzag). Both frames are gathered, a coordinate at a time,
    at one index into the flat table of the base frames, the right-hand one
    from the view of the table a frame later. The table is the one inside
    an explicit base's frames, shared by all its zigzags; a generated base
    is made explicit, its frames stacked into one, for each zigzag. The
    path keeps the table and the schedule and forms frame j when it is read
    (see _Frames); a frame is refused, a degenerate one with
    DegenerateCurve("degenerate frame in path"), when formed.
    """
    if base.mode != "full":
        raise ValueError("zigzag needs a full-mode base path")
    n = base.n
    if teeth < 1 or (n // 2) * 2 != n or (n // 2) % teeth != 0:
        raise ValueError(f"teeth must be >= 1 and divide n/2 (n = {n}, teeth = {teeth})")
    frames = base.frames
    if frames._form is not getitem:
        frames = CurvePath(frames=tuple(frames)).frames  # stacks the formed frames
    mu = _schedule_weights(n, teeth)
    m = len(frames)
    return CurvePath(frames=_Frames(4 * (m - 1) + 1, _zigzag, frames._data[0].ravel(), mu, 1.0 - mu,
                                    np.arange(0, 2 * n, 2), m))
