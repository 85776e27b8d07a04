"""Closed polygonal curves and their purely geometric quantities.

A curve is an ordered list of planar vertices with the closing edge implicit;
PolyCurve keeps one read-only copy of its input.
Everything here is a pure function of the vertex array: arclength data, area,
tangent/normal frames, discrete curvature, field norms in the du and ds
measures, and the chord-arc embeddedness monitor. The ArcData of arc_data is
itself a curve, accepted in the curve's place, so a state is measured once;
its cumulative arclength s is computed on first use, since only the kernel
and the chord-arc monitor read it. arc_data measures a PolyCurve's vertices
in place and checks and copies any other input through PolyCurve. The flow,
which checks and owns its stepped arrays, makes them curves through _owned,
with no copy and no second check.
The two H1(ds) terms, the L2(ds) sum and the edge term, weight the products
that callers form once by _dot; norms, gradient's inner products and paths
use them.
The cyclic differences and sums (_diff, ds, the tangent) are formed in place
in the one shifted copy that _next or _prev makes, so each costs one new
array. _unit_frames forms the outgoing unit edges and the unit tangent,
which is all a quotient path length reads; _tangent_curvature shifts the
edges once more for the turning angle.
chord_arc_min chooses how the vertex pairs are visited, by n, and reduces
the block minima of _row_blocks or _pruned_blocks, which share the ratio
helper _chord_ratios.
Reading and writing curves is the business of the output module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateCurve


# pair entries per chord-arc block: at least one row of the row scan, or one
# vertex against one block of the pruned path. For n <= 16384 each of the
# three work arrays of the row scan, rows * (n - 1) doubles with
# rows = _CHORD_BLOCK // n, stays under glibc's 128 KiB mmap threshold, so
# it is never mapped afresh
_CHORD_BLOCK = 16384
# vertex count from which chord_arc_min prunes block pairs. In-process, best
# of 15, on a circle, a 5-lobed star and a 2:1 ellipse (2-vCPU Xeon): the
# row scan took 0.6, 2.2 and 4.8 ms at n = 256, 512 and 768, the pruned path
# 0.9-1.5, 1.2-2.2 and 1.6-2.9 ms. Its seed and bounds are a fixed cost: the
# scan wins at 256, the two are about even at 384 and 512, and pruning wins
# by 1.7x or more from 768 on
_CHORD_PRUNE = 768


@dataclass(frozen=True)
class PolyCurve:
    """Closed polygon: vertices[i] connects to vertices[(i+1) % n]."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if v.shape[0] < 3:
            raise ValueError("a closed curve needs at least 3 vertices")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class ArcData(PolyCurve):
    """A measured curve: the vertices of a validated PolyCurve with their ds
    vertex weights, total length, and the edges X_{i+1} - X_i with their
    (positive) lengths. The cumulative arclength s (s[0] = 0) is computed on
    first use and kept: the kernel and the chord-arc monitor need it, the
    frames of a path do not."""

    ds: np.ndarray
    length: float
    edges: np.ndarray
    edge_lengths: np.ndarray

    def __post_init__(self):
        """No revalidation: the vertices are those of a validated PolyCurve."""

    @cached_property
    def s(self) -> np.ndarray:
        """Cumulative arclength at the vertices, s[0] = 0: the running sum of
        the edge lengths, shifted down one place in its own array."""
        s = self.edge_lengths.cumsum()
        s[1:] = s[:-1]
        s[0] = 0.0
        return s


@dataclass(frozen=True)
class FrameData:
    """Unit tangent T, unit normal N = rot90(T), signed curvature k per vertex."""

    tangent: np.ndarray
    normal: np.ndarray
    curvature: np.ndarray


@dataclass(frozen=True)
class FieldNorms:
    linf: float
    l2_du: float
    l2_ds: float
    h1_du: float
    h1_ds: float


@dataclass(frozen=True)
class ChordArcResult:
    value: float
    i: int
    j: int


def _dot(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dot product of the 2-vectors on the last axis, v_x w_x + v_y w_y: the
    one spelling of the per-vertex and per-edge products of the H1(ds) sums."""
    p = v * w
    return p[..., 0] + p[..., 1]


def _norm(v: np.ndarray) -> np.ndarray:
    """Length of the 2-vectors on the last axis, sqrt(_dot(v, v)). NumPy's
    linalg norm over that axis computes sqrt(add.reduce(v*v)) over the same
    two entries, so the bits agree; this skips its per-call overhead."""
    return np.sqrt(_dot(v, v))


def _next(a: np.ndarray) -> np.ndarray:
    """a[i+1] cyclically along the first axis (a roll by -1), from two slices."""
    return np.concatenate((a[1:], a[:1]))


def _prev(a: np.ndarray) -> np.ndarray:
    """a[i-1] cyclically along the first axis (a roll by 1), from two slices."""
    return np.concatenate((a[-1:], a[:-1]))


def _diff(a: np.ndarray) -> np.ndarray:
    """Cyclic forward difference a[i+1] - a[i] along the first axis: the edges
    of a vertex array, the per-edge differences of a field. a is subtracted
    in place from the fresh array of _next(a), so no third array is made."""
    d = _next(a)
    d -= a
    return d


def edge_lengths(curve: PolyCurve) -> np.ndarray:
    return _norm(_diff(curve.vertices))


def total_length(curve: PolyCurve) -> float:
    """Perimeter of the polygon. Defined for degenerate curves too."""
    return float(edge_lengths(curve).sum())


def _owned(X: np.ndarray) -> PolyCurve:
    """The curve whose vertices are X itself, marked read-only in place and
    neither copied nor checked. Only for a float (n, 2) array that its caller
    owns and has found finite with n >= 3, as the flow does its states."""
    X.flags.writeable = False
    curve = object.__new__(PolyCurve)
    object.__setattr__(curve, "vertices", X)
    return curve


def arc_data(curve: PolyCurve | np.ndarray) -> ArcData:
    """Edges, edge lengths and the vertex quadrature weight
    ds_i = (|X_i - X_{i-1}| + |X_{i+1} - X_i|) / 2; the cumulative arclength
    s_i follows on first use. A curve that is already measured is returned
    as it is, and a PolyCurve's vertices are measured in place. Any other
    input, an array read-only or not, is checked and copied by PolyCurve.
    """
    if isinstance(curve, ArcData):
        return curve
    X = (curve if isinstance(curve, PolyCurve) else PolyCurve(curve)).vertices
    ev = _diff(X)
    el = _norm(ev)
    if el.min() <= 0.0:
        raise DegenerateCurve("zero-length edge")
    ds = _prev(el)
    ds += el
    ds *= 0.5
    return ArcData(vertices=X, ds=ds, length=float(el.sum()), edges=ev, edge_lengths=el)


def signed_area(curve: PolyCurve) -> float:
    """Shoelace area; positive for counterclockwise orientation."""
    x = curve.vertices[:, 0]
    y = curve.vertices[:, 1]
    nxt = _next(curve.vertices)
    return float(0.5 * np.sum(x * nxt[:, 1] - nxt[:, 0] * y))


def frame_data(curve: PolyCurve) -> FrameData:
    """Vertex frames from adjacent edges.

    T_i is the normalized average of the two adjacent edge directions,
    N_i = rot90(T_i), and k_i is the signed turning angle at the vertex
    divided by ds_i.
    """
    (tx, ty), k = _tangent_curvature(arc_data(curve))
    return FrameData(tangent=np.stack([tx, ty], axis=1),
                     normal=np.stack([-ty, tx], axis=1),
                     curvature=k)


def _unit_frames(ad: ArcData):
    """The outgoing unit edges u and the unit vertex tangents T of a measured
    curve, each as its x and y columns: the frames of frame_data without the
    curvature. T is u plus the incoming unit edge _prev(u), normalized; the
    sum is formed in place in the shifted copy, so the incoming edges are
    not kept. The normal is N = rot90(T) = (-T_y, T_x)."""
    ux = ad.edges[:, 0] / ad.edge_lengths
    uy = ad.edges[:, 1] / ad.edge_lengths
    tx = _prev(ux)
    tx += ux
    ty = _prev(uy)
    ty += uy
    tn = np.sqrt(tx * tx + ty * ty)
    if tn.min() <= 0.0:
        raise DegenerateCurve("cusp vertex: adjacent edges anti-parallel")
    return (ux, uy), (tx / tn, ty / tn)


def _tangent_curvature(ad: ArcData):
    """The x and y columns of the unit vertex tangent T of a measured curve,
    and its signed curvature k_i: the turning angle at vertex i, from the
    incoming unit edge p to the outgoing one u, divided by ds_i. A cusp is
    refused as in _unit_frames."""
    (ux, uy), tangent = _unit_frames(ad)
    px, py = _prev(ux), _prev(uy)
    return tangent, np.arctan2(px * uy - py * ux, px * ux + py * uy) / ad.ds


def _as_field(curve: PolyCurve, field) -> np.ndarray:
    f = np.asarray(field, dtype=float)
    if f.shape != (curve.n, 2):
        raise ValueError(f"field must have shape ({curve.n}, 2)")
    return f


def _l2ds_term(ad: ArcData, q: np.ndarray) -> float:
    """sum_i q_i ds_i for per-vertex products q = _dot(v, w) on a measured curve:
    the L2(ds) inner product and the zeroth-order term of the H1(ds) one."""
    return float((q * ad.ds).sum())


def _edge_term(ad: ArcData, q: np.ndarray) -> float:
    """sum_edges q_i / e_i for per-edge products q = _dot(_diff(v), _diff(w)),
    e the edge length: the first-order term of the H1(ds) inner product."""
    return float((q / ad.edge_lengths).sum())


def norms(curve: PolyCurve, field) -> FieldNorms:
    """Norms of a per-vertex planar field in the five metrics.

    du uses the uniform weight 1/n; ds uses the arclength weights. Derivative
    terms are per-edge difference quotients weighted by the respective edge
    measure, so the H1 entries are sqrt(L2^2 + derivative part).
    """
    f = _as_field(curve, field)
    n = curve.n
    mag2 = _dot(f, f)
    linf = float(np.sqrt(mag2.max()))
    l2_du_sq = mag2.sum() / n
    l2_du = float(np.sqrt(l2_du_sq))
    df = _diff(f)
    dmag2 = _dot(df, df)
    # du edge measure 1/n, difference quotient df * n
    h1_du = float(np.sqrt(l2_du_sq + n * dmag2.sum()))
    ad = arc_data(curve)
    l2_ds_sq = _l2ds_term(ad, mag2)
    l2_ds = float(np.sqrt(l2_ds_sq))
    h1_ds = float(np.sqrt(l2_ds_sq + _edge_term(ad, dmag2)))
    return FieldNorms(linf=linf, l2_du=l2_du, l2_ds=l2_ds, h1_du=h1_du, h1_ds=h1_ds)


def sup_norm(curve: PolyCurve) -> float:
    return float(_norm(curve.vertices).max())


def _chord_ratios(xi, yi, si, xj, yj, sj, length, shape, work, positive):
    """chord / arc for the pairs of the broadcast vertex columns (xi, yi, si)
    and (xj, yj, sj), as an array of `shape` in the work arrays: chord =
    sqrt(dx * dx + dy * dy), arc = min(gap, L - gap) with gap = s_j - s_i,
    and inf where the gap is not positive. work holds three float arrays and
    positive a bool one, each of at least as many entries; every operation
    writes into them in the order of the expressions it stands for, so the
    bits are those of evaluating the pairs afresh."""
    size = shape[0] * shape[1]
    a, b, c = (w[:size].reshape(shape) for w in work)
    pos = positive[:size].reshape(shape)
    np.subtract(xi, xj, out=a)  # dx
    np.subtract(yi, yj, out=b)  # dy
    np.multiply(a, a, out=a)
    np.multiply(b, b, out=b)
    np.add(a, b, out=a)
    np.sqrt(a, out=a)  # chord
    np.subtract(sj, si, out=b)  # gap
    np.subtract(length, b, out=c)
    np.minimum(b, c, out=c)  # arc
    np.greater(b, 0.0, out=pos)
    b.fill(np.inf)
    np.divide(a, c, out=b, where=pos)  # ratio, inf where gap <= 0
    return b


def _row_blocks(x, y, s, length):
    """(value, i, j) of the first minimum of each row block i0:i0+rows
    against the columns i0+1:n, about _CHORD_BLOCK pairs or one row at a
    time, in row order."""
    n = x.shape[0]
    rows = min(n - 1, max(1, _CHORD_BLOCK // n))
    work = np.empty((3, rows * (n - 1)))
    positive = np.empty(rows * (n - 1), dtype=bool)
    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n - 1)
        shape = (i1 - i0, n - 1 - i0)
        r = _chord_ratios(x[i0:i1, None], y[i0:i1, None], s[i0:i1, None],
                          x[None, i0 + 1:], y[None, i0 + 1:], s[None, i0 + 1:],
                          length, shape, work, positive)
        k, col = divmod(int(np.argmin(r)), shape[1])
        yield r[k, col], i0 + k, i0 + 1 + col


def _pruned_blocks(x, y, s, length):
    """(value, i, j) of the first minimum of each chunk of the pairs that
    survive the block bounds, in (i, j) order. The blocks hold
    max(16, ceil(n / 128)) consecutive vertices, so there are at most 128,
    and a chunk is about _CHORD_BLOCK pairs: vertices against whole blocks.
    Only for curves whose every arc is positive and finite, s[-1] < L < inf."""
    n = x.shape[0]
    stride = -(-n // 128)
    bsz = max(16, stride)
    nb = -(-n // bsz)
    step = max(1, _CHORD_BLOCK // bsz)
    work = np.empty((3, max(_CHORD_BLOCK, bsz)))
    positive = np.empty(work.shape[1], dtype=bool)
    # the seed: a real pair's ratio, so at least the true minimum
    idx = np.arange(0, n, stride)
    seed = _chord_ratios(x[idx, None], y[idx, None], s[idx, None],
                         x[None, idx], y[None, idx], s[None, idx],
                         length, (idx.size, idx.size), work, positive).min()
    # block columns padded to nb * bsz: x and y with the last vertex, which
    # leaves the bounding boxes alone, s with NaN, whose gaps are not positive
    xp, yp, sp = (np.concatenate((v, np.full(nb * bsz - n, pad)))
                  for v, pad in ((x, x[-1]), (y, y[-1]), (s, np.nan)))
    xb, yb, sb = (v.reshape(nb, bsz) for v in (xp, yp, sp))
    s_lo = s[::bsz]
    s_hi = s[np.minimum(np.arange(1, nb + 1) * bsz, n) - 1]
    with np.errstate(all="ignore"):
        dist2 = 0.0  # the squared bounding-box distance, as chord^2 is summed
        for v in (xb, yb):
            lo, hi = v.min(axis=1), v.max(axis=1)
            gap = np.maximum(np.maximum(lo[None, :] - hi[:, None], lo[:, None] - hi[None, :]), 0.0)
            dist2 = dist2 + gap * gap
        arc = np.minimum(s_hi[None, :] - s_lo[:, None], length - (s_lo[None, :] - s_hi[:, None]))
        bound = np.sqrt(dist2) / np.minimum(arc, 0.5 * length)
        keep = np.triu(~(bound > seed * (1.0 + 1e-9)))
    # the units (i, J), vertex i against block J, in (i, J) order: block
    # row I contributes its bsz vertices, each against its kept blocks
    blk, cols = np.nonzero(keep)
    per_row = np.bincount(blk, minlength=nb)
    first = np.concatenate(([0], per_row.cumsum()))
    units = bsz * first
    for u0 in range(0, units[-1], step):
        u = np.arange(u0, min(u0 + step, units[-1]))
        row = np.searchsorted(units, u, side="right") - 1
        a, c = divmod(u - units[row], per_row[row])
        i = row * bsz + a
        col = cols[first[row] + c]
        r = _chord_ratios(xp[i, None], yp[i, None], sp[i, None], xb[col], yb[col], sb[col],
                          length, (u.size, bsz), work, positive)
        k, b = divmod(int(np.argmin(r)), bsz)
        yield r[k, b], int(i[k]), int(col[k]) * bsz + b


def chord_arc_min(curve: PolyCurve) -> ChordArcResult:
    """Minimum over vertex pairs of chord length / shorter-arc separation.

    Ties resolve to the lexicographically lowest (i, j) pair. The value lies
    in (0, 1]; small values flag near self-contact.

    A pair is evaluated by _chord_ratios where its gap s_j - s_i is
    positive: s increases, so these are the pairs j > i whose separation is
    representable, and a pair whose gap rounds to zero is skipped. The ratio
    is exactly symmetric, so the lowest tied (i, j) lies in that triangle.
    Below _CHORD_PRUNE vertices every such pair is evaluated, in row blocks.
    From there on, a strided sample of at most 128 vertices gives a seed
    ratio U, and the vertices are cut into at most 128 contiguous blocks.
    A block pair is skipped when its bounding-box distance over the largest
    arc it can hold, min(s_hi,J - s_lo,I, L - (s_lo,J - s_hi,I), L/2),
    exceeds U (1 + 1e-9). Each operation of that bound rounds monotonically,
    so it is at most every computed ratio in the block pair, and every pair
    that can reach the minimum, or tie it, is evaluated; the margin is a
    further guard, and a NaN bound or seed skips nothing. The bound needs
    every arc positive and finite, s[-1] < L < inf; a curve without that is
    scanned in full. The evaluated pairs come in (i, j) order, in blocks of
    about _CHORD_BLOCK pairs in work arrays allocated once per call, so
    memory is O(n). argmin keeps the first minimum of a block, and a later
    block wins only when strictly smaller, or NaN, which argmin over all
    pairs would pick.
    """
    ad = arc_data(curve)
    n = curve.n
    x = curve.vertices[:, 0]
    y = curve.vertices[:, 1]
    s = ad.s
    L = ad.length
    blocks = _pruned_blocks if n >= _CHORD_PRUNE and s[-1] < L < np.inf else _row_blocks
    best = None
    for value, i, j in blocks(x, y, s, L):
        if best is None or not value >= best.value:
            best = ChordArcResult(value=float(value), i=i, j=j)
            if np.isnan(value):
                break
    return best
