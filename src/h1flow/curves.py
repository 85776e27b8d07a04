"""Closed polygonal curves and their purely geometric quantities.

A curve is an ordered list of planar vertices with the closing edge implicit;
PolyCurve keeps one read-only copy of its input; as it holds an array, it
compares and hashes by identity, and so does ArcData.
Everything here is a pure function of the vertex array: arclength data, area,
the sup norm, and the chord-arc embeddedness monitor, all public, and the
vertex tangent and discrete curvature of frame_data, which is internal:
records read their curvature from it. The ArcData of arc_data is itself a
curve, accepted in the curve's place, so a state is measured once; its
cumulative arclength s is computed on first use, since
only the kernel and the chord-arc monitor read it. arc_data measures a
PolyCurve's vertices in place and checks and copies any other input
through PolyCurve. It is the one gate where a curve is accepted or
refused, the flow's states and every frame of a path alike: one maximum
refuses a non-finite coordinate or one outside the stated range
|X| < 2^300, inside which nothing the library forms from a curve
overflows but an inner product (see arc_data); then a collapsed edge is
refused. An array the library forms
itself becomes a curve by _owned, with no copy and no second check, which
arc_data measures: a state of the flow by _measure, every frame of a path
in the paths module, as it is read. total_length, which takes degenerate curves
too, passes no gate: past the double range it returns inf, with no
RuntimeWarning.
The two H1(ds) terms, the L2(ds) sum and the edge term, weight the products
that callers form once by _dot; gradient's inner products and paths use them.
The cyclic differences and sums (_diff, ds, the tangent) are formed in place
in the one shifted copy that _next or _prev makes, so each costs one new
array. _unit_edges forms the outgoing unit edges u and, shifted once, the
incoming ones p; _tangent sums them into the unit tangent in p's arrays.
A quotient path length reads only the tangent, and frame_data reads u and
p for the turning angle of _turning before the tangent is formed.
chord_arc_min chooses how the vertex pairs are visited, by n, and reduces
by (value, i, j) the chunk minima of _row_blocks or _pruned_blocks, which
share the ratio helper _chord_ratios.
_pruned_blocks skips the block pairs that a bounding-box bound or a
straightness bound, from the running sum of the angles of _turning, puts
above a seed ratio: the first skips pairs far apart, the second the short
runs of polygon near the diagonal, whose chord / arc is near 1.
Reading and writing curves is the business of the output module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateCurve


# pair entries per chord-arc block: at least one row of the row scan, or
# the vertex pairs of the fine block pairs that the pruned path evaluates
# at once, and the fine block pairs it bounds at once. For n <= 16384 each
# of the three work arrays of the row scan, rows * (n - 1) doubles with
# rows = _CHORD_BLOCK // n, stays under glibc's 128 KiB mmap threshold, so
# it is never mapped afresh
_CHORD_BLOCK = 16384
# vertex count from which chord_arc_min prunes block pairs: the smallest n
# at which pruning is not slower on a circle, a 5-lobed star, a 2:1 ellipse,
# a square and a barbell. Pruned / row time, in-process, best of 7
# alternating runs of 200 calls (2-vCPU Xeon), over two to four sets:
# 0.99-1.56 at n = 224, 0.73-1.37 at 256, 0.64-1.04 at 272, 0.59-0.98 at
# 288, 0.52-0.98 at 320, 0.43-0.86 at 352 (one set read 1.12 on the
# circle) and 0.38-0.74 at 384. The circle is the slowest case: 1.03-1.04
# at 272, 0.93-0.98 at 288, where its row scan takes about 0.5 ms; the
# seed and the bounds are a fixed cost
_CHORD_PRUNE = 288
# vertices per fine and per coarse block of the pruned path (the fine ones
# grow past n = 16384, so that there are at most about 2048), and the size
# of its strided seed sample
_CHORD_FINE, _CHORD_COARSE, _CHORD_SEED = 8, 64, 64
# the coordinate range of every curve the library measures, |X| < 2^300:
# see arc_data for what it rules out
_RANGE = 2.0 ** 300


@dataclass(frozen=True, eq=False)
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

    def __setstate__(self, state):
        """A pickled or deep-copied curve keeps its vertices read-only."""
        self.__dict__.update(state)
        self.vertices.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ArcData(PolyCurve):
    """A measured curve: the vertices of a validated PolyCurve with their ds
    vertex weights, total length, and the edges X_{i+1} - X_i with their
    (positive) lengths. The cumulative arclength s (s[0] = 0) and the
    turning angles are computed on first use and kept: the kernel and the
    chord-arc monitor need s, a record's curvature and the monitor the
    angles, and the frames of a path neither."""

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

    @cached_property
    def turning(self) -> np.ndarray:
        """The signed turning angle at each vertex, _turning of the unit
        edges; frame_data forms it from the unit edges it reads anyway and
        keeps it here."""
        return _turning(*_unit_edges(self))


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


@np.errstate(over="ignore")
def total_length(curve: PolyCurve) -> float:
    """Perimeter of the polygon. Defined for degenerate curves too, and
    inf, with no RuntimeWarning, once an edge's squared length overflows,
    which only a curve outside arc_data's range can do."""
    return float(edge_lengths(curve).sum())


def _owned(X: np.ndarray) -> PolyCurve:
    """The curve whose vertices are X itself, marked read-only in place and
    neither copied nor checked. Only for a float (n, 2) array with n >= 3
    that its caller owns and has arc_data check, as _measure and a generated
    path's frames do, or for a row of a read-only table of checked vertices
    that its caller owns, as an explicit path's frames are, which arc_data
    measures again when they are read."""
    X.flags.writeable = False
    curve = object.__new__(PolyCurve)
    object.__setattr__(curve, "vertices", X)
    return curve


def arc_data(curve: PolyCurve | np.ndarray) -> ArcData:
    """Edges, edge lengths and the vertex quadrature weight
    ds_i = (|X_i - X_{i-1}| + |X_{i+1} - X_i|) / 2; the cumulative arclength
    s_i follows on first use. The one gate where a curve is accepted or
    refused. One maximum m of |X| refuses a non-finite coordinate (it is
    NaN or inf if any coordinate is), then a coordinate outside the range
    m < _RANGE = 2^300, with FloatingPointError naming the range, before
    any edge is formed; then a collapsed edge raises DegenerateCurve. A
    curve that is already measured is returned as it is, and a PolyCurve's
    vertices are measured in place. Any other input, an array read-only or
    not, is checked and copied by PolyCurve first.

    Inside the range no measurement, kernel sweep, step, record sum or
    path walk of an accepted curve overflows. With m < 2^300: an edge and
    every coordinate difference are below 2^301, their squares and sums of
    squares below 2^603 n, and L, ds and s below 2^302 n; the kernel
    sweep's terms e^(+-256) ds X, and its sums and closing products, stay
    below 2^971 n, so the velocity and an RK4 step (|h| <= 2) below
    2^976 n; a record's L^2, area, |X|^2 ds and n sum |e|^2 below
    2^905 n^2; and a walk's |dX|^2 ds < 2^905 n per frame pair. Each is
    below 2^1024 for any n < 2^48. Of the array operations on an accepted
    curve only the inner products' can pass the double range: their
    fields, the velocity among them, are not bounded by the range, and
    their edge term divides by the edge lengths; they give inf or nan,
    with overflow ignored. The scheme resolves a curve
    only while e L stays below about 21.7, so the range refuses no curve
    it can follow.
    """
    if isinstance(curve, ArcData):
        return curve
    X = (curve if isinstance(curve, PolyCurve) else PolyCurve(curve)).vertices
    m = float(np.abs(X).max())
    if not math.isfinite(m):
        raise FloatingPointError("curve coordinates are not finite")
    if m >= _RANGE:
        raise FloatingPointError("curve coordinates outside the range |X| < 2^300")
    ev = _diff(X)
    el = _norm(ev)
    if el.min() <= 0.0:
        raise DegenerateCurve("zero-length edge")
    ds = _prev(el)
    ds += el
    ds *= 0.5
    return ArcData(vertices=X, ds=ds, length=float(el.sum()), edges=ev, edge_lengths=el)


def _measure(X: np.ndarray) -> ArcData:
    """The measured curve with vertices X itself, not a copy, for a state
    of the flow or its profile: _owned marks X read-only and makes it a curve, which this
    module's arc_data binding accepts or refuses."""
    return arc_data(_owned(X))


@np.errstate(over="ignore", invalid="ignore")
def signed_area(curve: PolyCurve) -> float:
    """Shoelace area; positive for counterclockwise orientation. Past the
    double range it is inf or nan, with no RuntimeWarning."""
    x = curve.vertices[:, 0]
    y = curve.vertices[:, 1]
    nxt = _next(curve.vertices)
    return float(0.5 * np.sum(x * nxt[:, 1] - nxt[:, 0] * y))


def _unit_edges(ad: ArcData):
    """The x and y columns of the outgoing unit edges u of a measured curve,
    and of the incoming ones p = _prev(u), in their own shifted arrays."""
    ux = ad.edges[:, 0] / ad.edge_lengths
    uy = ad.edges[:, 1] / ad.edge_lengths
    return ux, uy, _prev(ux), _prev(uy)


def _turning(ux, uy, px, py):
    """The signed turning angle at each vertex, in [-pi, pi], from the
    incoming unit edge p to the outgoing one u: arctan2(p x u, p . u), from
    the columns of _unit_edges."""
    return np.arctan2(px * uy - py * ux, px * ux + py * uy)


def _tangent(ux, uy, px, py):
    """The x and y columns of the unit vertex tangent T, u + p normalized,
    from the columns of _unit_edges. The sum and the quotient are formed in
    place in p's arrays, and |u + p| in u's, all four overwritten, so no
    further array is made; a caller that reads u or p does so first. The
    normal is N = rot90(T) = (-T_y, T_x). A cusp, where u + p vanishes, is
    refused."""
    px += ux
    py += uy
    tn = np.multiply(px, px, out=ux)
    tn += np.multiply(py, py, out=uy)
    np.sqrt(tn, out=tn)
    if tn.min() <= 0.0:
        raise DegenerateCurve("cusp vertex: adjacent edges anti-parallel")
    return np.divide(px, tn, out=px), np.divide(py, tn, out=py)


def frame_data(curve: PolyCurve):
    """((T_x, T_y), k) for any curve arc_data accepts: the columns of the
    unit vertex tangent T, whose normal is N = rot90(T) = (-T_y, T_x), and
    the signed curvature k_i, the _turning angle at vertex i divided by
    ds_i, the angle the chord-arc monitor bounds its ratios by. The angle
    reads u and p before _tangent overwrites them, so the edges are shifted
    once, and is kept as the measured curve's turning, where the monitor
    reads it. Records take their curvature from it; not exported."""
    ad = arc_data(curve)
    ux, uy, px, py = _unit_edges(ad)
    # the cached_property's slot, filled from the unit edges at hand
    turning = ad.__dict__["turning"] = _turning(ux, uy, px, py)
    return _tangent(ux, uy, px, py), turning / ad.ds


def _as_field(curve: PolyCurve, field) -> np.ndarray:
    f = np.asarray(field, dtype=float)
    if f.shape != (curve.n, 2):
        raise ValueError(f"field must have shape ({curve.n}, 2)")
    return f


def _l2ds_term(ad: ArcData, q: np.ndarray) -> float:
    """sum_i q_i ds_i for per-vertex products q = _dot(v, w) on a measured curve:
    the L2(ds) inner product and the zeroth-order term of the H1(ds) one.
    q, a fresh array of its caller's, is scaled by ds in place."""
    return float(np.multiply(q, ad.ds, out=q).sum())


def _edge_term(ad: ArcData, q: np.ndarray) -> float:
    """sum_edges q_i / e_i for per-edge products q = _dot(_diff(v), _diff(w)),
    e the edge length: the first-order term of the H1(ds) inner product."""
    return float((q / ad.edge_lengths).sum())


@np.errstate(over="ignore", invalid="ignore")
def sup_norm(curve: PolyCurve) -> float:
    """max_i |X_i|; inf, with no RuntimeWarning, once a squared norm
    overflows."""
    return float(_norm(curve.vertices).max())


def _chord_ratios(xi, yi, si, xj, yj, sj, length, shape, work, positive):
    """chord / arc for the pairs of the broadcast vertex columns (xi, yi, si)
    and (xj, yj, sj), as an array of `shape` in the work arrays: chord =
    sqrt(dx * dx + dy * dy), arc = min(gap, L - gap) with gap = s_j - s_i,
    and inf where the arc is not positive, that is where either the gap or
    L - gap is not. work holds three float arrays and positive a bool one,
    each of at least as many entries; every operation writes into them in
    the order of the expressions it stands for, so the bits are those of
    evaluating the pairs afresh."""
    size = math.prod(shape)
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
    np.greater(c, 0.0, out=pos)
    b.fill(np.inf)
    np.divide(a, c, out=b, where=pos)  # ratio, inf where the arc <= 0
    return b


def _grid_min(x, y, s, length, rows, cols, work, positive):
    """(value, i, j) of the first minimum, in row order, of the ratios of
    the vertices of the slice rows against those of the slice cols."""
    ri, ci = range(x.shape[0])[rows], range(x.shape[0])[cols]
    r = _chord_ratios(x[rows, None], y[rows, None], s[rows, None],
                      x[None, cols], y[None, cols], s[None, cols],
                      length, (len(ri), len(ci)), work, positive)
    k, col = divmod(int(np.argmin(r)), len(ci))
    return r[k, col], ri[k], ci[col]


def _row_blocks(x, y, s, length):
    """(value, i, j) of the first minimum of each row block i0:i0+rows
    against the columns i0+1:n, about _CHORD_BLOCK pairs or one row at a
    time, in row order."""
    n = x.shape[0]
    rows = min(n - 1, max(1, _CHORD_BLOCK // n))
    work = np.empty((3, rows * (n - 1)))
    positive = np.empty(rows * (n - 1), dtype=bool)
    for i0 in range(0, n - 1, rows):
        yield _grid_min(x, y, s, length, slice(i0, min(i0 + rows, n - 1)), slice(i0 + 1, n),
                        work, positive)


def _boxes(x, y, s, turn, size):
    """Per block of `size` consecutive vertices, the last one shorter if n
    is not a multiple: the x and y bounds of its bounding box, its first
    and last arclength, and the running absolute turning turn at its first
    vertex and at the one before its last."""
    starts = np.arange(0, x.shape[0], size)
    ends = np.minimum(starts + size, x.shape[0]) - 1
    lo, hi = np.minimum.reduceat, np.maximum.reduceat
    return (lo(x, starts), hi(x, starts), lo(y, starts), hi(y, starts), s[starts], s[ends],
            turn[starts], turn[ends - 1])


def _reaches(box, p, q, length, limit, reach):
    """True for the block pairs (p, q), p <= q, of _boxes that may hold a
    ratio at or below limit: those whose bound, the bounding-box distance
    over the largest arc the pair can hold, min(s_hi,q - s_lo,p,
    L - (s_lo,q - s_hi,p), L/2), does not exceed it, NaN included, and
    whose turning at the vertices strictly inside their forward span is not
    below reach."""
    x_lo, x_hi, y_lo, y_hi, s_lo, s_hi, t_lo, t_hi = box
    with np.errstate(all="ignore"):
        dist2 = 0.0  # the squared bounding-box distance, as chord^2 is summed
        for lo, hi in ((x_lo, x_hi), (y_lo, y_hi)):
            gap = np.maximum(np.maximum(lo[q] - hi[p], lo[p] - hi[q]), 0.0)
            dist2 = dist2 + gap * gap
        arc = np.minimum(s_hi[q] - s_lo[p], length - (s_lo[q] - s_hi[p]))
        straight = t_hi[q] - t_lo[p] < reach
        return ~(np.sqrt(dist2) / np.minimum(arc, 0.5 * length) > limit) & ~straight


def _pruned_blocks(x, y, s, length, turn, mu):
    """(value, i, j) of the minimum of each chunk of the pairs that survive
    the two-level block bounds, at the chunk's lowest (i, j); the chunks
    come in no (i, j) order. turn is the running sum of the vertices'
    absolute turning angles and mu the relative rounding of a ratio
    against chord / forward arc, inf where the straightness bound is off."""
    n = x.shape[0]
    # fine blocks of _CHORD_FINE vertices, or more from n = 16384 on, so
    # that there are at most about 2048, and coarse ones of `ratio` of them
    fine = max(_CHORD_FINE, -(-n * _CHORD_FINE // _CHORD_BLOCK))
    ratio = _CHORD_COARSE // _CHORD_FINE
    work = np.empty((3, max(_CHORD_BLOCK, n, fine * fine)))
    positive = np.empty(work.shape[1], dtype=bool)
    # the seed: the best pair (i, j) of a strided sample, then the best of
    # the window of w <= stride about it, (2 w + 1)^2 <= _CHORD_BLOCK pairs,
    # and the best pair (i, i + 2); real pairs' ratios, so at least the
    # true minimum
    stride = -(-n // _CHORD_SEED)
    _, i, j = _grid_min(x, y, s, length, slice(0, n, stride), slice(0, n, stride), work, positive)
    w = min(stride, _CHORD_SEED - 1)
    seed, _, _ = _grid_min(x, y, s, length, slice(max(0, i - w), i + w + 1),
                           slice(max(0, j - w), j + w + 1), work, positive)
    near = _chord_ratios(x[None, :-2], y[None, :-2], s[None, :-2], x[None, 2:], y[None, 2:],
                         s[None, 2:], length, (1, n - 2), work, positive).min()
    limit = min(seed, near) * (1.0 + 1e-9)
    # the turning below which a forward span holds no ratio at or below
    # limit: 2 acos(limit (1 + 4 mu)), less its rounding margins
    cos = limit * (1.0 + 4.0 * mu) if mu < 0.5 else 1.0
    reach = (2.0 * math.acos(min(cos, 1.0)) * (1.0 - 2.0 ** -48)
             - 2.0 ** -48 * n * (1.0 + float(turn[-1])))
    # the coarse block pairs that survive, then, a chunk of them at a time,
    # their fine block pairs that survive
    P, Q = np.triu_indices(-(-n // (fine * ratio)))
    keep = _reaches(_boxes(x, y, s, turn, fine * ratio), P, Q, length, limit, reach)
    P, Q = P[keep], Q[keep]
    boxes = _boxes(x, y, s, turn, fine)
    nf = boxes[0].size
    da, db = np.divmod(np.arange(ratio * ratio), ratio)
    # the blocks padded to nf * fine vertices; an s of -inf in the rows and
    # of +inf in the columns skips every pair with a padded vertex
    xb, yb, sb, sr = (np.append(v, np.full(nf * fine - n, pad)).reshape(nf, fine)
                      for v, pad in ((x, 0.0), (y, 0.0), (s, np.inf), (s, -np.inf)))
    step, pairs = _CHORD_BLOCK // ratio ** 2, max(1, _CHORD_BLOCK // fine ** 2)
    for c0 in range(0, P.size, step):
        p = (ratio * P[c0:c0 + step, None] + da).ravel()
        q = (ratio * Q[c0:c0 + step, None] + db).ravel()
        ok = (p <= q) & (q < nf)
        p, q = p[ok], q[ok]
        keep = _reaches(boxes, p, q, length, limit, reach)
        p, q = p[keep], q[keep]
        # the surviving fine block pairs, about _CHORD_BLOCK vertex pairs at
        # a time, each chunk's minimum at its lowest (i, j)
        for f0 in range(0, p.size, pairs):
            pf, qf = p[f0:f0 + pairs], q[f0:f0 + pairs]
            r = _chord_ratios(xb[pf, :, None], yb[pf, :, None], sr[pf, :, None],
                              xb[qf, None], yb[qf, None], sb[qf, None],
                              length, (pf.size, fine, fine), work, positive)
            f, a, b = np.unravel_index(np.flatnonzero(r == r.min()), r.shape)
            i, j = fine * pf[f] + a, fine * qf[f] + b
            k = np.lexsort((j, i))[0]
            yield r[f[k], a[k], b[k]], int(i[k]), int(j[k])


def chord_arc_min(curve: PolyCurve) -> ChordArcResult:
    """Minimum over vertex pairs of chord length / shorter-arc separation.

    Ties resolve to the lexicographically lowest (i, j) pair. The value lies
    in [0, 1]: 0 means self-contact, two vertices that coincide, and small
    values flag near self-contact.

    A pair is evaluated by _chord_ratios where its arc min(gap, L - gap),
    with gap = s_j - s_i, is positive: s increases, so these are the pairs
    j > i whose separation is representable. A pair whose gap rounds to
    zero is skipped, and so is one whose gap exceeds L, which happens when
    the last edge is shorter than the rounding gap between arc_data's two
    sums of the edges. The ratio is exactly symmetric, so the lowest tied
    (i, j) lies in that triangle. Below _CHORD_PRUNE vertices every such
    pair is evaluated, in row blocks.

    From there on a seed ratio U comes from three real pairs' ratios: the
    best pair of a strided sample of at most _CHORD_SEED vertices, the best
    of a window of up to a stride about it, and the best pair (i, i + 2),
    where the minimum of a jagged curve often lies. The vertices are cut
    into fine blocks of _CHORD_FINE and coarse blocks of _CHORD_COARSE. A
    block pair is skipped when its bounding-box distance over the largest
    arc it can hold, min(s_hi,J - s_lo,I, L - (s_lo,J - s_hi,I), L/2),
    exceeds U (1 + 1e-9): first every coarse pair is bounded, then only the
    fine pairs inside the coarse survivors, a chunk of them at a time. Each
    operation of that bound rounds monotonically, so it is at most every
    computed ratio in the block pair, and every pair that can reach the
    minimum, or tie it, is evaluated; the margin is a further guard, and a
    NaN bound skips nothing. A block pair whose largest arc is not
    positive holds only skipped pairs. The surviving pairs are evaluated
    with the row scan's expressions, in chunks of about _CHORD_BLOCK pairs
    in work arrays allocated once per call, so memory is O(n). The row
    scan's chunks come in (i, j) order, and argmin keeps the first minimum
    of each; a pruned chunk gives its minimum at its lowest (i, j). The
    chunk minima reduce by one min over (value, i, j), so an exact tie
    resolves to the lower (i, j), as the pruned path's chunks come in no
    (i, j) order. Inside arc_data's range every arc is finite and no ratio
    is NaN.

    Block pairs on or next to the diagonal touch, so their box bound is 0;
    a straightness bound skips them. Let Theta be the absolute turning
    sum |phi_k| at the vertices strictly inside the forward span from the
    first vertex of I to the last of J. If Theta < pi, every edge of the
    span points within Theta/2 of one direction, so each pair (i, j) of the
    block pair has chord >= A cos(Theta/2), A = sum |e_k| the arc from i to
    j, while min(gap, L - gap) <= gap. In rounding, with u = 2^-53 and e_min
    the shortest edge: the computed chord is at least chord (1 - u)^3; an
    edge length at most |e_k| (1 + u)^3; each step of the cumsum s errs by
    at most u s[-1] <= 2 u L, so the computed gap is at most
    A (1 + u)^4 (1 + 2 u L / e_min); the quotient rounds by (1 - u). So
    every computed ratio is at least cos(Theta/2) (1 - mu), with
    mu = 2^-50 (1 + 2 L / e_min). The computed Theta, a difference of the
    running sum T of |_turning|, errs by at most
    eps = 2^-48 n (1 + T[-1]): an angle by at most 16 u (2 u from each unit
    edge's direction, 3 u from their cross and dot products, 8 u from
    arctan2), each step of the sum by u T[-1], the difference by u pi. A
    block pair is skipped when its computed Theta is below
    2 acos(U' (1 + 4 mu)) (1 - 2^-48) - eps, U' = U (1 + 1e-9): the factor
    1 - 2^-48 covers the rounding of acos, which is within a few ulp, and of
    U' (1 + 4 mu), also where that is subnormal. Then Theta / 2 <
    acos(U' (1 + 4 mu)) <= pi/2, and for mu < 1/2 every ratio in the pair is at least
    cos(Theta/2) (1 - mu) > U' (1 + 4 mu) (1 - mu) (1 - u)^2 >= U'.
    Where mu >= 1/2, for a shortest edge below about 2^-48 L, the reach is
    negative, and the bound skips only a last block of one vertex against
    itself, which holds no pair. Both bounds are applied to the coarse
    block pairs and to the fine ones. Inside arc_data's range no chord's
    square overflows.
    """
    ad = arc_data(curve)
    n = curve.n
    x = curve.vertices[:, 0]
    y = curve.vertices[:, 1]
    s = ad.s
    L = ad.length
    if n < _CHORD_PRUNE:
        blocks = _row_blocks(x, y, s, L)
    else:
        mu = 2.0 ** -50 * (1.0 + 2.0 * L / float(ad.edge_lengths.min()))
        turn = np.abs(ad.turning).cumsum()
        blocks = _pruned_blocks(x, y, s, L, turn, mu)
    value, i, j = min(blocks)
    return ChordArcResult(value=float(value), i=i, j=j)
