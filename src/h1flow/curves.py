"""Closed polygonal curves and their purely geometric quantities.

A curve is an ordered list of planar vertices with the closing edge implicit;
PolyCurve keeps one read-only copy of its input.
Everything here is a pure function of the vertex array: arclength data, area,
the sup norm, and the chord-arc embeddedness monitor, all public, and the
vertex tangent and discrete curvature, which are internal: records and paths
read them from _tangent_curvature, and frame_data, which the package does
not export, returns them for the benchmark tracer's layer list. The ArcData
of arc_data is itself a curve, accepted in the curve's place, so a state is
measured once; its cumulative arclength s is computed on first use, since
only the kernel and the chord-arc monitor read it. arc_data measures a
PolyCurve's vertices in place and checks and copies any other input
through PolyCurve. It is the one place where a curve is
accepted or refused, by its gate _edges: one maximum refuses a non-finite
coordinate and decides whether the edges are formed under an overflow
context, from _NO_OVERFLOW up; then a collapsed edge, and a length that
overflows, are refused. An array the library forms itself, a state of the
flow or a frame of a generated path, becomes a curve by _measure, which
_owned makes with no copy and no second check, and arc_data measures; an
explicit path checks its frames by _edges alone.
The two H1(ds) terms, the L2(ds) sum and the edge term, weight the products
that callers form once by _dot; gradient's inner products and paths use them.
The cyclic differences and sums (_diff, ds, the tangent) are formed in place
in the one shifted copy that _next or _prev makes, so each costs one new
array. _unit_edges forms the outgoing unit edges u and, shifted once, the
incoming ones p; _tangent sums them into the unit tangent in p's arrays.
A quotient path length reads only the tangent, and _tangent_curvature
reads p for the turning angle before the tangent is formed.
chord_arc_min chooses how the vertex pairs are visited, by n, and reduces
by (value, i, j) the chunk minima of _row_blocks or _pruned_blocks, which
share the ratio helper _chord_ratios; from L >= _NO_OVERFLOW it scans the
curve scaled by a power of two, so that no chord's square overflows.
Reading and writing curves is the business of the output module.
"""

from __future__ import annotations

import contextlib
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
# Coordinates below this bound have edges below 2^501, whose squared norms
# stay under 2^1003: measuring them cannot overflow.
_NO_OVERFLOW = 2.0 ** 500
# the context of a measurement below _NO_OVERFLOW: the caller's, unchanged.
# One stateless instance serves every call, as creating one costs more
_NO_CONTEXT = contextlib.nullcontext()


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

    def __setstate__(self, state):
        """A pickled or deep-copied curve keeps its vertices read-only."""
        self.__dict__.update(state)
        self.vertices.flags.writeable = False


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
    neither copied nor checked. Only for a float (n, 2) array with n >= 3
    that its caller owns and has arc_data check, as _measure does, or for a
    row of a read-only table of checked vertices that its caller owns, as an
    explicit path's frames are."""
    X.flags.writeable = False
    curve = object.__new__(PolyCurve)
    object.__setattr__(curve, "vertices", X)
    return curve


def _edges(X: np.ndarray):
    """The edges X_{i+1} - X_i of the vertices X, their lengths and the
    total length, or the refusal of X: the gate of arc_data, which builds no
    ArcData. One maximum of |X| refuses a non-finite coordinate (it is NaN
    or inf if any coordinate is), and from _NO_OVERFLOW up the edges are
    formed with overflow ignored; a collapsed edge raises DegenerateCurve,
    and a length past the double range FloatingPointError, in that order."""
    m = float(np.abs(X).max())
    if not math.isfinite(m):
        raise FloatingPointError("curve coordinates are not finite")
    with np.errstate(over="ignore") if m >= _NO_OVERFLOW else _NO_CONTEXT:
        ev = _diff(X)
        el = _norm(ev)
        length = float(el.sum())
    if el.min() <= 0.0:
        raise DegenerateCurve("zero-length edge")
    if not math.isfinite(length):
        raise FloatingPointError("curve length overflows the double range")
    return ev, el, length


def arc_data(curve: PolyCurve | np.ndarray) -> ArcData:
    """Edges, edge lengths and the vertex quadrature weight
    ds_i = (|X_i - X_{i-1}| + |X_{i+1} - X_i|) / 2; the cumulative arclength
    s_i follows on first use. The one place where a curve is accepted or
    refused, by _edges: a non-finite coordinate, or a length that overflows,
    raises FloatingPointError, and a collapsed edge DegenerateCurve. A curve
    that is already measured is returned as it is, and a PolyCurve's
    vertices are measured in place. Any other input, an array read-only or
    not, is checked and copied by PolyCurve first.
    """
    if isinstance(curve, ArcData):
        return curve
    X = (curve if isinstance(curve, PolyCurve) else PolyCurve(curve)).vertices
    ev, el, length = _edges(X)
    # outside the overflow context: a finite length bounds every sum of two
    # edge lengths
    ds = _prev(el)
    ds += el
    ds *= 0.5
    return ArcData(vertices=X, ds=ds, length=length, edges=ev, edge_lengths=el)


def _measure(X: np.ndarray) -> ArcData:
    """The measured curve with vertices X itself, not a copy, for an array
    the library formed, a state of the flow or a frame of a generated path:
    _owned marks X read-only and makes it a curve, which this module's
    arc_data binding accepts or refuses."""
    return arc_data(_owned(X))


@np.errstate(over="ignore", invalid="ignore")
def signed_area(curve: PolyCurve) -> float:
    """Shoelace area; positive for counterclockwise orientation. Past the
    double range it is inf or nan, with no RuntimeWarning."""
    x = curve.vertices[:, 0]
    y = curve.vertices[:, 1]
    nxt = _next(curve.vertices)
    return float(0.5 * np.sum(x * nxt[:, 1] - nxt[:, 0] * y))


def frame_data(curve: PolyCurve):
    """((T_x, T_y), k): the columns of the unit vertex tangent and the signed
    curvature of _tangent_curvature, for any curve arc_data accepts; the
    normal is N = rot90(T) = (-T_y, T_x). Not exported: it stays defined as
    a layer that the benchmark tracer lists."""
    return _tangent_curvature(arc_data(curve))


def _unit_edges(ad: ArcData):
    """The x and y columns of the outgoing unit edges u of a measured curve,
    and of the incoming ones p = _prev(u), in their own shifted arrays."""
    ux = ad.edges[:, 0] / ad.edge_lengths
    uy = ad.edges[:, 1] / ad.edge_lengths
    return ux, uy, _prev(ux), _prev(uy)


def _tangent(ux, uy, px, py):
    """The x and y columns of the unit vertex tangent T, u + p normalized,
    from the columns of _unit_edges. The sum is formed in place in p's
    arrays, which it overwrites, so no further array is made; a caller that
    reads p does so first. The normal is N = rot90(T) = (-T_y, T_x). A cusp,
    where u + p vanishes, is refused."""
    px += ux
    py += uy
    tn = np.sqrt(px * px + py * py)
    if tn.min() <= 0.0:
        raise DegenerateCurve("cusp vertex: adjacent edges anti-parallel")
    return px / tn, py / tn


def _tangent_curvature(ad: ArcData):
    """The x and y columns of the unit vertex tangent T of a measured curve,
    and its signed curvature k_i: the turning angle at vertex i, from the
    incoming unit edge p to the outgoing one u, divided by ds_i. The angle
    reads p before _tangent sums into it, so the edges are shifted once."""
    ux, uy, px, py = _unit_edges(ad)
    k = np.arctan2(px * uy - py * ux, px * ux + py * uy) / ad.ds
    return _tangent(ux, uy, px, py), k


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


def _boxes(x, y, s, size):
    """Per block of `size` consecutive vertices, the last one shorter if n
    is not a multiple: the x and y bounds of its bounding box, and its first
    and last arclength."""
    starts = np.arange(0, x.shape[0], size)
    ends = np.minimum(starts + size, x.shape[0]) - 1
    lo, hi = np.minimum.reduceat, np.maximum.reduceat
    return lo(x, starts), hi(x, starts), lo(y, starts), hi(y, starts), s[starts], s[ends]


def _reaches(box, p, q, length, limit):
    """True for the block pairs (p, q), p <= q, of _boxes that may hold a
    ratio at or below limit: those whose bound, the bounding-box distance
    over the largest arc the pair can hold, min(s_hi,q - s_lo,p,
    L - (s_lo,q - s_hi,p), L/2), does not exceed it, NaN included."""
    x_lo, x_hi, y_lo, y_hi, s_lo, s_hi = box
    with np.errstate(all="ignore"):
        dist2 = 0.0  # the squared bounding-box distance, as chord^2 is summed
        for lo, hi in ((x_lo, x_hi), (y_lo, y_hi)):
            gap = np.maximum(np.maximum(lo[q] - hi[p], lo[p] - hi[q]), 0.0)
            dist2 = dist2 + gap * gap
        arc = np.minimum(s_hi[q] - s_lo[p], length - (s_lo[q] - s_hi[p]))
        return ~(np.sqrt(dist2) / np.minimum(arc, 0.5 * length) > limit)


def _pruned_blocks(x, y, s, length):
    """(value, i, j) of the minimum of each chunk of the pairs that survive
    the two-level block bounds, at the chunk's lowest (i, j); the chunks
    come in no (i, j) order."""
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
    # the coarse block pairs that survive, then, a chunk of them at a time,
    # their fine block pairs that survive
    P, Q = np.triu_indices(-(-n // (fine * ratio)))
    keep = _reaches(_boxes(x, y, s, fine * ratio), P, Q, length, limit)
    P, Q = P[keep], Q[keep]
    boxes = _boxes(x, y, s, fine)
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
        keep = _reaches(boxes, p, q, length, limit)
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
    (i, j) order. arc_data refuses a curve whose length overflows, so every
    arc is finite and no ratio is NaN.

    From L >= _NO_OVERFLOW on, a chord's square could overflow: the scan
    then runs on x, y, s and L scaled by 2^-e, with 2^e the power of two
    just above L. Every chord is at most L/2 < 1 there, and a power of two
    scales each ratio exactly, so the result is that of the exactly scaled
    curve.
    """
    ad = arc_data(curve)
    n = curve.n
    x = curve.vertices[:, 0]
    y = curve.vertices[:, 1]
    s = ad.s
    L = ad.length
    if L >= _NO_OVERFLOW:
        e = -math.frexp(L)[1]
        x, y, s, L = np.ldexp(x, e), np.ldexp(y, e), np.ldexp(s, e), math.ldexp(L, e)
    blocks = _pruned_blocks if n >= _CHORD_PRUNE else _row_blocks
    value, i, j = min(blocks(x, y, s, L))
    return ChordArcResult(value=float(value), i=i, j=j)
