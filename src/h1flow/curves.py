"""Closed polygonal curves and their purely geometric quantities.

A curve is an ordered list of planar vertices with the closing edge implicit.
Everything here is a pure function of the vertex array: arclength data, area,
tangent/normal frames, discrete curvature, field norms in the du and ds
measures, and the chord-arc embeddedness monitor. The ArcData of arc_data is
itself a curve, accepted in the curve's place, so a state is measured once.
The two terms of the discrete H1(ds) inner product, the L2(ds) sum and the
edge term, are written here once; gradient, diagnostics and paths use them.
Reading and writing curves is the business of the output module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurve


# pair entries per chord-arc block (at least one row): for n <= 16384 each
# temporary stays under glibc's 128 KiB mmap threshold
_CHORD_BLOCK = 16384


@dataclass(frozen=True)
class PolyCurve:
    """Closed polygon: vertices[i] connects to vertices[(i+1) % n]."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if v.shape[0] < 3:
            raise ValueError("a closed curve needs at least 3 vertices")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class ArcData(PolyCurve):
    """A measured curve: the vertices of a validated PolyCurve with their
    arclength coordinates, s cumulative (s[0] = 0), ds vertex weights, total
    length, and the edges X_{i+1} - X_i with their (positive) lengths."""

    s: np.ndarray
    ds: np.ndarray
    length: float
    edges: np.ndarray
    edge_lengths: np.ndarray

    def __post_init__(self):
        """No revalidation: the vertices are those of a validated PolyCurve."""


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


def _norm(v: np.ndarray) -> np.ndarray:
    """Length of the 2-vectors on the last axis, sqrt(x*x + y*y). NumPy's
    linalg norm over that axis computes sqrt(add.reduce(v*v)) over the same
    two entries, so the bits agree; this skips its per-call overhead."""
    sq = v * v
    return np.sqrt(sq[..., 0] + sq[..., 1])


def _next(a: np.ndarray) -> np.ndarray:
    """a[i+1] cyclically along the first axis (a roll by -1), from two slices."""
    return np.concatenate((a[1:], a[:1]))


def _prev(a: np.ndarray) -> np.ndarray:
    """a[i-1] cyclically along the first axis (a roll by 1), from two slices."""
    return np.concatenate((a[-1:], a[:-1]))


def edge_vectors(curve: PolyCurve) -> np.ndarray:
    return _next(curve.vertices) - curve.vertices


def edge_lengths(curve: PolyCurve) -> np.ndarray:
    return _norm(edge_vectors(curve))


def total_length(curve: PolyCurve) -> float:
    """Perimeter of the polygon. Defined for degenerate curves too."""
    return float(edge_lengths(curve).sum())


def arc_data(curve: PolyCurve) -> ArcData:
    """Cumulative arclength s_i and the vertex quadrature weight
    ds_i = (|X_i - X_{i-1}| + |X_{i+1} - X_i|) / 2. A curve that is already
    measured is returned as it is.
    """
    if isinstance(curve, ArcData):
        return curve
    ev = edge_vectors(curve)
    el = _norm(ev)
    if el.min() <= 0.0:
        raise DegenerateCurve("zero-length edge")
    s = np.concatenate(([0.0], np.cumsum(el[:-1])))
    ds = 0.5 * (el + _prev(el))
    return ArcData(vertices=curve.vertices, s=s, ds=ds, length=float(el.sum()),
                   edges=ev, edge_lengths=el)


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
    ad = arc_data(curve)
    u, t, normal = _unit_frames(ad)
    return FrameData(tangent=t, normal=normal, curvature=_turning(u) / ad.ds)


def _unit_frames(ad: ArcData):
    """Unit edges u, unit vertex tangents T and normals N = rot90(T) of a
    measured curve, without the curvature of frame_data."""
    u = ad.edges / ad.edge_lengths[:, None]
    t = u + _prev(u)
    tn = _norm(t)
    if tn.min() <= 0.0:
        raise DegenerateCurve("cusp vertex: adjacent edges anti-parallel")
    t = t / tn[:, None]
    return u, t, np.stack([-t[:, 1], t[:, 0]], axis=1)


def _turning(u: np.ndarray) -> np.ndarray:
    """Signed turning angle at each vertex from the incoming to the outgoing
    unit edge, given the unit edge vectors u."""
    prev = _prev(u)
    cross = prev[:, 0] * u[:, 1] - prev[:, 1] * u[:, 0]
    dot = np.einsum("ij,ij->i", prev, u)
    return np.arctan2(cross, dot)


def turning_angles(curve: PolyCurve) -> np.ndarray:
    ad = arc_data(curve)
    return _turning(ad.edges / ad.edge_lengths[:, None])


def _as_field(curve: PolyCurve, field) -> np.ndarray:
    f = np.asarray(field, dtype=float)
    if f.shape != (curve.n, 2):
        raise ValueError(f"field must have shape ({curve.n}, 2)")
    return f


def _l2ds_term(ad: ArcData, v: np.ndarray, w: np.ndarray) -> float:
    """sum_i <v_i, w_i> ds_i on a measured curve: the L2(ds) inner product and
    the zeroth-order term of the H1(ds) one. v and w are (n, d) fields."""
    return float((np.einsum("ij,ij->i", v, w) * ad.ds).sum())


def _edge_term(ad: ArcData, v: np.ndarray, w: np.ndarray) -> float:
    """sum_edges <v_{i+1} - v_i, w_{i+1} - w_i> / e_i, with e the edge length:
    the first-order term of the H1(ds) inner product on a measured curve."""
    dv = _next(v) - v
    dw = dv if w is v else _next(w) - w
    return float((np.einsum("ij,ij->i", dv, dw) / ad.edge_lengths).sum())


def norms(curve: PolyCurve, field) -> FieldNorms:
    """Norms of a per-vertex planar field in the five metrics.

    du uses the uniform weight 1/n; ds uses the arclength weights. Derivative
    terms are per-edge difference quotients weighted by the respective edge
    measure, so the H1 entries are sqrt(L2^2 + derivative part).
    """
    f = _as_field(curve, field)
    n = curve.n
    mag2 = np.einsum("ij,ij->i", f, f)
    linf = float(np.sqrt(mag2.max()))
    l2_du = float(np.sqrt(mag2.sum() / n))
    df = _next(f) - f
    dmag2 = np.einsum("ij,ij->i", df, df)
    # du edge measure 1/n, difference quotient df * n
    h1_du = float(np.sqrt(mag2.sum() / n + n * dmag2.sum()))
    ad = arc_data(curve)
    l2_ds_sq = _l2ds_term(ad, f, f)
    l2_ds = float(np.sqrt(l2_ds_sq))
    h1_ds = float(np.sqrt(l2_ds_sq + _edge_term(ad, f, f)))
    return FieldNorms(linf=linf, l2_du=l2_du, l2_ds=l2_ds, h1_du=h1_du, h1_ds=h1_ds)


def sup_norm(curve: PolyCurve) -> float:
    return float(_norm(curve.vertices).max())


def chord_arc_min(curve: PolyCurve) -> ChordArcResult:
    """Minimum over vertex pairs of chord length / shorter-arc separation.

    Ties resolve to the lexicographically lowest (i, j) pair. The value lies
    in (0, 1]; small values flag near self-contact.

    Rows are taken in blocks i0:i1 against the columns i0+1:n, about
    _CHORD_BLOCK pairs or one row at a time, so memory is O(n). Only j > i
    is evaluated: the ratio is exactly symmetric (X_i - X_j negates
    X_j - X_i, and the gap is an absolute value), so the lowest tied (i, j)
    lies in that triangle. argmin keeps the first minimum of a block, and a
    later block wins only when strictly smaller, or NaN, which argmin over
    all pairs would pick.
    """
    ad = arc_data(curve)
    n = curve.n
    x = curve.vertices[:, 0]
    y = curve.vertices[:, 1]
    rows = max(1, _CHORD_BLOCK // n)
    best = None
    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n - 1)
        dx = x[i0:i1, None] - x[None, i0 + 1:]
        dy = y[i0:i1, None] - y[None, i0 + 1:]
        chord = np.sqrt(dx * dx + dy * dy)
        gap = np.abs(ad.s[i0:i1, None] - ad.s[None, i0 + 1:])
        arc = np.minimum(gap, ad.length - gap)
        # column c of row r is the pair (i0 + r, i0 + 1 + c): upper iff c >= r
        upper = np.arange(n - 1 - i0)[None, :] >= np.arange(i1 - i0)[:, None]
        ratio = np.divide(chord, arc, out=np.full(chord.shape, np.inf), where=upper)
        r, c = divmod(int(np.argmin(ratio)), ratio.shape[1])
        value = ratio[r, c]
        if best is None or not value >= best.value:
            best = ChordArcResult(value=float(value), i=i0 + r, j=i0 + 1 + c)
            if np.isnan(value):
                break
    return best


def reindex(curve: PolyCurve, shift: int) -> PolyCurve:
    """Cyclic re-indexing: vertex i of the result is vertex i+shift of the input."""
    return PolyCurve(np.roll(curve.vertices, -shift, axis=0))

