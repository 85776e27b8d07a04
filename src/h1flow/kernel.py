"""Discrete Green's function of (d/ds)^2 - 1 on the arclength circle.

G(s, s~) = cosh(|s - s~| - L/2) / (2 sinh(-L/2)), evaluated in the
equivalent form -(e^{d-L} + e^{-d}) / (2 (1 - e^{-L})) with d = |s - s~| in
[0, L], which stays in range for every positive L.

The flow applies the positive kernel K = -G through convolve_kernel, with no
matrix. The kernel is semiseparable (Vandebril, Van Barel & Mastronardi,
*Matrix Computations and Semiseparable Matrices*, 2008): with g = ds f,
sum_j K_ij g_j = (P + Q - g) / 2, where P is the causal cyclic sum of
e^{-((s_i - s_j) mod L)} g_j / (1 - e^{-L}) and Q its anti-causal mirror.
Each is one O(n) exponential sweep, a cumulative sum of e^{s - c} g scaled
by e^{-(s - c)}. On a curve longer than SWEEP_SPAN, e^{s - c} would leave
the double range, so the sweep runs in segments of span below SWEEP_SPAN,
each carrying its last partial sum, decayed across the gap, into the next.

kernel_matrix assembles the dense n x n matrix: the reference the sweep is
tested against, and the input of the row-quadrature and centered-form checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import ArcData, PolyCurve, arc_data
from .errors import ConstantMapGuard, OutOfDomain

MIN_KERNEL_LENGTH = 1e-12
# Span of one anchored sweep segment. Its terms e^{s - c} g and g / e^{s - c}
# lie within e^{+-256} ~ 1e+-111 of g, so they stay normal doubles for every
# |g| from ~1e-196 to ~1e196; a curve of unit scale needs one segment.
SWEEP_SPAN = 256.0


@dataclass(frozen=True)
class KernelMatrix:
    """Dense reference kernel. G: n x n symmetric negative kernel values;
    ds: quadrature weights; length: L."""

    G: np.ndarray
    ds: np.ndarray
    length: float


def greens_value(L: float, s: float, s_tilde: float):
    """Kernel value at a pair of arclength coordinates on a curve of length L."""
    if not L > 0.0:
        raise OutOfDomain(f"greens_value requires L > 0, got {L}")
    d = np.abs(np.asarray(s, dtype=float) - s_tilde) % L
    value = -(np.exp(d - L) + np.exp(-d)) / (2.0 * -np.expm1(-L))
    if np.ndim(value) == 0:
        return float(value)
    return value


def _kernel_length(ad: ArcData) -> float:
    if ad.length < MIN_KERNEL_LENGTH:
        raise ConstantMapGuard(f"curve length {ad.length} below kernel guard")
    return ad.length


def kernel_matrix(curve: PolyCurve) -> KernelMatrix:
    """Dense reference: G_ij at all vertex pairs of a non-degenerate curve,
    O(n^2) time and memory. The flow itself uses convolve_kernel."""
    ad = arc_data(curve)
    L = _kernel_length(ad)
    # |s_i - s_j| < L, so greens_value's reduction mod L is exact
    G = greens_value(L, ad.s[:, None], ad.s[None, :])
    return KernelMatrix(G=G, ds=ad.ds, length=L)


def _causal_sums(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """a_i = sum_{j <= i} e^{-(t_i - t_j)} g_j for increasing t from t_0 = 0,
    in segments cut at multiples of SWEEP_SPAN: at most min(n, t_{n-1} /
    SWEEP_SPAN + 1) of them. Each segment's cumsum(e^{t - c} g) / e^{t - c} is
    anchored at its first point c and starts from the previous segment's last
    value times e^{-gap}."""
    cuts = np.flatnonzero(np.diff(np.floor(t / SWEEP_SPAN))) + 1
    out = np.empty_like(g)
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, t.size]):
        e = np.exp(t[a:b] - t[a])[:, None]
        terms = e * g[a:b]
        if a > 0:
            terms[0] += np.exp(t[a - 1] - t[a]) * out[a - 1]
        out[a:b] = np.add.accumulate(terms, axis=0) / e
    return out


def _periodic_sums(s: np.ndarray, g: np.ndarray, L: float):
    """P_i = sum_j e^{-((s_i - s_j) mod L)} g_j / (1 - e^{-L}) and its mirror
    Q_i = sum_j e^{-((s_j - s_i) mod L)} g_j / (1 - e^{-L}), for s from s_0 = 0.

    Within one turn, p is a cumulative sum and q a reverse one (a total minus
    a prefix would cancel). The other turns add e^{-(s_i + gap)} p_{n-1} and
    e^{-(L - s_i)} q_0, times 1 / (1 - e^{-L}), with gap = L - s_{n-1}.
    """
    gap = L - s[-1]
    wrap = 1.0 / -math.expm1(-L)
    if s[-1] < SWEEP_SPAN:
        # one anchor at s_0 = 0; the closing edge is no longer than the rest
        # of the polygon, so gap <= s_{n-1} and e^{-gap} does not underflow
        e = np.exp(s)[:, None]
        cp = np.add.accumulate(e * g, axis=0)
        cq = np.add.accumulate((g / e)[::-1], axis=0)[::-1]
        close = wrap * math.exp(-gap) / e[-1]
        return (cp + close * cp[-1]) / e, e * (cq + close * cq[0])
    p = _causal_sums(s, g)
    q = _causal_sums(s[-1] - s[::-1], g[::-1])[::-1]
    return (p + np.exp(-(s + gap))[:, None] * (wrap * p[-1]),
            q + np.exp(s - L)[:, None] * (wrap * q[0]))


def convolve_kernel(curve: PolyCurve, field) -> np.ndarray:
    """(field * K)_i = sum_j K_ij ds_j field_j for the positive kernel K = -G:
    (P + Q - g) / 2 with g = ds field, in O(n) time and memory, the one place
    the kernel is applied to a vertex field (one row per vertex)."""
    f = np.asarray(field, dtype=float)
    ad = arc_data(curve)
    if f.shape[0] != ad.n:
        raise ValueError("field length must match vertex count")
    L = _kernel_length(ad)
    g = ad.ds[:, None] * f.reshape(ad.n, -1)
    P, Q = _periodic_sums(ad.s, g, L)
    return (0.5 * (P + Q - g)).reshape(f.shape)


def row_quadrature_defect(km: KernelMatrix) -> float:
    """max_i |sum_j G_ij ds_j + 1|; the continuum row integral is exactly -1."""
    rows = km.G @ km.ds
    return float(np.abs(rows + 1.0).max())
