"""Discrete Green's function of (d/ds)^2 - 1 on the arclength circle.

G(s, s~) = cosh(|s - s~| - L/2) / (2 sinh(-L/2)), evaluated in the
equivalent form -(e^{d-L} + e^{-d}) / (2 (1 - e^{-L})) with d = |s - s~| in
[0, L], which stays in range for every positive L.

The flow applies the positive kernel K = -G through convolve_kernel, with no
matrix. The kernel is semiseparable (Vandebril, Van Barel & Mastronardi,
*Matrix Computations and Semiseparable Matrices*, 2008): with g = ds f,
sum_j K_ij g_j = (P + Q - g) / 2, where P is the causal cyclic sum of
e^{-((s_i - s_j) mod L)} g_j / (1 - e^{-L}) and Q its anti-causal mirror.
Both come from one O(n) sweep of cumulative sums over segments anchored at
c, of span below SWEEP_SPAN so that e^{s - c} stays in the double range,
joined by carries across each cut and closed around the turn by one factor.
The sweep works on the field's k components as rows of one (2k, n) buffer,
P's terms above Q's reversed along n, so every pass runs along the
vertices rather than across two coordinates; velocity and convolve_kernel
bring the rows back to one row per vertex in one transposed write. A curve
with s_{n-1} < SWEEP_SPAN is one segment, and its sweep runs straight
through: one cumulative sum along the buffer's rows and one closing product.

kernel_matrix returns the dense n x n matrix G, O(n^2) to assemble: the
reference the tests hold the sweep against; nothing in the library applies it.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import ArcData, PolyCurve, arc_data
from .errors import ConstantMapGuard, UsageError

MIN_KERNEL_LENGTH = 1e-12
# Span of one anchored sweep segment. Its terms e^{s - c} g and g / e^{s - c}
# lie within e^{+-256} ~ 1e+-111 of g, so they stay normal doubles for every
# |g| from ~1e-196 to ~1e196; a curve of unit scale needs one segment.
SWEEP_SPAN = 256.0


def greens_value(L: float, s: float, s_tilde: float):
    """Kernel value at a pair of arclength coordinates on a curve of length L."""
    if not L > 0.0:
        raise UsageError(f"greens_value requires L > 0, got {L}")
    d = np.abs(np.asarray(s, dtype=float) - s_tilde) % L
    value = -(np.exp(d - L) + np.exp(-d)) / (2.0 * -np.expm1(-L))
    if np.ndim(value) == 0:
        return float(value)
    return value


def _kernel_length(ad: ArcData) -> float:
    if ad.length < MIN_KERNEL_LENGTH:
        raise ConstantMapGuard(f"curve length {ad.length} below kernel guard")
    return ad.length


def kernel_matrix(curve: PolyCurve) -> np.ndarray:
    """Dense reference: the n x n symmetric negative matrix G_ij of kernel
    values at all vertex pairs of a non-degenerate curve, O(n^2) time and
    memory; its quadrature weights ds and length L are those of arc_data.
    The library applies the kernel by convolve_kernel."""
    ad = arc_data(curve)
    L = _kernel_length(ad)
    # |s_i - s_j| < L, so greens_value's reduction mod L is exact
    return greens_value(L, ad.s[:, None], ad.s[None, :])


def _periodic_sums(s: np.ndarray, g: np.ndarray, L: float) -> np.ndarray:
    """P + Q for a field g of k component rows, (k, n): the causal sums
    P_i = sum_j e^{-((s_i - s_j) mod L)} g_j / (1 - e^{-L}) and their mirror
    Q_i = sum_j e^{-((s_j - s_i) mod L)} g_j / (1 - e^{-L}), for s from s_0 = 0.

    Both halves live in one C-contiguous (2k, n) buffer W, so every pass
    runs along n: W[:k] is cp, the cumulative sum of e g with e = e^{s - c}
    and c the anchor of the segment, and W[k:] is cq, the reverse
    cumulative sum of g / e (a total minus a prefix would cancel), stored
    reversed along n so that it too is a forward sum. The segments [a, b)
    start at s_0 and at the first point past each multiple of SWEEP_SPAN,
    each anchored at c = s_a. Across each cut, cp_{a-1} decayed to the next
    anchor enters the next segment's cp, and cq_b decayed to this anchor
    enters this one's cq. Then cp_{n-1} is the turn's sum at the last anchor
    c_last and cq_0 its sum at s_0, the last column of W, and with
    gap = L - s_{n-1} one close = e^{-gap} / ((1 - e^{-L}) e_{n-1}) adds the
    other turns: close fp cp_{n-1} to cp and close fq cq_0 to cq, with
    fp = e^{-c} and fq = e^{c - c_last}, which `turn` holds for W's rows.
    Then P = cp / e and Q = e cq.

    One segment (s_{n-1} < SWEEP_SPAN, the case of a curve of unit scale)
    has c = c_last = 0 and no cut: one cumulative sum along the rows of W
    forms cp and cq, and fp = fq = 1.0, so one product closes both.
    """
    n, k = s.size, g.shape[0]
    if s[-1] < SWEEP_SPAN:  # one segment, anchored at c = c_last = 0
        bounds, t, turn = None, s, 1.0
    else:
        starts = [0, *np.flatnonzero(np.diff(s // SWEEP_SPAN)) + 1]
        bounds = list(zip(starts, [*starts[1:], n]))
        c = np.repeat(s[starts], np.diff([*starts, n]))
        t = s - c
        turn = np.repeat([np.exp(-c), np.exp(c - c[-1])[::-1]], k, axis=0)
    e = np.exp(t)
    W = np.empty((2 * k, n))
    cp, cq = W[:k], W[k:]
    np.multiply(g, e, out=cp)
    np.divide(g[:, ::-1], e[::-1], out=cq)
    if bounds is None:
        np.add.accumulate(W, axis=1, out=W)
    else:
        for a, b in bounds:
            for row, lo, hi in ((cp, a, b), (cq, n - b, n - a)):
                np.add.accumulate(row[:, lo:hi], axis=1, out=row[:, lo:hi])
        for (a0, _), (a, b) in zip(bounds, bounds[1:]):
            cp[:, a:b] += math.exp(s[a0] - s[a]) * cp[:, a - 1:a]
        for a, b in reversed(bounds[:-1]):
            cq[:, n - b:n - a] += math.exp(s[a] - s[b]) * cq[:, n - b - 1:n - b]
    close = 1.0 / -math.expm1(-L) * math.exp(-(L - s[-1])) / e[-1]
    W += close * turn * W[:, -1:]
    cp /= e
    cq[:, ::-1] *= e
    cp += cq[:, ::-1]
    return cp


def convolve_kernel(curve: PolyCurve, field) -> np.ndarray:
    """(field * K)_i = sum_j K_ij ds_j field_j for the positive kernel K = -G:
    (P + Q - g) / 2 with g = ds field, P and Q from one anchored-segment
    sweep with carries, in O(n) time and memory; the one place the kernel is
    applied to a vertex field (one row per vertex)."""
    f = np.asarray(field, dtype=float)
    ad = arc_data(curve)
    if f.shape[0] != ad.n:
        raise ValueError("field length must match vertex count")
    return _convolve(ad, f.reshape(ad.n, -1)).T.copy().reshape(f.shape)


def _convolve(ad: ArcData, f: np.ndarray) -> np.ndarray:
    """convolve_kernel of an (n, k) field f on a measured curve, taken as it
    is, returned as its k component rows, (k, n): the flow's velocity
    applies the kernel to the vertices through this, and each caller makes
    the (n, k) result in one transposed write."""
    g = np.multiply(f.T, ad.ds, order="C")
    R = _periodic_sums(ad.s, g, _kernel_length(ad))
    R -= g
    R *= 0.5
    return R


def row_quadrature_defect(curve: PolyCurve) -> float:
    """max_i |(K*1)_i - 1| = max_i |sum_j G_ij ds_j + 1| from one sweep; the
    continuum row integral of K = -G is exactly 1."""
    rows = convolve_kernel(curve, np.ones(curve.n))
    return float(np.abs(rows - 1.0).max())
