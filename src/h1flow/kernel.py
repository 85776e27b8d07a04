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
A curve with s_{n-1} < SWEEP_SPAN is one segment, and its sweep runs
straight through: two whole-array cumulative sums and the closing factor.

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


def _periodic_sums(s: np.ndarray, g: np.ndarray, L: float):
    """P_i = sum_j e^{-((s_i - s_j) mod L)} g_j / (1 - e^{-L}) and its mirror
    Q_i = sum_j e^{-((s_j - s_i) mod L)} g_j / (1 - e^{-L}), for s from s_0 = 0.

    The segments [a, b) start at s_0 and at the first point past each
    multiple of SWEEP_SPAN. Anchored at c = s_a, a segment has e = e^{s - c},
    the cumulative sum cp of e g and the reverse one cq of g / e (a total
    minus a prefix would cancel). Across each cut, cp_{a-1} decayed to the
    next anchor enters the next segment's cp, and cq_b decayed to this anchor
    enters this one's cq. Then cp_{n-1} is the turn's sum at the last anchor
    c_last and cq_0 its sum at s_0, and with gap = L - s_{n-1} one
    close = e^{-gap} / ((1 - e^{-L}) e_{n-1}) adds the other turns: close
    cp_{n-1} fp to cp and close cq_0 fq to cq, with fp = e^{-c} and
    fq = e^{c - c_last}. Then P = cp / e and Q = e cq.

    One segment (s_{n-1} < SWEEP_SPAN, the case of a curve of unit scale)
    has c = c_last = 0 and no cut: cp and cq are two whole-array cumulative
    sums, and fp = fq = 1.0, whose products are exact.
    """
    n = s.size
    if s[-1] < SWEEP_SPAN:  # one segment, anchored at c = c_last = 0
        bounds, t, fp, fq = None, s, 1.0, 1.0
    else:
        starts = [0, *np.flatnonzero(np.diff(s // SWEEP_SPAN)) + 1]
        bounds = list(zip(starts, [*starts[1:], n]))
        c = np.repeat(s[starts], np.diff([*starts, n]))
        t, fp, fq = s - c, np.exp(-c)[:, None], np.exp(c - c[-1])[:, None]
    e = np.exp(t)[:, None]
    cp, cq = e * g, g / e
    if bounds is None:
        np.add.accumulate(cp, axis=0, out=cp)
        np.add.accumulate(cq[::-1], axis=0, out=cq[::-1])
    else:
        for a, b in bounds:
            np.add.accumulate(cp[a:b], axis=0, out=cp[a:b])
            np.add.accumulate(cq[a:b][::-1], axis=0, out=cq[a:b][::-1])
        for (a0, _), (a, b) in zip(bounds, bounds[1:]):
            cp[a:b] += math.exp(s[a0] - s[a]) * cp[a - 1]
        for a, b in reversed(bounds[:-1]):
            cq[a:b] += math.exp(s[a] - s[b]) * cq[b]
    close = 1.0 / -math.expm1(-L) * math.exp(-(L - s[-1])) / e[-1, 0]
    cp += close * fp * cp[-1]
    cq += close * fq * cq[0]
    return cp / e, e * cq


def convolve_kernel(curve: PolyCurve, field) -> np.ndarray:
    """(field * K)_i = sum_j K_ij ds_j field_j for the positive kernel K = -G:
    (P + Q - g) / 2 with g = ds field, P and Q from one anchored-segment
    sweep with carries, in O(n) time and memory; the one place the kernel is
    applied to a vertex field (one row per vertex)."""
    f = np.asarray(field, dtype=float)
    ad = arc_data(curve)
    if f.shape[0] != ad.n:
        raise ValueError("field length must match vertex count")
    return _convolve(ad, f.reshape(ad.n, -1)).reshape(f.shape)


def _convolve(ad: ArcData, f: np.ndarray) -> np.ndarray:
    """convolve_kernel of an (n, k) field f on a measured curve, taken as it
    is: the flow's velocity applies the kernel to the vertices through this."""
    g = ad.ds[:, None] * f
    P, Q = _periodic_sums(ad.s, g, _kernel_length(ad))
    return 0.5 * (P + Q - g)


def row_quadrature_defect(curve: PolyCurve) -> float:
    """max_i |(K*1)_i - 1| = max_i |sum_j G_ij ds_j + 1| from one sweep; the
    continuum row integral of K = -G is exactly 1."""
    rows = convolve_kernel(curve, np.ones(curve.n))
    return float(np.abs(rows - 1.0).max())
