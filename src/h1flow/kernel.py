"""Discrete Green's function of (d/ds)^2 - 1 on the arclength circle.

G(s, s~) = cosh(|s - s~| - L/2) / (2 sinh(-L/2)), assembled at vertex pairs
with the vertex quadrature weights ds_j. Evaluation uses the equivalent form
-(e^{d-L} + e^{-d}) / (2 (1 - e^{-L})) with d = |s - s~| in [0, L], which
stays in range for every positive L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import PolyCurve, arc_data
from .errors import ConstantMapGuard, OutOfDomain

MIN_KERNEL_LENGTH = 1e-12


@dataclass(frozen=True)
class KernelMatrix:
    """G: n x n symmetric negative kernel values; ds: quadrature weights; length: L."""

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


def kernel_matrix(curve: PolyCurve) -> KernelMatrix:
    """Assemble G_ij at all vertex pairs of a non-degenerate curve."""
    ad = arc_data(curve)
    L = ad.length
    if L < MIN_KERNEL_LENGTH:
        raise ConstantMapGuard(f"curve length {L} below kernel guard")
    d = np.abs(ad.s[:, None] - ad.s[None, :])
    G = -(np.exp(d - L) + np.exp(-d)) / (2.0 * -np.expm1(-L))
    return KernelMatrix(G=G, ds=ad.ds, length=L)


def apply_kernel(km: KernelMatrix, f: np.ndarray) -> np.ndarray:
    """sum_j G_ij ds_j f_j: the one place a kernel is applied to a vertex field."""
    return (km.G * km.ds[None, :]) @ f


def convolve_kernel(curve: PolyCurve, field) -> np.ndarray:
    """(field * K)_i = sum_j field_j (-G_ij) ds_j, the positive-kernel smoothing."""
    f = np.asarray(field, dtype=float)
    km = kernel_matrix(curve)
    if f.shape[0] != km.G.shape[0]:
        raise ValueError("field length must match vertex count")
    return -apply_kernel(km, f)


def row_quadrature_defect(km: KernelMatrix) -> float:
    """max_i |sum_j G_ij ds_j + 1|; the continuum row integral is exactly -1."""
    rows = km.G @ km.ds
    return float(np.abs(rows + 1.0).max())
