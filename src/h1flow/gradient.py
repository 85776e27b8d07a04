"""Flow velocity (minus the H1(ds) gradient of length) and related forms.

The velocity at vertex i is V_i = -X_i - sum_j X_j G_ij ds_j, the direct
transcription of the discrete scheme. A centered variant exists purely for
cross-checks; the two differ by the row-quadrature defect times |X|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import PolyCurve, _as_field, arc_data
from .kernel import KernelMatrix, apply_kernel, kernel_matrix


@dataclass(frozen=True)
class VelocityField:
    velocity: np.ndarray
    grad_norm_sq_h1ds: float
    grad_norm_l2ds: float


def h1ds_inner(curve: PolyCurve, v, w) -> float:
    """sum_i <v_i, w_i> ds_i + sum_edges <dv/de, dw/de> e, with e the edge length."""
    v = _as_field(curve, v)
    w = _as_field(curve, w)
    ad = arc_data(curve)
    dv = np.roll(v, -1, axis=0) - v
    dw = np.roll(w, -1, axis=0) - w
    zero = float(np.einsum("ij,ij->", v * ad.ds[:, None], w))
    one = float((np.einsum("ij,ij->i", dv, dw) / ad.edge_lengths).sum())
    return zero + one


def l2ds_inner(curve: PolyCurve, v, w) -> float:
    v = _as_field(curve, v)
    w = _as_field(curve, w)
    ds = arc_data(curve).ds
    return float(np.einsum("ij,ij->", v * ds[:, None], w))


def length_directional_derivative(curve: PolyCurve, v) -> float:
    """Exact derivative of the perimeter in direction v:
    sum_edges <v_{i+1} - v_i, X_{i+1} - X_i> / |X_{i+1} - X_i|.
    """
    v = _as_field(curve, v)
    ad = arc_data(curve)
    dv = np.roll(v, -1, axis=0) - v
    return float((np.einsum("ij,ij->i", dv, ad.edges) / ad.edge_lengths).sum())


def velocity(curve: PolyCurve) -> np.ndarray:
    """Velocity of the flow at every vertex, without the gradient norms; the
    stepper's stages call this."""
    X = curve.vertices
    return -X - apply_kernel(arc_data(curve), X)


def flow_velocity(curve: PolyCurve) -> VelocityField:
    """Velocity of the flow at every vertex plus the gradient norms."""
    V = velocity(curve)
    grad_sq = h1ds_inner(curve, V, V)
    grad_l2 = float(np.sqrt(l2ds_inner(curve, V, V)))
    return VelocityField(velocity=V, grad_norm_sq_h1ds=grad_sq, grad_norm_l2ds=grad_l2)


def flow_velocity_centered(curve: PolyCurve, km: KernelMatrix | None = None) -> np.ndarray:
    """Verification alias: V_i = sum_j (X_i - X_j) G_ij ds_j.

    Expanding and using sum_j G_ij ds_j ~ -1 recovers the direct form, so
    the two agree up to the row-quadrature defect times |X_i|.
    """
    if km is None:
        km = kernel_matrix(curve)
    X = curve.vertices
    w = km.G * km.ds[None, :]
    return X * w.sum(axis=1)[:, None] - w @ X
