"""Flow velocity (minus the H1(ds) gradient of length) and related forms.

The velocity at vertex i is V_i = -X_i - sum_j X_j G_ij ds_j, the direct
transcription of the discrete scheme. A centered variant exists purely for
cross-checks; the two differ by the row-quadrature defect times |X|. The
inner products and the first variation of length are built from the L2(ds)
sum and the edge term of the curves module, which norms shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import PolyCurve, _as_field, _edge_term, _l2ds_term, arc_data
from .kernel import apply_kernel, kernel_matrix


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
    return _l2ds_term(ad, v, w) + _edge_term(ad, v, w)


def l2ds_inner(curve: PolyCurve, v, w) -> float:
    """sum_i <v_i, w_i> ds_i."""
    v = _as_field(curve, v)
    w = _as_field(curve, w)
    return _l2ds_term(arc_data(curve), v, w)


def length_directional_derivative(curve: PolyCurve, v) -> float:
    """Exact derivative of the perimeter in direction v:
    sum_edges <v_{i+1} - v_i, X_{i+1} - X_i> / |X_{i+1} - X_i|.
    """
    v = _as_field(curve, v)
    ad = arc_data(curve)
    return _edge_term(ad, v, ad.vertices)


def velocity(curve: PolyCurve) -> np.ndarray:
    """Velocity of the flow at every vertex, without the gradient norms; the
    stepper's stages call this."""
    X = curve.vertices
    return -X - apply_kernel(arc_data(curve), X)


def flow_velocity(curve: PolyCurve) -> VelocityField:
    """Velocity of the flow at every vertex plus the gradient norms."""
    ad = arc_data(curve)
    V = velocity(ad)
    grad_sq = h1ds_inner(ad, V, V)
    grad_l2 = float(np.sqrt(l2ds_inner(ad, V, V)))
    return VelocityField(velocity=V, grad_norm_sq_h1ds=grad_sq, grad_norm_l2ds=grad_l2)


def flow_velocity_centered(curve: PolyCurve) -> np.ndarray:
    """Verification alias: V_i = sum_j (X_i - X_j) G_ij ds_j.

    Expanding and using sum_j G_ij ds_j ~ -1 recovers the direct form, so
    the two agree up to the row-quadrature defect times |X_i|.
    """
    km = kernel_matrix(curve)
    X = curve.vertices
    w = km.G * km.ds[None, :]
    return X * w.sum(axis=1)[:, None] - w @ X
