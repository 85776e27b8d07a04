"""Flow velocity (minus the H1(ds) gradient of length) and related forms.

The velocity is V = K*X - X with (K*X)_i = sum_j K_ij ds_j X_j and the
positive kernel K = -G, the discrete scheme as written, with no linear solve.
The centered form V = K*X - (K*1) X, from the same sweep, is translation
invariant; the two differ by the row-quadrature defect times |X|. The inner
products and the first variation of length weight products formed once with
the curves module's _dot by its L2(ds) sum and edge term. The field norms in
H1(ds) and L2(ds) are these inner products of a field with itself, the
squared H1(ds) norm of the velocity and the record's L2(ds) norm of the
curve among them. Inside the gate's range the velocity does not overflow,
but its square may: the inner products, whose fields the range does not
bound and whose edge term divides by the edge lengths, run with overflow
ignored, and a product or sum past the double range gives inf or nan,
with no RuntimeWarning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import PolyCurve, _as_field, _diff, _dot, _edge_term, _l2ds_term, arc_data
from .kernel import _convolve, convolve_kernel


@dataclass(frozen=True, eq=False)
class VelocityField:
    velocity: np.ndarray
    grad_norm_sq_h1ds: float


@np.errstate(over="ignore", invalid="ignore")
def h1ds_inner(curve: PolyCurve, v, w) -> float:
    """sum_i <v_i, w_i> ds_i + sum_edges <dv/de, dw/de> e, with e the edge length.
    When w is v, the edge differences are formed once. Past the double
    range it is inf or nan, with no RuntimeWarning."""
    v = _as_field(curve, v)
    w = _as_field(curve, w)
    ad = arc_data(curve)
    dv = _diff(v)
    return _l2ds_term(ad, _dot(v, w)) + _edge_term(ad, _dot(dv, dv if w is v else _diff(w)))


@np.errstate(over="ignore", invalid="ignore")
def l2ds_inner(curve: PolyCurve, v, w) -> float:
    """sum_i <v_i, w_i> ds_i; past the double range it is inf or nan, with no
    RuntimeWarning."""
    v = _as_field(curve, v)
    w = _as_field(curve, w)
    return _l2ds_term(arc_data(curve), _dot(v, w))


def length_directional_derivative(curve: PolyCurve, v) -> float:
    """Exact derivative of the perimeter in direction v:
    sum_edges <v_{i+1} - v_i, X_{i+1} - X_i> / |X_{i+1} - X_i|.
    """
    v = _as_field(curve, v)
    ad = arc_data(curve)
    return _edge_term(ad, _dot(_diff(v), ad.edges))


def velocity(curve: PolyCurve) -> np.ndarray:
    """V = K*X - X at every vertex, without the gradient norms; the stepper's
    stages call this. The - X is taken in the transposed write that brings
    the sweep's component rows back to one row per vertex."""
    ad = arc_data(curve)
    return np.subtract(_convolve(ad, ad.vertices).T, ad.vertices, order="C")


def flow_velocity(curve: PolyCurve) -> VelocityField:
    """Velocity of the flow at every vertex and its squared H1(ds) norm, the
    squared norm of the gradient of length; a norm past the double range
    is inf, with no RuntimeWarning, as h1ds_inner gives it."""
    ad = arc_data(curve)
    V = velocity(ad)
    return VelocityField(velocity=V, grad_norm_sq_h1ds=h1ds_inner(ad, V, V))


def flow_velocity_centered(curve: PolyCurve) -> np.ndarray:
    """Centered form V_i = sum_j K_ij ds_j (X_j - X_i) = (K*X)_i - (K*1)_i X_i,
    from one sweep on the field [X, 1].

    Using (K*1)_i ~ 1 recovers the direct form, so the two agree up to the
    row-quadrature defect times |X_i|.
    """
    X = curve.vertices
    KX1 = convolve_kernel(curve, np.column_stack([X, np.ones(len(X))]))
    return KX1[:, :2] - KX1[:, 2:] * X
