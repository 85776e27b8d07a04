"""The flow on regular n-gons against the exact solution of the discrete
scheme there, the helper ngon: the velocity's radial rate, the order of
each stepper, and the radius past which a circle grows."""
import numpy as np
import pytest

import h1flow as h
import h1flow.gradient
import ngon
from conftest import radii


@pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
def test_velocity_is_the_radial_rate(r):
    # V_i = a_n(r) X_i: the mean rate to 2e-15 relative (measured at most
    # 7.3e-16), every vertex's to 1e-13 (measured at most 1.5e-14, at r = 2)
    c = h.circle(r, 256)
    X = c.vertices
    V = h1flow.gradient.velocity(c)
    rates = (V * X).sum(axis=1) / (X * X).sum(axis=1)
    a = ngon.rate(r, 256)
    assert abs(rates.mean() - a) <= 2e-15 * abs(a)
    assert np.abs(rates - a).max() <= 1e-13


def test_rate_tends_to_the_circle_law():
    # a_n(r) -> -1/(1 + r^2) as n grows, with the polygon's n^-2 error
    for r in (0.3, 1.0, 2.0):
        errors = [abs(ngon.rate(r, n) + 1.0 / (1.0 + r * r)) for n in (256, 512)]
        assert 3.9 <= errors[0] / errors[1] <= 4.1


@pytest.mark.parametrize("method, dts, order", [
    ("rk4", (0.1, 0.05, 0.025), 16.0),
    ("euler", (0.02, 0.01, 0.005), 2.0),
], ids=["rk4", "euler"])
def test_stepper_order_against_the_exact_radius(method, dts, order):
    # circle(1, 256) to t = 2: halving dt divides the largest vertex radius
    # error by 2^p within 5 % (measured 16.37 and 16.19 for RK4, 2.004 and
    # 2.002 for Euler)
    exact = ngon.radius(1.0, 256, 2.0)
    errors = []
    for dt in dts:
        traj = h.run_flow(h.circle(1.0, 256),
                          h.FlowConfig(dt=dt, t1=2.0, method=method, record_every=round(2.0 / dt)))
        assert traj.times[-1] == pytest.approx(2.0)
        errors.append(np.abs(radii(traj.states[-1]) - exact).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(order, rel=0.05)


def test_circle_grows_past_the_sign_change():
    # at n = 64, a_n changes sign at r* = 5.908: one Euler step shrinks
    # circle(5.8, 64) and grows circle(6.0, 64)
    lo, hi = 5.8, 6.0
    assert ngon.rate(lo, 64) < 0.0 < ngon.rate(hi, 64)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ngon.rate(mid, 64) < 0.0 else (lo, mid)
    assert round(lo, 3) == 5.908
    cfg = h.FlowConfig(dt=0.01, t1=0.01, method="euler")
    for r, grows in ((5.8, False), (6.0, True)):
        first, last = h.run_flow(h.circle(r, 64), cfg).records
        assert (last.length > first.length) is grows
