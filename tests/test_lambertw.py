"""Principal-branch Lambert W evaluators and the exact circle radius."""
import math
import types

import numpy as np
import pytest

import h1flow as h
import h1flow.lambertw
from h1flow.errors import UsageError

# residual-verified reference values, frozen from a bisection solve of
# w e^w = x (resp. w + log w = y) to 1e-15
W_OF_1 = 0.567143290409784
W_PLUS_LOG_100 = 95.44148664557582
R_CIRCLE = {
    # r0 = 1: r(t) = sqrt(W(e^{1 - 2t}))
    1.0: 0.5276973969625716,
    2.0: 0.21789559661651142,
    -1.0: 1.4859138708449164,
}


def bisect_w(x, lo, hi):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambertW0:
    def test_fixed_points(self):
        assert h.lambert_w0(0.0) == 0.0
        assert h.lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
        assert h.lambert_w0(1.0) == pytest.approx(W_OF_1, abs=1e-14)

    def test_defining_identity_wide_range(self):
        for k in range(-250, 260, 10):
            x = 10.0 ** k
            w = h.lambert_w0(x)
            assert w * math.exp(w) == pytest.approx(x, rel=1e-12)

    def test_negative_branch_segment(self):
        for x in (-1e-8, -0.05, -0.2, -0.3, -0.35, -1 / math.e + 1e-9):
            w = h.lambert_w0(x)
            assert -1.0 <= w < 0.0
            assert w * math.exp(w) == pytest.approx(x, rel=1e-7)

    def test_branch_point(self):
        assert h.lambert_w0(-1 / math.e) == pytest.approx(-1.0, abs=1e-6)
        # just below -1/e, within the rounding slop at the branch point
        assert h.lambert_w0(-math.exp(-1.0) * (1.0 + 1e-13)) == -1.0

    def test_sweep_above_the_branch_point(self):
        # the 10 000 doubles from -1/e up: every Halley run ends on a finite
        # w >= -1
        start = -math.exp(-1.0)
        ulp = abs(np.spacing(start))
        ws = np.array([h.lambert_w0(start + k * ulp) for k in range(10_000)])
        assert np.isfinite(ws).all() and (ws >= -1.0).all()

    def test_halley_iterates_above_minus_one(self, monkeypatch):
        # the doubles nearest -1/e, where rounding could outweigh the margins
        # of lambert_w0's proof: every iterate reaches math.exp above -1
        iterates = []
        logged = types.SimpleNamespace(**vars(math))
        logged.exp = lambda w: iterates.append(w) or math.exp(w)
        monkeypatch.setattr(h1flow.lambertw, "math", logged)
        start = -math.exp(-1.0)
        ulp = abs(np.spacing(start))
        ws = [h.lambert_w0(start + k * ulp) for k in range(1000)]
        assert min(iterates) > -1.0 and min(ws) >= -1.0 and len(iterates) > 1000

    def test_below_branch_rejected(self):
        with pytest.raises(UsageError, match="^lambert_w0 requires x >= -1/e, got -1.0$"):
            h.lambert_w0(-1.0)

    def test_against_bisection(self):
        for x in (0.3, 1.0, 7.5, 123.0):
            assert h.lambert_w0(x) == pytest.approx(
                bisect_w(x, 0.0, 10.0), abs=1e-13
            )

    def test_infinity_maps_to_infinity(self):
        # +inf is in the domain x >= -1/e, and W_0 is unbounded
        assert h.lambert_w0(math.inf) == math.inf
        assert h.lambert_w0_of_exp(math.inf) == math.inf

    def test_monotone(self):
        xs = [-0.3, -0.1, 0.0, 0.5, 2.0, 50.0]
        ws = [h.lambert_w0(x) for x in xs]
        assert ws == sorted(ws)


class TestLambertW0OfExp:
    def test_identity_across_domain(self):
        for y in (-499.0, -100.0, -30.0, -1.0, 0.0, 1.0, 2.5, 100.0, 700.0):
            w = h.lambert_w0_of_exp(y)
            assert w > 0.0
            assert w + math.log(w) == pytest.approx(y, abs=1e-10 * max(1.0, abs(y)))

    def test_deep_negative_asymptote(self):
        # below the cutoff the answer is e^y to machine precision
        y = -600.0
        w = h.lambert_w0_of_exp(y)
        assert w == pytest.approx(math.exp(y), rel=1e-12)
        assert w > 0.0

    def test_frozen_value_y_100(self):
        assert h.lambert_w0_of_exp(100.0) == pytest.approx(W_PLUS_LOG_100, rel=1e-14)

    def test_agrees_with_direct_w(self):
        for y in (-30.0, -2.0, 0.0, 1.0, 5.0, 300.0, 700.0):
            assert h.lambert_w0_of_exp(y) == pytest.approx(
                h.lambert_w0(math.exp(y)), rel=1e-12
            )

    def test_positive_and_exact_over_the_whole_range(self):
        # Newton needs no guard against a step to w <= 0: sweep y over
        # (-500, 1.7e308], on both sides of 0 and through the linear middle,
        # and hold the residual relative to the two terms w and log w
        ys = np.concatenate([[np.nextafter(-500.0, 0.0)], -np.geomspace(499.99, 1e-300, 600),
                             [0.0], np.geomspace(1e-300, 1.7e308, 1200),
                             np.linspace(-500.0, 50.0, 551)[1:]])
        for y in ys.tolist():
            w = h.lambert_w0_of_exp(y)
            assert w > 0.0, y
            residual = abs(w + math.log(w) - y)
            assert residual <= 1e-15 * (w + abs(math.log(w))), y

    def test_monotone_increasing(self):
        ys = [-700.0, -500.0, -499.9, -10.0, 0.0, 10.0, 700.0]
        ws = [h.lambert_w0_of_exp(y) for y in ys]
        assert ws == sorted(ws)
        assert all(w > 0 for w in ws)


class TestCircleSolution:
    def test_initial_radius_recovered(self):
        for r0 in (0.05, 1.0, 3.7):
            assert h.CircleSolution(r0).radius(0.0) == pytest.approx(r0, rel=1e-13)

    def test_frozen_unit_circle_values(self):
        sol = h.CircleSolution(1.0)
        for t, r in R_CIRCLE.items():
            assert sol.radius(t) == pytest.approx(r, rel=1e-14)

    def test_implicit_equation(self):
        # r^2 + log r^2 = c - 2t along the solution
        sol = h.CircleSolution(0.7)
        for t in (-3.0, 0.0, 1.0, 4.0, 40.0):
            r = sol.radius(t)
            assert r * r + math.log(r * r) == pytest.approx(sol.c - 2 * t, abs=1e-9)

    def test_strictly_shrinking_forward(self):
        sol = h.CircleSolution(2.0)
        rs = [sol.radius(t) for t in (-2.0, -1.0, 0.0, 1.0, 5.0, 20.0)]
        assert all(b < a for a, b in zip(rs, rs[1:]))
        assert rs[-1] > 0.0

    def test_velocity_matches_ode(self):
        # dr/dt = -r / (1 + r^2), checked by central difference
        sol = h.CircleSolution(1.3)
        for t in (-1.0, 0.0, 2.0):
            r = sol.radius(t)
            eps = 1e-6
            fd = (sol.radius(t + eps) - sol.radius(t - eps)) / (2 * eps)
            assert fd == pytest.approx(-r / (1 + r * r), rel=1e-6)

    def test_large_backward_time_no_overflow(self):
        # e^{c - 2t} overflows near t = -350; the solver must not
        sol = h.CircleSolution(1.0)
        r = sol.radius(-1000.0)
        assert math.isfinite(r)
        assert r == pytest.approx(math.sqrt(2 * 1000.0 + 1), rel=1e-2)

    def test_deep_forward_time_underflow_safe(self):
        sol = h.CircleSolution(1.0)
        r = sol.radius(300.0)
        assert 0.0 < r < 1e-100
        # past t ~ 373 the radius is below the double range; 0.0 is the
        # nearest representable value and must come back without error
        r_far = sol.radius(500.0)
        assert math.isfinite(r_far) and r_far >= 0.0

    @pytest.mark.parametrize("r0", [1e155, 1e200, math.inf, 1e-155, 1e-200])
    def test_rejects_r0_squared_outside_normal_range(self, r0):
        with pytest.raises(UsageError, match="r0"):
            h.CircleSolution(r0)

    @pytest.mark.parametrize("t", [math.nan, -1e308, -math.inf])
    def test_rejects_time_without_finite_radius(self, t):
        with pytest.raises(UsageError, match="t = "):
            h.CircleSolution(1.0).radius(t)

    def test_range_edges_accepted(self):
        # the smallest and largest r0 whose square is a normal double, and
        # c - 2t = -inf, the limit r = 0
        assert h.CircleSolution(1e154).radius(0.0) == 1e154
        assert h.CircleSolution(1.5e-154).radius(0.0) == pytest.approx(1.5e-154, rel=1e-13)
        assert h.CircleSolution(1.0).radius(1e308) == 0.0
        assert h.CircleSolution(1.0).radius(math.inf) == 0.0

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            h.CircleSolution(0.0)
        with pytest.raises(ValueError):
            h.CircleSolution(-1.0)
