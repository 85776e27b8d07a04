"""Flow velocity, inner products, and the first variation of length."""
import math
import warnings

import numpy as np
import pytest

import h1flow as h
import h1flow.curves
from conftest import RANGE_REFUSAL
from h1flow.errors import DegenerateCurve


def corpus():
    return [
        h.circle(1.0, 200),
        h.square(1.0, 200),
        h.square(4.0, 200),
        h.ellipse(1.0, 0.5, 200),
        h.star(1.0, 0.3, 5, 200),
        h.barbell(1.0, 0.25, 200),
    ]


class TestInnerProducts:
    # the inner products and the record share one L2(ds) sum and one edge
    # term, so they agree bit for bit
    def test_record_l2ds_is_the_norm(self):
        for c in (h.star(1.0, 0.3, 5, 256), h.ellipse(1.0, 0.5, 200)):
            X = c.vertices
            assert h.record(c, 0.25).l2ds == math.sqrt(h.l2ds_inner(c, X, X))

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(4)
        c = h.circle(1.0, 48)
        v, w, z = (rng.standard_normal((48, 2)) for _ in range(3))
        assert h.h1ds_inner(c, v, w) == pytest.approx(h.h1ds_inner(c, w, v), rel=1e-12)
        assert h.h1ds_inner(c, 2 * v + z, w) == pytest.approx(
            2 * h.h1ds_inner(c, v, w) + h.h1ds_inner(c, z, w), rel=1e-10
        )

    def test_norm_bit_equal_to_inner_with_a_copy(self):
        # with w is v the edge differences are formed once; a copy of v
        # takes the general path
        rng = np.random.default_rng(6)
        for c in (h.star(1.0, 0.3, 5, 256), h.ellipse(1.0, 0.5, 200)):
            v = rng.standard_normal((c.n, 2))
            assert h.h1ds_inner(c, v, v) == h.h1ds_inner(c, v, v.copy())

    def test_h1_dominates_l2(self):
        rng = np.random.default_rng(5)
        c = h.star(1.0, 0.3, 5, 64)
        v = rng.standard_normal((64, 2))
        assert h.h1ds_inner(c, v, v) >= h.l2ds_inner(c, v, v)

    def test_positive_definite(self):
        c = h.circle(1.0, 32)
        v = np.zeros((32, 2))
        assert h.h1ds_inner(c, v, v) == 0.0
        v[7] = [1e-8, 0.0]
        assert h.h1ds_inner(c, v, v) > 0.0

    @pytest.mark.parametrize("radius", [1e154, 1.5e154])
    @pytest.mark.parametrize("same", [True, False], ids=["v-v", "v-copy"])
    @pytest.mark.parametrize("inner", [h.l2ds_inner, h.h1ds_inner], ids=["l2ds", "h1ds"])
    def test_products_past_the_double_range(self, inner, same, radius):
        # the circle of that radius lies outside the coordinate range and is
        # refused by its name; on the unit circle, which the gate accepts,
        # its vertices are a caller's field whose products overflow: the
        # inner product is the inf of the sum, as flow_velocity's norm is,
        # with no RuntimeWarning
        v = h.circle(radius, 16).vertices
        c = h.circle(1.0, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                inner(h.PolyCurve(v), v, v)
            got = inner(c, v, v if same else v.copy())
        assert got == math.inf
        with np.errstate(all="ignore"):
            assert repr(got) == repr(inner(c, v, v.copy()))


class TestFirstVariation:
    def test_matches_central_difference(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(8, 100))
            th = 2 * np.pi * np.arange(n) / n
            rad = 1.0 + 0.3 * np.sin(4 * th + rng.uniform(0, 6))
            c = h.PolyCurve(np.stack([rad * np.cos(th), rad * np.sin(th)], axis=1))
            v = rng.standard_normal((n, 2))
            eps = 1e-6
            fd = (
                h.total_length(h.PolyCurve(c.vertices + eps * v))
                - h.total_length(h.PolyCurve(c.vertices - eps * v))
            ) / (2 * eps)
            d = abs(h.length_directional_derivative(c, v) - fd)
            worst = max(worst, d / (1 + h.total_length(c)))
        assert worst <= 1e-7

    def test_linear_in_direction(self):
        rng = np.random.default_rng(9)
        c = h.star(1.0, 0.3, 5, 64)
        v = rng.standard_normal((64, 2))
        w = rng.standard_normal((64, 2))
        lhs = h.length_directional_derivative(c, 3.0 * v - w)
        rhs = 3.0 * h.length_directional_derivative(
            c, v
        ) - h.length_directional_derivative(c, w)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_translation_direction_is_null(self):
        c = h.star(1.0, 0.3, 5, 64)
        v = np.tile([2.0, -1.0], (64, 1))
        assert abs(h.length_directional_derivative(c, v)) < 1e-12

    def test_dilation_direction_gives_length(self):
        # d/de L((1+e) X) = L
        c = h.star(1.0, 0.3, 5, 64)
        assert h.length_directional_derivative(c, c.vertices) == pytest.approx(
            h.total_length(c), rel=1e-12
        )

    def test_degenerate_rejected(self):
        c = h.PolyCurve(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DegenerateCurve):
            h.length_directional_derivative(c, np.zeros((4, 2)))


class TestFlowVelocity:
    def test_circle_closed_form(self):
        # V = -X / (1 + r^2) on a circle of radius r about the origin
        for r in (0.5, 1.0, 2.0):
            c = h.circle(r, 512)
            V = h.flow_velocity(c).velocity
            expect = -c.vertices / (1 + r * r)
            scale = np.abs(expect).max()
            assert np.abs(V - expect).max() <= 1e-3 * scale

    def test_steepest_descent_identity(self):
        # dL(v) = <-V, v> in the H1(ds) pairing, up to quadrature error
        c = h.star(1.0, 0.3, 5, 256)
        V = h.flow_velocity(c).velocity
        rng = np.random.default_rng(42)
        for _ in range(10):
            v = rng.standard_normal((256, 2))
            v = v / math.sqrt(h.h1ds_inner(c, v, v))
            defect = abs(
                h.length_directional_derivative(c, v) - h.h1ds_inner(c, -V, v)
            )
            assert defect <= 1e-3

    def test_gradient_norms_consistent(self):
        c = h.star(1.0, 0.3, 5, 128)
        vf = h.flow_velocity(c)
        assert vf.grad_norm_sq_h1ds == h.h1ds_inner(c, vf.velocity, vf.velocity)
        assert vf.grad_norm_sq_h1ds >= h.l2ds_inner(c, vf.velocity, vf.velocity)

    def test_matches_dense_kernel(self):
        for c in corpus():
            X = c.vertices
            dense = -X - (h.kernel_matrix(c) * h.arc_data(c).ds[None, :]) @ X
            V = h.flow_velocity(c).velocity
            assert np.abs(V - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_rotation_equivariance(self):
        th = math.radians(30)
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        c = h.star(1.0, 0.3, 5, 256)
        v1 = h.flow_velocity(c).velocity
        v2 = h.flow_velocity(h.PolyCurve(c.vertices @ R.T)).velocity
        assert np.abs(v2 - v1 @ R.T).max() <= 1e-13

    def test_translation_near_invariance(self):
        # exact in the continuum; discretely off by the row defect times |a|
        a = np.array([3.0, -1.0])
        c = h.circle(1.0, 512)
        v1 = h.flow_velocity(c).velocity
        v2 = h.flow_velocity(h.PolyCurve(c.vertices + a)).velocity
        assert np.abs(v2 - v1).max() <= 2e-3 * np.linalg.norm(a)

    def test_circle_law_at_several_radii(self):
        # the continuum circle moves inward at r / (1 + r^2); the polygon
        # misses it by O(n^-2), so the n = 256/512 errors stand in a ratio
        # of 4 and their Richardson value recovers the law
        for r in (0.25, 0.5, 1.0, 2.0, 4.0):
            exact = r / (1 + r * r)
            speed = {}
            for n in (256, 512):
                c = h.circle(r, n)
                V = h.flow_velocity(c).velocity
                radial = np.einsum("ij,ij->i", V, c.vertices) / r
                speed[n] = -float(radial.mean())
            ratio = (speed[256] - exact) / (speed[512] - exact)
            assert 3.99 <= ratio <= 4.01
            richardson = (4 * speed[512] - speed[256]) / 3
            assert abs(richardson - exact) <= 1e-6 * exact

    def test_centered_variant_agrees(self):
        for c in (h.circle(1.0, 128), h.star(1.0, 0.3, 5, 128)):
            direct = h.flow_velocity(c).velocity
            centered = h.flow_velocity_centered(c)
            # the two differ by the row defect times the position
            tol = 2e-3 * (1 + h.sup_norm(c))
            assert np.abs(direct - centered).max() <= tol

    def test_speed_bounded_by_length(self):
        for c in corpus():
            L = h.total_length(c)
            vmax = np.linalg.norm(h.flow_velocity(c).velocity, axis=1).max()
            assert vmax <= L * (1 + 1e-6)

    def test_velocity_smoother_than_curve(self):
        # |dV/du|_L2 <= 2 |dX/du|_L2: the kernel smooths before it steepens
        for c in corpus():
            V = h.flow_velocity(c).velocity
            n = c.n
            dV = np.roll(V, -1, axis=0) - V
            dX = np.roll(c.vertices, -1, axis=0) - c.vertices
            nV = math.sqrt(n * (dV**2).sum())
            nX = math.sqrt(n * (dX**2).sum())
            assert nV <= 2.0 * nX * (1 + 1e-6)

    def test_tangential_kernel_bound(self):
        # max_i |sum_j T_j G_ij ds_j| <= L^2 / 2
        for c in corpus():
            ad = h.arc_data(c)
            T = np.stack(h1flow.curves.frame_data(c)[0], axis=1)
            conv = (h.kernel_matrix(c) * ad.ds[None, :]) @ T
            mx = np.linalg.norm(conv, axis=1).max()
            assert mx <= (ad.length**2 / 2) * (1 + 1e-6)
