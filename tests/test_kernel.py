"""Green's-function kernel: pointwise values, assembled matrix, smoothing."""
import math

import numpy as np
import pytest

import h1flow as h
from h1flow.errors import ConstantMapGuard, OutOfDomain
from h1flow.kernel import apply_kernel


class TestGreensValue:
    def test_symmetry(self):
        assert h.greens_value(5.0, 1.2, 3.4) == pytest.approx(
            h.greens_value(5.0, 3.4, 1.2), rel=1e-15
        )

    def test_periodicity(self):
        L = 7.3
        assert h.greens_value(L, 1.0 + L, 2.0) == pytest.approx(
            h.greens_value(L, 1.0, 2.0), rel=1e-12
        )

    def test_strictly_negative(self):
        L = 4.0
        ss = np.linspace(0.0, L, 41)
        vals = h.greens_value(L, ss, 1.7)
        assert np.all(vals < 0.0)

    def test_closed_form(self):
        # cosh(d - L/2) / (2 sinh(-L/2)) in the naive formulation
        L, s, st = 3.0, 0.4, 2.1
        d = abs(s - st)
        naive = math.cosh(d - L / 2) / (2 * math.sinh(-L / 2))
        assert h.greens_value(L, s, st) == pytest.approx(naive, rel=1e-13)

    def test_large_length_no_overflow(self):
        # cosh/sinh overflow near L = 1400; the exponential form must not
        v = h.greens_value(5000.0, 500.0, 0.0)
        assert v == pytest.approx(-0.5 * math.exp(-500.0), rel=1e-12)
        assert h.greens_value(5000.0, 0.0, 0.0) == pytest.approx(-0.5, rel=1e-12)
        # antipodal value is below the double range; underflow, not overflow
        far = h.greens_value(5000.0, 2500.0, 0.0)
        assert math.isfinite(far) and far <= 0.0

    def test_ode_away_from_diagonal(self):
        # g'' - g = 0 off the source point
        L, st = 6.0, 2.0
        eps = 1e-4
        for s in (0.5, 3.7, 5.1):
            g = h.greens_value(L, s, st)
            gpp = (
                h.greens_value(L, s + eps, st)
                - 2 * g
                + h.greens_value(L, s - eps, st)
            ) / eps**2
            assert gpp == pytest.approx(g, rel=1e-6)

    def test_derivative_jump_at_source(self):
        # g' jumps by +1 crossing the source from below to above
        L, st = 6.0, 2.0
        eps = 1e-6
        right = (h.greens_value(L, st + eps, st) - h.greens_value(L, st, st)) / eps
        left = (h.greens_value(L, st, st) - h.greens_value(L, st - eps, st)) / eps
        assert right - left == pytest.approx(1.0, abs=1e-3)

    def test_lipschitz_half(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            L = float(rng.uniform(0.1, 50.0))
            st = float(rng.uniform(0, L))
            s = float(rng.uniform(0, L - 1e-3))
            d = float(rng.uniform(1e-7, 1e-3))
            slope = abs(
                h.greens_value(L, s + d, st) - h.greens_value(L, s, st)
            ) / d
            worst = max(worst, slope)
        assert worst <= 0.5 + 1e-9

    def test_nonpositive_length_rejected(self):
        with pytest.raises(OutOfDomain):
            h.greens_value(0.0, 0.0, 0.0)
        with pytest.raises(OutOfDomain):
            h.greens_value(-1.0, 0.0, 0.0)


class TestKernelMatrix:
    def test_symmetric_negative(self):
        km = h.kernel_matrix(h.star(1.0, 0.3, 5, 128))
        assert np.array_equal(km.G, km.G.T)
        assert np.all(km.G < 0.0)
        assert np.all(km.ds > 0.0)
        assert km.ds.sum() == pytest.approx(km.length, rel=1e-13)

    def test_matches_pointwise_values(self):
        c = h.star(1.0, 0.3, 5, 64)
        km = h.kernel_matrix(c)
        s = h.arc_data(c).s
        for i, j in ((0, 0), (3, 41), (10, 63), (30, 31)):
            assert km.G[i, j] == pytest.approx(
                h.greens_value(km.length, s[i], s[j]), rel=1e-13
            )

    def test_row_quadrature_near_minus_one(self):
        km = h.kernel_matrix(h.circle(1.0, 512))
        rows = km.G @ km.ds
        assert np.abs(rows + 1.0).max() <= 2e-3

    def test_row_defect_shrinks_with_resolution(self):
        d128 = h.row_quadrature_defect(h.kernel_matrix(h.circle(1.0, 128)))
        d512 = h.row_quadrature_defect(h.kernel_matrix(h.circle(1.0, 512)))
        assert d128 / d512 >= 3.0

    def test_guard_on_vanishing_curve(self):
        tiny = h.PolyCurve(1e-14 * h.circle(1.0, 16).vertices)
        with pytest.raises(ConstantMapGuard, match="below kernel guard"):
            h.kernel_matrix(tiny)
        # the flow applies the kernel without the matrix; same guard, same message
        with pytest.raises(ConstantMapGuard, match="below kernel guard"):
            h.flow_velocity(tiny)

    def test_circulant_on_circle(self):
        # equal spacing makes G_ij depend only on i - j mod n
        km = h.kernel_matrix(h.circle(1.0, 64))
        first = km.G[0]
        for i in (1, 17, 50):
            assert np.allclose(km.G[i], np.roll(first, i), rtol=1e-12, atol=1e-15)


SHAPES = {
    "circle": lambda n: h.circle(1.0, n),
    "square": lambda n: h.square(1.0, 4 * -(-n // 4)),  # n rounded up to 4k
    "ellipse": lambda n: h.ellipse(1.0, 0.5, n),
    "star": lambda n: h.star(1.0, 0.3, 5, n),
    "barbell": lambda n: h.barbell(1.0, 0.25, n),
}


class TestApplyKernel:
    # at L >= 1e3, e^{s} overflows past s ~ 709 on all but three n = 3 curves,
    # so these cases pass only with a segmented sweep
    @pytest.mark.parametrize("length", [1e-6, 1.0, 1e2, 1e3, 1e4])
    @pytest.mark.parametrize("n", [3, 64, 512])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_dense_product(self, shape, n, length):
        base = SHAPES[shape](n)
        c = h.PolyCurve(base.vertices * (length / h.total_length(base)))
        f = np.random.default_rng(n).standard_normal((c.n, 2))
        km = h.kernel_matrix(c)
        dense = (km.G * km.ds[None, :]) @ f
        swept = apply_kernel(h.arc_data(c), f)
        assert np.isfinite(swept).all()
        err = np.abs(swept - dense).max() / np.abs(dense).max()
        assert err <= 1e-13


class TestConvolution:
    def test_matches_matrix_product(self):
        rng = np.random.default_rng(5)
        c = h.star(1.0, 0.3, 5, 96)
        f = rng.standard_normal((96, 2))
        km = h.kernel_matrix(c)
        direct = -(km.G * km.ds[None, :]) @ f
        assert np.allclose(h.convolve_kernel(c, f), direct, rtol=1e-14)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(6)
        c = h.circle(1.0, 80)
        f = np.abs(rng.standard_normal((80, 2)))
        out = h.convolve_kernel(c, f)
        assert np.all(out >= 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        c = h.star(1.0, 0.3, 5, 64)
        f = rng.standard_normal((64, 2))
        g = rng.standard_normal((64, 2))
        lhs = h.convolve_kernel(c, 2.0 * f - 3.0 * g)
        rhs = 2.0 * h.convolve_kernel(c, f) - 3.0 * h.convolve_kernel(c, g)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            h.convolve_kernel(h.circle(1.0, 32), np.zeros((31, 2)))

    def test_l2ds_contraction(self):
        # |f * K|_{L2(ds)} <= |f|_{L2(ds)}: the kernel has unit L1 mass
        # up to the quadrature defect, and smoothing cannot amplify
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(16, 200))
            th = 2 * np.pi * np.arange(n) / n
            rad = 1.0 + 0.4 * np.sin(3 * th + rng.uniform(0, 6)) \
                + 0.2 * np.cos(5 * th + rng.uniform(0, 6))
            c = h.PolyCurve(np.stack([rad * np.cos(th), rad * np.sin(th)], axis=1))
            f = rng.standard_normal((n, 2))
            assert h.norms(c, h.convolve_kernel(c, f)).l2_ds <= (
                h.norms(c, f).l2_ds + 1e-9
            )
