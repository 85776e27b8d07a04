"""Green's-function kernel: pointwise values, assembled matrix, smoothing."""
import math

import numpy as np
import pytest

import h1flow as h
import h1flow.kernel
from h1flow.errors import ConstantMapGuard, UsageError


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
        with pytest.raises(UsageError, match="^greens_value requires L > 0, got 0.0$"):
            h.greens_value(0.0, 0.0, 0.0)
        with pytest.raises(UsageError, match="^greens_value requires L > 0, got -1.0$"):
            h.greens_value(-1.0, 0.0, 0.0)


class TestKernelMatrix:
    def test_symmetric_negative(self):
        c = h.star(1.0, 0.3, 5, 128)
        G, ad = h.kernel_matrix(c), h.arc_data(c)
        assert G.shape == (c.n, c.n)
        assert np.array_equal(G, G.T)
        assert np.all(G < 0.0)
        assert np.all(ad.ds > 0.0)
        assert ad.ds.sum() == pytest.approx(ad.length, rel=1e-13)

    def test_matches_pointwise_values(self):
        c = h.star(1.0, 0.3, 5, 64)
        G, ad = h.kernel_matrix(c), h.arc_data(c)
        for i, j in ((0, 0), (3, 41), (10, 63), (30, 31)):
            assert G[i, j] == pytest.approx(
                h.greens_value(ad.length, ad.s[i], ad.s[j]), rel=1e-13
            )

    def test_row_quadrature_near_minus_one(self):
        c = h.circle(1.0, 512)
        rows = h.kernel_matrix(c) @ h.arc_data(c).ds
        assert np.abs(rows + 1.0).max() <= 2e-3

    def test_row_defect_shrinks_with_resolution(self):
        d128 = h.row_quadrature_defect(h.circle(1.0, 128))
        d512 = h.row_quadrature_defect(h.circle(1.0, 512))
        assert d128 / d512 >= 3.0

    @pytest.mark.parametrize("n", [64, 128, 512])
    @pytest.mark.parametrize("r", [0.25, 1.0, 4.0, 120.0])
    def test_row_defect_closed_form_on_circle(self, r, n):
        # every row of a regular n-gon with edge e sums to (e/2) coth(e/2).
        # arc_data's length (a pairwise sum) and s (a running sum) round
        # apart, so the closing gap L - s_{n-1} misses e by delta, 4.3e-12 at
        # r = 120, n = 512, and the rows beside it by up to |delta| / 2
        c = h.circle(r, n)
        ad = h.arc_data(c)
        e = 2.0 * r * math.sin(math.pi / n)
        delta = ad.length - ad.s[-1] - ad.edge_lengths[-1]
        defect = h.row_quadrature_defect(c)
        assert abs(defect - ((e / 2) / math.tanh(e / 2) - 1.0)) <= 1e-13 + abs(delta)
        assert abs(defect - np.abs(h.kernel_matrix(c) @ ad.ds + 1.0).max()) <= 1e-13

    def test_guard_on_vanishing_curve(self):
        tiny = h.PolyCurve(1e-14 * h.circle(1.0, 16).vertices)
        with pytest.raises(ConstantMapGuard, match="below kernel guard"):
            h.kernel_matrix(tiny)
        # the flow applies the kernel without the matrix; same guard, same message
        with pytest.raises(ConstantMapGuard, match="below kernel guard"):
            h.flow_velocity(tiny)

    def test_circulant_on_circle(self):
        # equal spacing makes G_ij depend only on i - j mod n
        G = h.kernel_matrix(h.circle(1.0, 64))
        for i in (1, 17, 50):
            assert np.allclose(G[i], np.roll(G[0], i), rtol=1e-12, atol=1e-15)


SHAPES = {
    "circle": lambda n: h.circle(1.0, n),
    "square": lambda n: h.square(1.0, 4 * -(-n // 4)),  # n rounded up to 4k
    "ellipse": lambda n: h.ellipse(1.0, 0.5, n),
    "star": lambda n: h.star(1.0, 0.3, 5, n),
    "barbell": lambda n: h.barbell(1.0, 0.25, n),
}


# every shape at three sizes, scaled to each length. At L >= 1e3, e^{s}
# overflows past s ~ 709 on all but three n = 3 curves, so these cases pass
# only with a segmented sweep. L = 2.6e2 puts s_{n-1} just past
# SWEEP_SPAN = 256 at n = 512 (one cut at the last points) and L = 5e2 cuts
# every curve once
OVER_LENGTHS = pytest.mark.parametrize("length", [1e-6, 1.0, 1e2, 2.6e2, 5e2, 1e3, 1e4])
OVER_SIZES = pytest.mark.parametrize("n", [3, 64, 512])
OVER_SHAPES = pytest.mark.parametrize("shape", sorted(SHAPES))


def scaled(shape, n, length):
    base = SHAPES[shape](n)
    return h.PolyCurve(base.vertices * (length / h.total_length(base)))


class TestApplyKernel:
    # convolve_kernel, the one kernel apply, and the centered velocity
    # against the dense products -(G ds) f and X rowsum(G ds) - (G ds) X
    @OVER_LENGTHS
    @OVER_SIZES
    @OVER_SHAPES
    def test_matches_dense_product(self, shape, n, length):
        c = scaled(shape, n, length)
        f = np.random.default_rng(n).standard_normal((c.n, 2))
        w = h.kernel_matrix(c) * h.arc_data(c).ds[None, :]
        dense = -w @ f
        swept = h.convolve_kernel(c, f)
        assert np.isfinite(swept).all()
        err = np.abs(swept - dense).max() / np.abs(dense).max()
        assert err <= 1e-13
        # the centered velocity cancels O(|X|) terms, so its bound is in |X|
        X = c.vertices
        centered = X * w.sum(axis=1)[:, None] - w @ X
        err = np.abs(h.flow_velocity_centered(c) - centered).max()
        assert err <= 1e-13 * np.abs(X).max()

    @OVER_LENGTHS
    @OVER_SIZES
    @OVER_SHAPES
    def test_centered_velocity_translation_equivariant(self, shape, n, length):
        # V = K*X - (K*1) X has no term in a translation a, up to round-off
        c = scaled(shape, n, length)
        a = np.array([7.0, -3.0]) * length
        V = h.flow_velocity_centered(c)
        moved = h.flow_velocity_centered(h.PolyCurve(c.vertices + a))
        bound = 1e-13 * (np.abs(c.vertices).max() + np.linalg.norm(a))
        assert np.abs(moved - V).max() <= bound


class TestSweepSegments:
    # the one-segment sweep of a curve of unit scale against the segmented
    # one, forced by a span far below the curve's length
    @pytest.mark.parametrize("curve", [h.circle(1.0, 64), h.star(1.0, 0.3, 5, 512)],
                             ids=["circle-64", "star-512"])
    def test_one_segment_matches_segmented(self, monkeypatch, curve):
        s = h.arc_data(curve).s
        assert s[-1] < h1flow.kernel.SWEEP_SPAN
        assert np.unique(s // 0.25).size >= 20
        rng = np.random.default_rng(curve.n)
        for field in (curve.vertices, rng.standard_normal((curve.n, 2)),
                      np.ones(curve.n)):
            one = h.convolve_kernel(curve, field)
            with monkeypatch.context() as m:
                m.setattr(h1flow.kernel, "SWEEP_SPAN", 0.25)
                cut = h.convolve_kernel(curve, field)
            assert np.abs(cut - one).max() <= 1e-13 * np.abs(one).max()


class TestConvolution:
    def test_matches_matrix_product(self):
        rng = np.random.default_rng(5)
        c = h.star(1.0, 0.3, 5, 96)
        f = rng.standard_normal((96, 2))
        direct = -(h.kernel_matrix(c) * h.arc_data(c).ds[None, :]) @ f
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
            g = h.convolve_kernel(c, f)
            assert math.sqrt(h.l2ds_inner(c, g, g)) <= math.sqrt(h.l2ds_inner(c, f, f)) + 1e-9
