"""Initial-curve generators: parameter validation and geometry of each kind."""
import math

import numpy as np
import pytest

import h1flow as h


class TestGeneratorSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            h.GeneratorSpec(kind="pentagon")

    def test_too_few_vertices_rejected(self):
        # the count is checked by the generator that uses it
        spec = h.GeneratorSpec(kind="circle", n=2)
        with pytest.raises(ValueError, match="^n must be >= 3$"):
            h.generate(spec)

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(ValueError):
            h.GeneratorSpec(kind="circle", size=0.0)
        with pytest.raises(ValueError):
            h.GeneratorSpec(kind="ellipse", size=1.0, size_b=-0.5)

    @pytest.mark.parametrize("kw", [dict(n=64.5), dict(n=64.0),
                                    dict(kind="star", lobes=2.5)])
    def test_non_integer_count_rejected(self, kw):
        name = "n" if "n" in kw else "lobes"
        spec = h.GeneratorSpec(**kw)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            h.generate(spec)

    def test_numpy_integer_counts_accepted(self):
        spec = h.GeneratorSpec(kind="star", n=np.int64(64), lobes=np.int32(3))
        assert np.array_equal(h.generate(spec).vertices, h.star(1.0, 0.3, 3, 64).vertices)
        assert np.array_equal(h.square(1.0, np.int64(64)).vertices, h.square(1.0, 64).vertices)
        assert np.array_equal(h.barbell(1.0, 0.25, np.int16(64)).vertices,
                              h.barbell(1.0, 0.25, 64).vertices)

    @pytest.mark.parametrize("make, message", [
        # a 65-gon whose closing edge is half as long as the others
        (lambda: h.circle(1.0, 64.5), "^n must be an integer, got 64.5$"),
        (lambda: h.ellipse(1.0, 0.5, 64.5), "^n must be an integer, got 64.5$"),
        (lambda: h.square(1.0, 64.0), "^n must be an integer, got 64.0$"),
        (lambda: h.barbell(1.0, 0.25, 64.5), "^n must be an integer, got 64.5$"),
        (lambda: h.star(1.0, 0.3, 5, 64.5), "^n must be an integer, got 64.5$"),
        # cos(2.5 theta) does not close: a closing edge 4.8 times the median
        (lambda: h.star(1.0, 0.3, 2.5, 64), "^lobes must be an integer, got 2.5$"),
        (lambda: h.circle(1.0, 2), "^n must be >= 3$"),
        (lambda: h.square(1.0, 0), "^n must be >= 3$"),
        (lambda: h.barbell(1.0, 0.25, 2), "^n must be >= 3$"),
        (lambda: h.star(1.0, 0.3, 5, -1), "^n must be >= 3$"),
    ], ids=["circle-n64.5", "ellipse-n64.5", "square-n64.0", "barbell-n64.5", "star-n64.5",
            "star-lobes2.5", "circle-n2", "square-n0", "barbell-n2", "star-n-1"])
    def test_generators_check_their_counts(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_barbell_neck_range(self):
        # barbell refuses a neck outside (0, radius), called directly or
        # through a spec; a negative neck would draw another, self-touching curve
        message = r"^neck half-width must lie in \(0, radius\)$"
        for neck in (0.0, 1.0, 2.0, -0.25):
            with pytest.raises(ValueError, match=message):
                h.barbell(1.0, neck, 64)
            with pytest.raises(ValueError, match=message):
                h.generate(h.GeneratorSpec(kind="barbell", n=64, size=1.0, neck=neck))
        h.generate(h.GeneratorSpec(kind="barbell", size=1.0, neck=0.999))  # boundary ok

    def test_file_is_not_a_kind(self):
        # a curve file is read by read_curve, not generated
        with pytest.raises(ValueError, match="^unknown shape 'file'$"):
            h.GeneratorSpec(kind="file")

    def test_frozen(self):
        spec = h.GeneratorSpec(kind="circle")
        with pytest.raises(AttributeError):
            spec.n = 7


class TestCircle:
    def test_cardinal_points(self):
        c = h.circle(1.0, 4)
        expect = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(c.vertices, expect, atol=1e-15)

    def test_radius_and_orientation(self):
        c = h.circle(2.5, 64)
        r = np.hypot(c.vertices[:, 0], c.vertices[:, 1])
        assert np.allclose(r, 2.5, rtol=1e-14)
        assert h.signed_area(c) > 0.0

    def test_vertex_count(self):
        assert h.circle(1.0, 37).n == 37


class TestSquare:
    def test_needs_divisible_by_four(self):
        with pytest.raises(ValueError):
            h.square(1.0, 10)

    def test_n8_vertices(self):
        s = h.square(1.0, 8)
        expect = np.array([
            [0.5, -0.5], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5],
            [-0.5, 0.5], [-0.5, 0.0], [-0.5, -0.5], [0.0, -0.5],
        ])
        assert np.allclose(s.vertices, expect, atol=1e-15)

    def test_perimeter_and_area_exact(self):
        s = h.square(2.0, 200)
        assert math.isclose(h.total_length(s), 8.0, rel_tol=1e-12)
        assert math.isclose(h.signed_area(s), 4.0, rel_tol=1e-12)

    def test_starts_at_lower_right_corner(self):
        s = h.square(3.0, 16)
        assert np.allclose(s.vertices[0], [1.5, -1.5], atol=1e-15)


class TestEllipse:
    def test_angle_uniform_parametrization(self):
        e = h.ellipse(1.0, 0.5, 4)
        expect = np.array([[1.0, 0.0], [0.0, 0.5], [-1.0, 0.0], [0.0, -0.5]])
        assert np.allclose(e.vertices, expect, atol=1e-15)

    def test_on_implicit_locus(self):
        e = h.ellipse(2.0, 0.75, 128)
        x, y = e.vertices[:, 0], e.vertices[:, 1]
        assert np.allclose((x / 2.0) ** 2 + (y / 0.75) ** 2, 1.0, rtol=1e-13)

    def test_equal_axes_is_circle(self):
        assert np.allclose(h.ellipse(1.3, 1.3, 48).vertices,
                           h.circle(1.3, 48).vertices, atol=1e-15)


class TestStar:
    def test_amplitude_range(self):
        with pytest.raises(ValueError):
            h.star(1.0, -0.1, 5, 64)
        with pytest.raises(ValueError):
            h.star(1.0, 1.0, 5, 64)

    @pytest.mark.parametrize("lobes", [0, -5])
    def test_lobe_count_below_one_rejected(self, lobes):
        with pytest.raises(ValueError, match="^lobes must be >= 1$"):
            h.star(1.0, 0.3, lobes, 64)
        with pytest.raises(ValueError, match="^lobes must be >= 1$"):
            h.generate(h.GeneratorSpec(kind="star", n=64, lobes=lobes))

    def test_zero_amplitude_is_circle(self):
        assert np.allclose(h.star(1.0, 0.0, 5, 64).vertices,
                           h.circle(1.0, 64).vertices, atol=1e-15)

    def test_radial_modulation(self):
        n, lobes, amp = 160, 5, 0.3
        s = h.star(1.0, amp, lobes, n)
        th = 2.0 * np.pi * np.arange(n) / n
        r = np.hypot(s.vertices[:, 0], s.vertices[:, 1])
        assert np.allclose(r, 1.0 + amp * np.cos(lobes * th), rtol=1e-13)

    def test_lobe_count(self):
        n, lobes = 160, 5
        s = h.star(1.0, 0.3, lobes, n)
        r = np.hypot(s.vertices[:, 0], s.vertices[:, 1])
        peaks = np.sum((r > np.roll(r, 1)) & (r >= np.roll(r, -1)))
        assert peaks == lobes


class TestBarbell:
    def test_starts_at_right_bottom_junction(self):
        b = h.barbell(1.0, 0.25, 200)
        alpha = math.asin(0.25)
        xj = 2.0 - math.cos(alpha)
        assert np.allclose(b.vertices[0], [xj, -0.25], atol=1e-14)

    def test_total_length_near_continuum(self):
        alpha = math.asin(0.25)
        cont = 2.0 * (2.0 * math.pi - 2.0 * alpha) + 4.0 * (2.0 - math.cos(alpha))
        assert math.isclose(h.total_length(h.barbell(1.0, 0.25, 200)), cont,
                            rel_tol=5e-3)

    def test_area_converges(self):
        ref = h.signed_area(h.barbell(1.0, 0.25, 100000))
        assert ref > 0.0
        assert math.isclose(h.signed_area(h.barbell(1.0, 0.25, 200)), ref,
                            rel_tol=2e-3)

    def test_extent_and_neck_band(self):
        b = h.barbell(1.0, 0.25, 400)
        x, y = b.vertices[:, 0], b.vertices[:, 1]
        assert 2.99 < x.max() <= 3.0 + 1e-12
        assert -3.0 - 1e-12 <= x.min() < -2.99
        assert np.abs(y).max() <= 1.0 + 1e-12
        mid = np.abs(x) < 0.5  # neck region holds only the two flat segments
        assert mid.any()
        assert np.allclose(np.abs(y[mid]), 0.25, atol=1e-14)

    def test_edges_nearly_uniform(self):
        e = h.arc_data(h.barbell(1.0, 0.25, 200)).edge_lengths
        assert e.max() / e.min() <= 1.3

    def test_scales_with_radius(self):
        b1 = h.barbell(1.0, 0.25, 200)
        b3 = h.barbell(3.0, 0.75, 200)
        assert np.allclose(b3.vertices, 3.0 * b1.vertices, rtol=1e-13, atol=1e-13)


class TestGenerate:
    def test_dispatch_circle(self):
        spec = h.GeneratorSpec(kind="circle", n=64, size=2.0)
        assert np.array_equal(h.generate(spec).vertices, h.circle(2.0, 64).vertices)

    def test_dispatch_square(self):
        spec = h.GeneratorSpec(kind="square", n=32, size=1.5)
        assert np.array_equal(h.generate(spec).vertices, h.square(1.5, 32).vertices)

    def test_ellipse_default_minor_axis(self):
        spec = h.GeneratorSpec(kind="ellipse", n=48, size=2.0)
        assert np.array_equal(h.generate(spec).vertices,
                              h.ellipse(2.0, 1.0, 48).vertices)
        spec_b = h.GeneratorSpec(kind="ellipse", n=48, size=2.0, size_b=0.3)
        assert np.array_equal(h.generate(spec_b).vertices,
                              h.ellipse(2.0, 0.3, 48).vertices)

    def test_dispatch_star_and_barbell(self):
        s = h.GeneratorSpec(kind="star", n=80, size=1.2, amplitude=0.2, lobes=7)
        assert np.array_equal(h.generate(s).vertices,
                              h.star(1.2, 0.2, 7, 80).vertices)
        b = h.GeneratorSpec(kind="barbell", n=120, size=2.0, neck=0.5)
        assert np.array_equal(h.generate(b).vertices,
                              h.barbell(2.0, 0.5, 120).vertices)

    def test_all_defaults_embedded(self):
        for kind in ("circle", "square", "ellipse", "star", "barbell"):
            curve = h.generate(h.GeneratorSpec(kind=kind))
            assert curve.n == 200
            assert h.chord_arc_min(curve).value > 0.0
            assert h.total_length(curve) > 0.0
