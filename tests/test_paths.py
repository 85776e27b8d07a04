"""Paths in curve space: length functional, shrink/twist/zigzag families."""
import math

import numpy as np
import pytest

import h1flow as h
from h1flow.errors import MismatchedFrames, NonMonotoneTwist
from h1flow.paths import _schedule_weights


def translation_path(n=64, d=2.0, frames=9):
    ring = h.circle(1.0, n)
    shift = np.array([d, 0.0])
    fs = tuple(
        h.PolyCurve(ring.vertices + tk * shift)
        for tk in np.linspace(0.0, 1.0, frames)
    )
    return h.CurvePath(frames=fs, mode="full")


def twist_path(n=64, lam=0.5, frames=9):
    """The reparam demo of the CLI: one smooth twist bump."""
    delta = lam * n / (2.0 * math.pi) * np.sin(2.0 * math.pi * np.arange(n) / n)
    return h.reparam_path(h.circle(1.0, n), delta, frames)


def quotient_length_via_frame_data(path):
    """The quotient path length with the normals of frame_data: the reference
    for path_length_l2ds, which takes the same normals without computing
    the curvature."""
    m = len(path.frames)
    dt = 1.0 / (m - 1)
    total = 0.0
    for k in range(m - 1):
        left = h.arc_data(path.frames[k])
        v = (path.frames[k + 1].vertices - left.vertices) / dt
        vn = np.einsum("ij,ij->i", v, h.frame_data(left).normal)
        total += np.sqrt(float((vn * vn * left.ds).sum())) * dt
    return float(total)


class TestCurvePath:
    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            h.CurvePath(frames=(h.circle(1.0, 16),), mode="full")

    def test_frame_sizes_must_agree(self):
        with pytest.raises(MismatchedFrames):
            h.CurvePath(frames=(h.circle(1.0, 16), h.circle(1.0, 32)))

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            h.CurvePath(frames=(h.circle(1.0, 16), h.circle(0.9, 16)),
                        mode="partial")

    def test_as_mode_round_trip(self):
        p = translation_path()
        q = h.as_mode(p, "quotient")
        assert q.mode == "quotient"
        assert q.frames is p.frames
        assert h.as_mode(q, "full").mode == "full"


class TestPathLength:
    def test_translation_full_length(self):
        # constant velocity d over unit time: length = d * sqrt(L)
        n, d = 64, 2.0
        p = translation_path(n=n, d=d)
        L = h.total_length(h.circle(1.0, n))
        assert h.path_length_l2ds(p) == pytest.approx(d * math.sqrt(L), rel=1e-9)

    def test_translation_quotient_halves_energy(self):
        # only the normal component survives: <e_x, N>^2 averages to 1/2
        p = translation_path()
        full = h.path_length_l2ds(p)
        quot = h.path_length_l2ds(h.as_mode(p, "quotient"))
        assert quot / full == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)

    def test_quotient_never_exceeds_full(self):
        for p in (translation_path(), h.shrink_path(h.circle(1.0, 48), 0.4, 9)):
            assert h.path_length_l2ds(h.as_mode(p, "quotient")) <= (
                h.path_length_l2ds(p) + 1e-12
            )

    def test_radial_motion_fully_normal(self):
        # shrinking a circle moves along the normal: both modes agree
        p = h.shrink_path(h.circle(1.0, 64), 0.5, 17)
        full = h.path_length_l2ds(p)
        quot = h.path_length_l2ds(h.as_mode(p, "quotient"))
        assert quot == pytest.approx(full, rel=1e-9)

    @pytest.mark.parametrize("make", [
        translation_path,
        lambda: h.shrink_path(h.star(1.0, 0.3, 5, 64), 0.5, 9),
        twist_path,
        lambda: h.zigzag_path(translation_path(n=64, frames=9), 2),
    ], ids=["translation", "shrink", "reparam", "zigzag"])
    def test_quotient_normals_are_those_of_frame_data(self, make):
        path = h.as_mode(make(), "quotient")
        assert h.path_length_l2ds(path) == quotient_length_via_frame_data(path)

    def test_reversal_symmetry(self):
        p = translation_path()
        rev = h.CurvePath(frames=p.frames[::-1], mode="full")
        assert h.path_length_l2ds(rev) == pytest.approx(
            h.path_length_l2ds(p), rel=1e-9
        )


class TestShrinkPath:
    def test_endpoints(self):
        c = h.star(1.0, 0.3, 5, 32)
        p = h.shrink_path(c, 0.25, 9)
        assert np.array_equal(p.frames[0].vertices, c.vertices)
        assert np.allclose(p.frames[-1].vertices, 0.25 * c.vertices)

    def test_closed_form_length(self):
        # speed |(lam - 1) X| in L2(ds) at scale s(t): with M = sum |X|^2 ds,
        # integral of (1 - lam) sqrt(M) s^{3/2} ds over the scale family
        n, lam = 256, 0.5
        c = h.circle(1.0, n)
        M = h.l2ds_inner(c, c.vertices, c.vertices)
        expect = math.sqrt(M) * (2.0 / 3.0) * (1.0 - lam ** 1.5)
        got = h.path_length_l2ds(h.shrink_path(c, lam, 4097))
        assert got == pytest.approx(expect, rel=1e-3)

    def test_lambda_domain(self):
        c = h.circle(1.0, 16)
        for lam in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                h.shrink_path(c, lam, 5)
        # lam = 1 is the constant path
        assert h.path_length_l2ds(h.shrink_path(c, 1.0, 5)) == pytest.approx(0.0,
                                                                             abs=1e-14)

    def test_deeper_shrink_is_longer(self):
        c = h.circle(1.0, 64)
        l1 = h.path_length_l2ds(h.shrink_path(c, 0.5, 65))
        l2 = h.path_length_l2ds(h.shrink_path(c, 0.1, 65))
        assert l2 > l1


class TestReparamPath:
    def twist(self, n, amp):
        return amp * np.sin(2 * np.pi * np.arange(n) / n)

    def test_frames_stay_on_the_polygon(self):
        n = 64
        c = h.circle(1.0, n)
        p = h.reparam_path(c, self.twist(n, 3.0), 9)
        # circle polygon vertices have |x| = 1; edge midpoints dip inside
        for f in p.frames:
            r = np.linalg.norm(f.vertices, axis=1)
            assert np.all(r <= 1.0 + 1e-12)
            assert np.all(r >= math.cos(math.pi / n) - 1e-12)

    def test_identity_twist_is_constant_path(self):
        n = 32
        c = h.star(1.0, 0.3, 5, n)
        p = h.reparam_path(c, np.zeros(n), 5)
        for f in p.frames:
            assert np.array_equal(f.vertices, c.vertices)

    def test_non_monotone_rejected(self):
        n = 32
        c = h.circle(1.0, n)
        with pytest.raises(NonMonotoneTwist):
            h.reparam_path(c, self.twist(n, n), 5)  # folds back
        with pytest.raises(NonMonotoneTwist):
            h.reparam_path(c, np.zeros(n - 1), 5)  # wrong size

    def test_full_mode_scaling_three_halves(self):
        # the integrand carries |x'|^3: scaling the curve by lam scales the
        # path length by lam^{3/2}
        n = 256
        c = h.circle(1.0, n)
        delta = self.twist(n, 6.0)
        vals = {}
        for lam in (1.0, 0.5, 0.25):
            p = h.reparam_path(h.PolyCurve(lam * c.vertices), delta, 33)
            vals[lam] = h.path_length_l2ds(p) / lam ** 1.5
        spread = max(vals.values()) / min(vals.values())
        assert spread <= 1.10

    def test_small_twist_linear_response(self):
        n = 256
        c = h.circle(1.0, n)
        l1 = h.path_length_l2ds(h.reparam_path(c, self.twist(n, 6.0), 33))
        l2 = h.path_length_l2ds(h.reparam_path(c, self.twist(n, 3.0), 33))
        assert l2 / l1 == pytest.approx(0.5, rel=0.15)

    def test_frame_refinement_stable(self):
        n = 256
        c = h.circle(1.0, n)
        delta = self.twist(n, 6.0)
        a = h.path_length_l2ds(h.reparam_path(c, delta, 17))
        b = h.path_length_l2ds(h.reparam_path(c, delta, 33))
        assert abs(a - b) / b <= 0.02

    def test_quotient_mode_sees_almost_nothing(self):
        # sliding the parametrization is tangential motion
        n = 256
        c = h.circle(1.0, n)
        p = h.reparam_path(c, self.twist(n, 6.0), 33)
        full = h.path_length_l2ds(p)
        quot = h.path_length_l2ds(h.as_mode(p, "quotient"))
        assert quot <= 0.05 * full


class TestZigzagPath:
    def test_needs_full_mode_and_divisibility(self):
        base = translation_path(n=64)
        with pytest.raises(ValueError):
            h.zigzag_path(h.as_mode(base, "quotient"), 2)
        with pytest.raises(ValueError):
            h.zigzag_path(base, 5)  # 32 % 5 != 0
        with pytest.raises(ValueError):
            h.zigzag_path(base, 0)

    def test_endpoints_and_frame_count(self):
        base = translation_path(n=64, frames=9)
        z = h.zigzag_path(base, 2)
        assert len(z.frames) == 4 * (9 - 1) + 1
        assert np.allclose(z.frames[0].vertices, base.frames[0].vertices)
        assert np.allclose(z.frames[-1].vertices, base.frames[-1].vertices)

    def test_frames_are_the_blend_of_the_gathered_base_frames(self):
        # the flat (m * n, 2) gather gives the bits of 2-D fancy indexing
        # into the (m, n, 2) stack of base frames
        n, m = 64, 9
        base = translation_path(n=n, frames=m)
        stack = np.stack([f.vertices for f in base.frames])
        mu = _schedule_weights(n, 2)
        rows = np.arange(n)
        z = h.zigzag_path(base, 2)
        for j, frame in enumerate(z.frames):
            t = j / (len(z.frames) - 1)
            phase = (1.0 - mu) * min(2.0 * t, 1.0) + mu * max(2.0 * t - 1.0, 0.0)
            pos = phase * (m - 1)
            idx = np.minimum(pos.astype(int), m - 2)
            w = (pos - idx)[:, None]
            expect = stack[idx, rows] * (1.0 - w) + stack[idx + 1, rows] * w
            assert frame.vertices.tobytes() == expect.tobytes()

    def test_detour_costs_more_in_full_mode(self):
        base = translation_path(n=64, d=2.0, frames=9)
        z = h.zigzag_path(base, 1)
        assert h.path_length_l2ds(z) >= h.path_length_l2ds(base)

    def test_quotient_cost_comparable_at_one_tooth(self):
        base = translation_path(n=64, d=2.0, frames=9)
        z = h.zigzag_path(base, 1)
        qb = h.path_length_l2ds(h.as_mode(base, "quotient"))
        qz = h.path_length_l2ds(h.as_mode(z, "quotient"))
        assert 0.3 <= qz / qb <= 3.0

    def test_more_teeth_cheaper_quotient(self, zigzag_lengths):
        q = zigzag_lengths["quotient"]
        assert q[8] < q[4] < q[2] < q[1]

    def test_full_cost_never_below_base(self, zigzag_lengths):
        assert min(zigzag_lengths["full"].values()) >= zigzag_lengths["base_full"]


class TestPathJson:
    def test_round_trip(self):
        p = translation_path(n=16, frames=3)
        q = h.path_from_json(h.path_to_json(p))
        assert q.mode == p.mode
        assert len(q.frames) == len(p.frames)
        for a, b in zip(q.frames, p.frames):
            assert np.array_equal(a.vertices, b.vertices)

    def test_mode_preserved(self):
        p = h.as_mode(translation_path(n=16, frames=3), "quotient")
        assert h.path_from_json(h.path_to_json(p)).mode == "quotient"

    def test_mode_defaults_to_full(self):
        d = h.path_to_json(translation_path(n=16, frames=3))
        del d["mode"]
        assert h.path_from_json(d).mode == "full"

    def test_frame_without_vertices_named(self):
        d = h.path_to_json(translation_path(n=16, frames=3))
        d["frames"][1] = {"points": d["frames"][1]["vertices"]}
        with pytest.raises(h.UsageError, match='^frame 1: no "vertices" list$'):
            h.path_from_json(d)
