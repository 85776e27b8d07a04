"""Paths in curve space: length functional, shrink/twist/zigzag families."""
import copy
import gc
import json
import math
import operator
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

import h1flow as h
import h1flow.curves
import h1flow.paths
from conftest import AT_RANGE, BELOW_RANGE, RANGE_REFUSAL
from h1flow.curves import _dot, _l2ds_term, _owned, _tangent, _unit_edges
from h1flow.errors import DegenerateCurve, UsageError
from h1flow.paths import MODES, _schedule_weights


def translation_path(n=64, d=2.0, frames=9):
    ring = h.circle(1.0, n)
    shift = np.array([d, 0.0])
    fs = tuple(
        h.PolyCurve(ring.vertices + tk * shift)
        for tk in np.linspace(0.0, 1.0, frames)
    )
    return h.CurvePath(frames=fs, mode="full")


def twist_path(n=64, lam=0.5, frames=9, radius=1.0):
    """The reparam demo of the CLI: one smooth twist bump."""
    delta = lam * n / (2.0 * math.pi) * np.sin(2.0 * math.pi * np.arange(n) / n)
    return h.reparam_path(h.circle(radius, n), delta, frames)


def jittered_polygon(n=64, seed=18):
    """A seeded non-convex polygon: the regular n-gon with jittered angles
    and radii, moved off the origin so that a homothety about the origin
    moves some vertices along +N and others along -N."""
    rng = np.random.default_rng(seed)
    th = 2.0 * np.pi * (np.arange(n) + 0.4 * rng.uniform(-1.0, 1.0, n)) / n
    r = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, n)
    return h.PolyCurve(np.c_[r * np.cos(th) + 1.5, r * np.sin(th)])


def quotient_length_via_frame_data(path):
    """The quotient path length with the normals N = (-T_y, T_x) of the
    tangent of frame_data: the reference for path_length_l2ds, which takes
    the same normals without computing the curvature."""
    m = len(path.frames)
    dt = 1.0 / (m - 1)
    total = 0.0
    for k in range(m - 1):
        left = h.arc_data(path.frames[k])
        v = (path.frames[k + 1].vertices - left.vertices) / dt
        (tx, ty), _ = h1flow.curves.frame_data(left)
        vn = np.einsum("ij,ij->i", v, np.stack([-ty, tx], axis=1))
        total += np.sqrt(float((vn * vn * left.ds).sum())) * dt
    return float(total)


class TestCurvePath:
    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            h.CurvePath(frames=(h.circle(1.0, 16),), mode="full")

    def test_frame_sizes_must_agree(self):
        with pytest.raises(UsageError, match="^frame with 32 vertices among n = 16$"):
            h.CurvePath(frames=(h.circle(1.0, 16), h.circle(1.0, 32)))

    def test_frame_with_repeated_vertex_rejected(self):
        ring = h.circle(1.0, 16).vertices.copy()
        ring[1] = ring[0]
        with pytest.raises(DegenerateCurve, match="^degenerate frame in path$"):
            h.CurvePath(frames=(h.circle(1.0, 16), h.PolyCurve(ring)))

    @pytest.mark.parametrize("edge, refused", [(1e-200, True), (1e-160, False)])
    def test_tiny_edge(self, edge, refused):
        # the gate compares edge lengths with 0: 1e-200 squared underflows
        # to 0, and its length sqrt(0) = 0 is refused; 1e-160 squared is
        # subnormal but positive
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, edge]])
        frames = (h.PolyCurve(square), h.PolyCurve(0.5 * square))
        if refused:
            with pytest.raises(DegenerateCurve, match="^degenerate frame in path$"):
                h.CurvePath(frames=frames)
        else:
            assert h.CurvePath(frames=frames).n == 5

    def test_overflowing_frame_refused_by_name(self):
        # squared edges past the double range, and an edge past it, lie
        # outside the coordinate range: refused by its name, as the gate of
        # a generated frame refuses it, with no RuntimeWarning from the
        # squares; just inside the range the path builds and walks
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            wide = h.PolyCurve([[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308]])
            for last in (h.circle(1e155, 16), wide):
                with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                    h.CurvePath(frames=(h.circle(BELOW_RANGE, last.n), last))
            p = h.CurvePath(frames=(h.circle(BELOW_RANGE, 16),) * 2)
            assert _both_lengths(p) == (0.0, 0.0)
            assert all(math.isfinite(f.length) for f in h.zigzag_path(p, 2).frames)

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

    def test_as_mode_measures_no_frame(self, monkeypatch):
        # the frames were checked when the path was built; the check forms
        # each frame's edges by the _diff of arc_data's gate. A path built
        # on another path's frames shares the checked sequence, and checks
        # nothing again
        p = translation_path()
        calls = []
        original = h1flow.curves._diff

        def counted(a):
            calls.append(1)
            return original(a)

        monkeypatch.setattr(h1flow.curves, "_diff", counted)
        again = h.CurvePath(frames=p.frames)
        assert calls == []
        assert again.frames is p.frames
        q = h.as_mode(p, "quotient")
        assert calls == []
        assert q.frames is p.frames
        assert (q.mode, p.mode) == ("quotient", "full")
        with pytest.raises(ValueError, match="^mode must be one of"):
            h.as_mode(p, "partial")


def walk_by_difference_quotients(path):
    """Both lengths by the walk's earlier formula: the difference quotient
    v = (X_{k+1} - X_k) / dt, and each pair's root times dt, with the same
    L2(ds) sum and tangent. The reference of path_length_l2ds, which sums
    the roots over the frame differences themselves."""
    frames = path.frames
    dt = 1.0 / (len(frames) - 1)
    full = quot = 0.0
    for k in range(len(frames) - 1):
        left = h.arc_data(frames[k])
        v = frames[k + 1].vertices - left.vertices
        v /= dt
        full += np.sqrt(_l2ds_term(left, _dot(v, v))) * dt
        tx, ty = _tangent(*_unit_edges(left))
        vn = v[:, 1] * tx - v[:, 0] * ty
        quot += np.sqrt(_l2ds_term(left, vn * vn)) * dt
    return {"full": float(full), "quotient": float(quot)}


def seeded_path(family, count, seed):
    """A seeded path of `count` frames on a jittered polygon: explicit frames
    that drift vertex by vertex, a shrink, a twist, or a zigzag of teeth 2
    on explicit frames, whose `count` is then that of its base."""
    rng = np.random.default_rng(seed)
    c = jittered_polygon(n=4 * int(rng.integers(4, 17)), seed=seed)
    if family in ("explicit", "zigzag"):
        drift = np.cumsum(0.05 * rng.standard_normal((count, c.n, 2)), axis=0)
        path = h.CurvePath(frames=tuple(h.PolyCurve(c.vertices + D) for D in drift))
        return path if family == "explicit" else h.zigzag_path(path, 2)
    if family == "shrink":
        return h.shrink_path(c, rng.uniform(0.2, 0.9), count)
    amp = rng.uniform(0.1, 0.9) * c.n / (2.0 * math.pi)
    return h.reparam_path(c, amp * np.sin(2.0 * math.pi * np.arange(c.n) / c.n), count)


class TestWalkByDifferences:
    # dividing by dt = 2^-j and multiplying by it again is exact, so with
    # 2^j + 1 frames the lengths keep the bits of the difference quotients;
    # other counts move by round-off. A zigzag on m base frames has
    # 4 (m - 1) + 1, which is 2^j + 1 when m - 1 is a power of two
    FAMILIES = ["explicit", "shrink", "reparam", "zigzag"]

    @pytest.mark.parametrize("count", [2, 3, 5, 9, 17, 33])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bits_of_the_difference_quotients(self, family, count):
        for seed in range(3):
            path = seeded_path(family, count, seed)
            assert (len(path.frames) - 1) & (len(path.frames) - 2) == 0
            want = walk_by_difference_quotients(path)
            got = {mode: h.path_length_l2ds(h.as_mode(path, mode)) for mode in MODES}
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("count", [4, 6, 7, 11, 12, 25])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_round_off_of_the_difference_quotients(self, family, count):
        for seed in range(3):
            path = seeded_path(family, count, seed)
            want = walk_by_difference_quotients(path)
            for mode in MODES:
                got = h.path_length_l2ds(h.as_mode(path, mode))
                assert got == pytest.approx(want[mode], rel=1e-15, abs=0.0)


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
        lambda: h.shrink_path(jittered_polygon(), 0.5, 9),
    ], ids=["translation", "shrink", "reparam", "zigzag", "jittered-shrink"])
    def test_quotient_normals_are_those_of_frame_data(self, make):
        path = h.as_mode(make(), "quotient")
        assert h.path_length_l2ds(path) == quotient_length_via_frame_data(path)

    def test_quotient_cusp_rejected(self):
        # vertex 3 of the left frame turns back along its incoming edge
        spike = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [3.0, 1.0], [2.0, 1.0]])
        path = h.CurvePath(frames=(h.PolyCurve(spike), h.PolyCurve(0.5 * spike)),
                           mode="quotient")
        with pytest.raises(DegenerateCurve, match="^cusp vertex"):
            h.path_length_l2ds(path)

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
        with pytest.raises(ValueError, match="^frames must be >= 2$"):
            h.shrink_path(c, 0.5, 1)
        # the count rule of shapes: a float is refused, a NumPy integer kept
        with pytest.raises(ValueError, match="^frames must be an integer, got 2.5$"):
            h.shrink_path(c, 0.5, 2.5)
        assert len(h.shrink_path(c, 0.5, np.int64(3)).frames) == 3
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

    def test_path_owns_its_twist(self):
        # the path keeps its own copy of the twist, and leaves the caller's
        # array writable: changing that array later, even to a twist that
        # reparam_path refuses, moves no frame and no length
        n = 64
        c = h.circle(1.0, n)
        twist = self.twist(n, 3.0)
        p = h.reparam_path(c, twist, 9)
        fresh = h.reparam_path(c, twist.copy(), 9)
        twist[:] = np.linspace(0, 3 * n, n)
        with pytest.raises(UsageError):
            h.reparam_path(c, twist, 9)
        assert [f.vertices.tobytes() for f in p.frames] == [f.vertices.tobytes() for f in fresh.frames]
        assert _both_lengths(p) == _both_lengths(fresh)

    def test_identity_twist_is_constant_path(self):
        n = 32
        c = h.star(1.0, 0.3, 5, n)
        p = h.reparam_path(c, np.zeros(n), 5)
        for f in p.frames:
            assert np.array_equal(f.vertices, c.vertices)

    def test_non_monotone_rejected(self):
        n = 32
        c = h.circle(1.0, n)
        with pytest.raises(UsageError, match="^i [+] twist_i must be strictly increasing"):
            h.reparam_path(c, self.twist(n, n), 5)  # folds back
        with pytest.raises(UsageError, match=f"^twist must have {n} entries$"):
            h.reparam_path(c, np.zeros(n - 1), 5)  # wrong size
        with pytest.raises(ValueError, match="^frames must be >= 2$"):
            h.reparam_path(c, np.zeros(n), 1)
        with pytest.raises(ValueError, match="^frames must be an integer, got 3.5$"):
            h.reparam_path(c, np.zeros(n), 3.5)
        assert len(h.reparam_path(c, np.zeros(n), np.int64(3)).frames) == 3
        for bad in (np.nan, np.inf):
            # a NaN passes every order test; refused before any arithmetic,
            # so with no RuntimeWarning (an error under the suite's filters)
            with pytest.raises(UsageError, match="^twist must be finite$"):
                h.reparam_path(c, np.full(n, bad), 5)

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

    def test_frames_are_read_only_and_own_their_memory(self):
        base = translation_path(n=64, frames=9)
        z = h.zigzag_path(base, 2)
        for frame in z.frames:
            assert not frame.vertices.flags.writeable
            assert not any(np.shares_memory(frame.vertices, b.vertices) for b in base.frames)
        for a, b in zip(z.frames, z.frames[1:]):
            assert not np.shares_memory(a.vertices, b.vertices)

    def test_non_finite_blend_refused_when_formed(self):
        # a curve made without PolyCurve's check, with an inf vertex: as an
        # explicit frame it is refused when the path is built, by the gate
        # of arc_data; as the source of a generated path, the path builds
        # and each frame (inf, or inf * 0 = nan) is refused when it is read
        # or walked, as the flow refuses a state
        bad = h.circle(1.0, 16).vertices.copy()
        bad[3, 0] = np.inf
        with pytest.raises(FloatingPointError, match="^curve coordinates are not finite$"):
            h.CurvePath(frames=(h.circle(1.0, 16), _owned(bad)))
        p = h.shrink_path(_owned(bad), 0.5, 3)
        with pytest.raises(FloatingPointError, match="^curve coordinates are not finite$"):
            p.frames[2]
        with pytest.raises(FloatingPointError, match="^curve coordinates are not finite$"):
            h.path_length_l2ds(p)

    def test_as_mode_copies_of_the_base_share_the_table(self):
        base = translation_path(n=64, frames=9)
        table = _table(base)
        assert table.shape == (9, 64, 2) and table.flags.c_contiguous
        again = h.as_mode(h.as_mode(base, "quotient"), "full")
        assert _table(again) is table and again.frames is base.frames
        expect = [f.vertices.tobytes() for f in h.zigzag_path(base, 2).frames]
        assert [f.vertices.tobytes() for f in h.zigzag_path(again, 2).frames] == expect
        # a generated path keeps its recipe, not a table
        assert h.shrink_path(h.circle(1.0, 16), 0.5, 3).frames._form is h1flow.paths._shrink

    def test_explicit_path_pickles_after_a_zigzag_of_it(self):
        base = h.as_mode(translation_path(n=16, frames=3), "quotient")
        z = h.zigzag_path(h.as_mode(base, "full"), 1)
        length, lengths = h.path_length_l2ds(base), _both_lengths(z)
        for other in (pickle.loads(pickle.dumps(base)), copy.deepcopy(base)):
            assert other.mode == "quotient" and other._lengths == base._lengths
            assert [f.vertices.tobytes() for f in other.frames] == [f.vertices.tobytes() for f in base.frames]
            table = _table(other)
            assert table.tobytes() == _table(base).tobytes()
            # the copy's frames are rows of its own read-only table again
            assert not table.flags.writeable
            assert not np.shares_memory(table, _table(base))
            for frame in other.frames:
                assert np.shares_memory(frame.vertices, table)
                assert not frame.vertices.flags.writeable
            assert h.path_length_l2ds(other) == length
            assert h.path_length_l2ds(h.CurvePath(frames=other.frames, mode="quotient")) == length
            assert _both_lengths(h.zigzag_path(h.as_mode(other, "full"), 1)) == lengths

    def test_shared_table_gives_the_bits_of_a_fresh_one(self):
        # a generated base is stacked afresh for each zigzag; its explicit
        # copy gathers from the one table it holds
        generated = h.shrink_path(h.circle(1.0, 64), 0.5, 9)
        explicit = h.CurvePath(frames=tuple(generated.frames))
        fresh, shared = h.zigzag_path(generated, 2), h.zigzag_path(explicit, 2)
        assert [f.vertices.tobytes() for f in shared.frames] == [f.vertices.tobytes() for f in fresh.frames]
        assert _both_lengths(shared) == _both_lengths(fresh)

    def test_table_is_read_only_and_frames_share_no_memory_with_it(self):
        ring = h.circle(1.0, 64).vertices
        caller = tuple(h.PolyCurve(ring + [0.25 * k, 0.0]) for k in range(9))
        base = h.CurvePath(frames=caller)
        table = _table(base)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0
        # each frame is a row of the table, a copy of the caller's vertices,
        # measured when it is read
        for frame, c in zip(base.frames, caller):
            assert type(frame) is h.ArcData and frame.vertices.flags.c_contiguous
            assert frame.length == h.arc_data(c).length
            assert np.shares_memory(frame.vertices, table)
            assert not np.shares_memory(frame.vertices, c.vertices)
            assert frame.vertices.tobytes() == c.vertices.tobytes()
        for frame in h.zigzag_path(base, 2).frames:
            assert not np.shares_memory(frame.vertices, table)

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


GENERATED = {
    "shrink": lambda: h.shrink_path(h.star(1.0, 0.3, 5, 64), 0.5, 9),
    "reparam": twist_path,
    "zigzag": lambda: h.zigzag_path(translation_path(n=64, frames=9), 2),
    "jittered-shrink": lambda: h.shrink_path(jittered_polygon(), 0.5, 9),
}
# vertex 3 turns back along its incoming edge: a cusp in every frame
SPIKE = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [3.0, 1.0], [2.0, 1.0]])


class TestGeneratedFrames:
    @pytest.mark.parametrize("first", ["full", "quotient"])
    @pytest.mark.parametrize("make", GENERATED.values(), ids=GENERATED)
    def test_lengths_are_those_of_the_explicit_frames(self, make, first):
        # a quotient walk gives the full length too; either order, the
        # lengths are the bits of separate walks over the frames in a tuple
        p = make()
        modes = (first, "quotient" if first == "full" else "full")
        got = {mode: h.path_length_l2ds(h.as_mode(p, mode)) for mode in modes}
        frames = tuple(p.frames)
        assert isinstance(p.frames, h1flow.paths._Frames)
        for mode in modes:
            assert got[mode] == h.path_length_l2ds(h.CurvePath(frames=frames, mode=mode))
            assert h.path_length_l2ds(h.as_mode(p, mode)) == got[mode]

    @pytest.mark.parametrize("make", GENERATED.values(), ids=GENERATED)
    def test_a_frame_read_twice_is_formed_afresh(self, make):
        p = make()
        frames = p.frames
        a, b = frames[3], frames[3]
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert not np.shares_memory(a.vertices, b.vertices)
        assert not a.vertices.flags.writeable

    @pytest.mark.parametrize("make", GENERATED.values(), ids=GENERATED)
    def test_a_sequence_as_the_tuple_was(self, make):
        frames = make().frames
        listed = [f.vertices.tobytes() for f in frames]
        assert len(frames) == len(listed)
        assert frames[-1].vertices.tobytes() == listed[-1]
        assert frames[-len(listed)].vertices.tobytes() == listed[0]
        part = frames[1:6:2]
        assert type(part) is tuple
        assert [f.vertices.tobytes() for f in part] == listed[1:6:2]
        assert frames[len(listed):] == ()
        assert [f.vertices.tobytes() for f in reversed(frames)] == listed[::-1]
        for k in (len(listed), -len(listed) - 1):
            with pytest.raises(IndexError):
                frames[k]

    @pytest.mark.parametrize("mode", ["full", "quotient"])
    def test_degenerate_frame_refused_when_formed(self, mode):
        # a repeated vertex makes every frame degenerate; the path is built,
        # and each frame is refused as it is formed, with the message of an
        # explicit frame, not arc_data's
        ring = h.circle(1.0, 16).vertices.copy()
        ring[1] = ring[0]
        c = h.PolyCurve(ring)
        for p in (h.shrink_path(c, 0.5, 5), h.reparam_path(c, np.zeros(16), 5)):
            with pytest.raises(DegenerateCurve, match="^degenerate frame in path$"):
                p.frames[2]
            with pytest.raises(DegenerateCurve, match="^degenerate frame in path$"):
                h.path_length_l2ds(h.as_mode(p, mode))

    def test_overflowing_frame_refused_by_name(self):
        # squared edges past the double range lie outside the coordinate
        # range: the frame is refused by its name, as the flow refuses such
        # a state, with no RuntimeWarning from the squares
        p = h.shrink_path(h.circle(1e155, 16), 0.5, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                p.frames[1]
            with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                h.path_length_l2ds(p)

    def test_frame_above_the_overflow_bound_is_measured(self):
        # a frame just inside the coordinate range is measured in place, to
        # the bits of arc_data on a checked copy; at the range's bound it
        # is refused by its name (vertex 0 does not move, and sits on it)
        frame = twist_path(radius=BELOW_RANGE).frames[4]
        assert np.abs(frame.vertices).max() == BELOW_RANGE
        ref = h.arc_data(h.PolyCurve(frame.vertices))
        assert frame.length == ref.length
        assert frame.length == pytest.approx(BELOW_RANGE * twist_path().frames[4].length, rel=1e-15)
        for name in ("vertices", "ds", "edges", "edge_lengths", "s"):
            assert getattr(frame, name).tobytes() == getattr(ref, name).tobytes()
        with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
            twist_path(radius=AT_RANGE).frames[4]

    @pytest.mark.parametrize("mode", ["full", "quotient"])
    @pytest.mark.parametrize("make, scale", [
        (lambda r: h.shrink_path(h.circle(r, 16), 0.5, 3), 1e120),
        (lambda r: twist_path(radius=r), 1e152),
    ], ids=["shrink", "twist"])
    def test_overflowing_walk_refused_by_name(self, make, scale, mode):
        # at the scale, |v|^2 ds would overflow: the frames lie outside the
        # coordinate range, and the walk's first frame is refused by its
        # name, with no RuntimeWarning, and no length is kept. At 2^299,
        # inside the range, no sum of the walk overflows: the length is the
        # unit path's times 2^(299 * 3/2)
        unit = h.path_length_l2ds(h.as_mode(make(1.0), mode))
        p, past = (h.as_mode(make(r), mode) for r in (2.0 ** 299, scale))
        left, right = p.frames[:2]
        d = right.vertices - left.vertices
        assert math.isfinite(_l2ds_term(left, _dot(d, d)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert h.path_length_l2ds(p) == pytest.approx(unit * 2.0 ** 448.5, rel=1e-12)
            with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                h.path_length_l2ds(past)
        assert past._lengths == {}

    @pytest.mark.parametrize("mode", ["full", "quotient"])
    def test_walk_refuses_a_length_past_the_double_range(self, mode):
        # the walk has no refusal of its own: frames whose difference would
        # overflow lie outside the coordinate range, and the gate refuses
        # them by its name. Two frames at the range's opposite ends, the
        # largest difference a walk can see, give a finite length, 2 B^1.5
        # times the unit circle's L2(ds) norm, with no RuntimeWarning
        ad = h.arc_data(h.circle(1.0, 16))
        norm = math.sqrt(h.l2ds_inner(ad, ad.vertices, ad.vertices))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                h.CurvePath(frames=[h.PolyCurve(s * 1.5e308 * ad.vertices) for s in (-1, 1)])
            frames = [h.arc_data(s * BELOW_RANGE * ad.vertices) for s in (-1, 1)]
            lengths = h1flow.paths._walk(frames, mode == "quotient")
        assert len(lengths) == (2 if mode == "quotient" else 1)
        for length in lengths.values():
            assert length == pytest.approx(2.0 * BELOW_RANGE ** 1.5 * norm, rel=1e-12)

    @pytest.mark.parametrize("first", ["full", "quotient"])
    @pytest.mark.parametrize("generated", [False, True], ids=["explicit", "generated"])
    def test_cusp_fails_only_the_quotient_length(self, generated, first):
        frames = (h.PolyCurve(SPIKE), h.PolyCurve(0.5 * SPIKE))
        p = h.shrink_path(frames[0], 0.5, 2) if generated else h.CurvePath(frames=frames)
        expect = h.path_length_l2ds(h.CurvePath(frames=frames))
        for mode in (first, "quotient" if first == "full" else "full"):
            if mode == "full":
                assert h.path_length_l2ds(p) == expect
            else:
                with pytest.raises(DegenerateCurve, match="^cusp vertex"):
                    h.path_length_l2ds(h.as_mode(p, "quotient"))
        assert math.isfinite(expect) and expect > 0.0


def _traced_peak(fn):
    """The peak of the memory that fn allocates, in bytes, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _table(path):
    """The read-only (m, n, 2) table of an explicit path's frames."""
    assert path.frames._form is operator.getitem
    (table,) = path.frames._data
    return table


def _both_lengths(path):
    return h.path_length_l2ds(h.as_mode(path, "quotient")), h.path_length_l2ds(path)


class TestPathMemory:
    # a generated path keeps its recipe, and a walk holds two frames at a
    # time: at n = 8192, 257 frames of 128 KiB would take 33.7 MB
    N = 8192

    @pytest.mark.parametrize("family", ["shrink", "reparam"])
    def test_build_and_walks_bounded_in_the_frame_count(self, family):
        c = h.circle(1.0, self.N)
        twist = 2.0 * np.sin(2.0 * np.pi * np.arange(self.N) / self.N)

        def run(frames):
            if family == "shrink":
                return lambda: _both_lengths(h.shrink_path(c, 0.5, frames))
            return lambda: _both_lengths(h.reparam_path(c, twist, frames))

        few, many = _traced_peak(run(33)), _traced_peak(run(257))
        assert many - few <= 2e6

    def test_zigzag_bounded_beyond_its_base_columns(self):
        # the zigzag gathers from the table of the base's m frames, which the
        # base holds: its build and walks do not grow with m
        peak = {}
        for m in (9, 65):
            base = translation_path(n=self.N, frames=m)
            peak[m] = _traced_peak(lambda: _both_lengths(h.zigzag_path(base, 8)))
        assert peak[65] - peak[9] <= 2e6

    def test_zigzags_of_one_base_share_its_columns(self):
        # the workload's case: a second zigzag built while the first is
        # alive gathers from the first's table, not from a copy of 16 m n
        # bytes; once neither is alive, neither is the table
        tracemalloc.start()
        try:
            base = translation_path(n=self.N, frames=65)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            first = h.zigzag_path(base, 8)
            _both_lengths(first)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            second = h.zigzag_path(base, 4)
            _both_lengths(second)
            assert tracemalloc.get_traced_memory()[1] - before <= 2e6
            del first, second
            gc.collect()
            # less than one column of n doubles is left beyond the base
            assert tracemalloc.get_traced_memory()[0] - held < 8 * self.N
        finally:
            tracemalloc.stop()


class TestPathJson:
    # paths are written, not read: each frame is in the curve's JSON form,
    # which read_curve reads back bit for bit
    def test_round_trip(self, tmp_path):
        p = translation_path(n=16, frames=3)
        d = h.path_to_json(p)
        assert d["mode"] == p.mode
        assert len(d["frames"]) == len(p.frames)
        for k, (frame, curve) in enumerate(zip(d["frames"], p.frames)):
            path = tmp_path / f"frame{k}.json"
            path.write_text(json.dumps(frame))
            assert np.array_equal(h.read_curve(path).vertices, curve.vertices)

    def test_mode_preserved(self):
        p = h.as_mode(translation_path(n=16, frames=3), "quotient")
        assert h.path_to_json(p)["mode"] == "quotient"
