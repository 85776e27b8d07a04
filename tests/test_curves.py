"""Geometry layer: polygon validation, arclength data, frames, field norms."""
import copy
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

import h1flow as h
import h1flow.curves
from conftest import AT_RANGE, BELOW_RANGE, RANGE_REFUSAL, unit_tangent
from h1flow.curves import _diff, _dot, _next, _norm, _prev
from h1flow.errors import DegenerateCurve


def unit_square4():
    return h.PolyCurve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def _primitive_inputs():
    """1-D and (n, 2) arrays, n = 3 among them, with entries whose squares
    overflow, infinities of both signs and NaN of both signs."""
    rng = np.random.default_rng(7)
    special = np.array([1e155, -1e155, np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0])
    mixed = rng.standard_normal((40, 2))
    mixed.flat[rng.choice(80, size=16, replace=False)] = np.resize(special, 16)
    return {
        "pair": np.array([3.0, 4.0]),
        "pair-special": np.array([1e155, -np.nan]),
        "line3": rng.standard_normal(3),
        "line-special": special,
        "n3": rng.standard_normal((3, 2)),
        "n3-special": special[:6].reshape(3, 2),
        "n64": rng.standard_normal((64, 2)),
        "mixed": mixed,
        "all-pairs": np.array([[a, b] for a in special for b in special]),
    }


class TestPrimitives:
    """The private length, shift, difference and dot-product helpers give the
    bits of the NumPy calls they replace."""

    @pytest.mark.parametrize("name", [k for k, v in _primitive_inputs().items()
                                      if v.shape[-1] == 2])
    def test_norm_is_linalg_norm(self, name):
        v = _primitive_inputs()[name]
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _norm(v), np.linalg.norm(v, axis=-1)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("name", list(_primitive_inputs()))
    def test_shifts_are_roll(self, name):
        a = _primitive_inputs()[name]
        for got, want in ((_next(a), np.roll(a, -1, axis=0)), (_prev(a), np.roll(a, 1, axis=0))):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(_primitive_inputs()))
    def test_diff_is_roll_difference(self, name):
        a = _primitive_inputs()[name]
        with np.errstate(invalid="ignore"):
            got, want = _diff(a), np.roll(a, -1, axis=0) - a
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", [k for k, v in _primitive_inputs().items()
                                      if v.ndim == 2])
    def test_dot_is_einsum(self, name):
        """_dot(v, v) has the bits of the einsum. For other fields w the two
        agree as values, NaN with NaN: einsum adds the products to a +0.0,
        so the bytes differ in the sign of a zero (-0.0 + -0.0 against
        +0.0 + -0.0 + -0.0) or of a NaN."""
        v = _primitive_inputs()[name]
        rng = np.random.default_rng(11)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _dot(v, v), np.einsum("ij,ij->i", v, v)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            for w in (rng.standard_normal(v.shape), -v):
                got, want = _dot(v, w), np.einsum("ij,ij->i", v, w)
                assert np.array_equal(got, want, equal_nan=True)


class TestPolyCurve:
    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            h.PolyCurve(np.zeros((2, 2)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            h.PolyCurve(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            h.PolyCurve(np.zeros(6))

    def test_rejects_non_finite(self):
        v = np.zeros((4, 2))
        v[2, 1] = np.nan
        with pytest.raises(ValueError):
            h.PolyCurve(v)
        v[2, 1] = np.inf
        with pytest.raises(ValueError):
            h.PolyCurve(v)

    def test_vertices_are_frozen(self):
        c = unit_square4()
        with pytest.raises(ValueError):
            c.vertices[0, 0] = 5.0

    def test_input_array_not_aliased(self):
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        c = h.PolyCurve(v)
        v[0, 0] = 99.0
        assert c.vertices[0, 0] == 0.0

    def test_vertex_count(self):
        assert unit_square4().n == 4


class TestArcData:
    def test_unit_square_walk(self):
        ad = h.arc_data(unit_square4())
        assert np.allclose(ad.s, [0.0, 1.0, 2.0, 3.0])
        assert np.allclose(ad.ds, 1.0)
        assert ad.length == pytest.approx(4.0)

    def test_ds_sums_to_length(self):
        c = h.star(1.0, 0.3, 5, 128)
        ad = h.arc_data(c)
        assert ad.ds.sum() == pytest.approx(ad.length, rel=1e-14)
        assert ad.s[0] == 0.0
        assert np.all(np.diff(ad.s) > 0)

    def test_s_on_first_use(self):
        ad = h.arc_data(h.star(1.0, 0.3, 5, 128))
        el = ad.edge_lengths
        s = ad.s
        assert s.tobytes() == np.concatenate(([0.0], np.cumsum(el[:-1]))).tobytes()
        assert ad.s is s

    def test_vertex_list_measured_as_a_curve(self):
        ad = h.arc_data([[0, 0], [1, 0], [0, 1]])
        assert ad.n == 3
        assert ad.vertices.dtype == float and not ad.vertices.flags.writeable
        assert ad.length == h.total_length(h.PolyCurve([[0, 0], [1, 0], [0, 1]]))

    def test_writable_array_copied(self):
        # a later write to the caller's array moves no measured vertex
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ad = h.arc_data(X)
        X[2] = [0.0, 5.0]
        assert ad.vertices[2].tolist() == [0.0, 1.0]
        assert ad.length == h.total_length(ad)

    def test_curve_measured_in_place(self):
        c = h.star(1.0, 0.3, 5, 16)
        assert h.arc_data(c).vertices is c.vertices

    def test_read_only_view_copied(self):
        # read-only is no promise: the base can still move under a view
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        view = X.view()
        view.flags.writeable = False
        ad = h.arc_data(view)
        X[2] = [0.0, 5.0]
        assert not np.shares_memory(ad.vertices, X)
        assert ad.vertices[2].tolist() == [0.0, 1.0]
        assert ad.length == h.total_length(ad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_read_only_non_finite_array_rejected(self, bad):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, bad]])
        X.flags.writeable = False
        with pytest.raises(ValueError, match="^vertices must be finite$"):
            h.arc_data(X)

    def test_read_only_two_vertex_array_rejected(self):
        X = np.broadcast_to([[0.0, 0.0], [1.0, 0.0]], (2, 2))
        with pytest.raises(ValueError, match="^a closed curve needs at least 3 vertices$"):
            h.arc_data(X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_array_rejected(self, bad):
        with pytest.raises(ValueError, match="^vertices must be finite$"):
            h.arc_data(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, bad]]))

    def test_zero_edge_rejected(self):
        c = h.PolyCurve(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DegenerateCurve):
            h.arc_data(c)

    @pytest.mark.parametrize("measure", [
        h.arc_data,
        lambda c: h.record(c, 0.0),
        h.chord_arc_min,
        h.embeddedness_condition,
        h.flow_velocity,
        lambda c: h.h1ds_inner(c, c.vertices, c.vertices),
        h.kernel_matrix,
        lambda c: h.convolve_kernel(c, c.vertices),
    ], ids=["arc_data", "record", "chord_arc_min", "embeddedness_condition", "flow_velocity",
            "h1ds_inner", "kernel_matrix", "convolve_kernel"])
    @pytest.mark.parametrize("make", [lambda: h.circle(1e155, 16),
                                      lambda: h.PolyCurve(1e300 * h.star(1.0, 0.3, 5, 64).vertices)],
                             ids=["circle-1e155", "star-1e300"])
    def test_overflowing_length_refused_by_name(self, make, measure):
        # finite vertices whose squared edges overflow lie outside the
        # coordinate range: every function that measures the curve refuses
        # it at arc_data's gate, by the range's name, before any edge is
        # formed, so with no RuntimeWarning from the squares
        c = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                measure(c)

    @pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_round_trip_keeps_vertices_read_only(self, clone):
        c = h.star(1.0, 0.3, 5, 16)
        ad = h.arc_data(c)
        ad.s  # cached, and carried by the copy
        for original in (c, ad):
            other = clone(original)
            assert type(other) is type(original)
            assert other.vertices.tobytes() == original.vertices.tobytes()
            assert not np.shares_memory(other.vertices, original.vertices)
            assert not other.vertices.flags.writeable
            with pytest.raises(ValueError):
                other.vertices[0, 0] = 5.0
        other = clone(ad)
        for name in ("ds", "edges", "edge_lengths", "s"):
            assert getattr(other, name).tobytes() == getattr(ad, name).tobytes()
        assert other.length == ad.length and h.arc_data(other) is other

    def test_total_length_circle(self):
        n = 256
        # inscribed regular polygon perimeter
        assert h.total_length(h.circle(1.0, n)) == pytest.approx(
            2 * n * math.sin(math.pi / n), rel=1e-13
        )

    def test_total_length_past_the_double_range(self):
        # total_length passes no gate: inf, with no RuntimeWarning, where
        # the squared edges overflow, and finite on a curve that arc_data
        # refuses for its range; inside the range, arc_data's length
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert h.total_length(h.circle(1e155, 16)) == math.inf
            c = h.circle(1e154, 16)
            assert h.total_length(c) == 6.242890304516106e+154
            for past in (h.circle(1e155, 16), c):
                with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                    h.arc_data(past)
            c = h.circle(2.0 ** 299, 16)
            unit = h.total_length(h.circle(1.0, 16))
            assert h.total_length(c) == h.arc_data(c).length == 2.0 ** 299 * unit


class TestCoordinateRange:
    # arc_data accepts a curve with max |X| below 2^300 and refuses one from
    # there on, by the range's name, before any edge is formed; no
    # RuntimeWarning escapes on either side of the bound
    @pytest.mark.parametrize("n", [16, 512], ids=["row-scan", "pruned"])
    @pytest.mark.parametrize("measure", [
        h.arc_data, lambda c: h.record(c, 0.0), h.chord_arc_min, h.flow_velocity,
    ], ids=["arc_data", "record", "chord_arc_min", "flow_velocity"])
    def test_accepted_below_refused_at_the_bound(self, measure, n):
        below, at = h.circle(BELOW_RANGE, n), h.circle(AT_RANGE, n)
        assert np.abs(below.vertices).max() < AT_RANGE == np.abs(at.vertices).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            measure(below)
            with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                measure(at)

    def test_refused_before_any_edge(self, monkeypatch):
        calls = []
        monkeypatch.setattr(h1flow.curves, "_diff", lambda a: calls.append(a) or _diff(a))
        h.arc_data(h.circle(BELOW_RANGE, 16))
        assert len(calls) == 1
        with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
            h.arc_data(h.circle(-AT_RANGE, 16))
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("rescale", [False, True], ids=["raw", "profile"])
    def test_run_flow_at_the_bound(self, method, rescale):
        # the initial curve, or its profile at t0, X - X_0, whose largest
        # coordinate is the diameter 2 r: refused at the bound by the range's
        # name, the profile's refusal naming it and t0; accepted below it,
        # where the first step leaves the range and ends the run
        cfg = h.FlowConfig(dt=0.1, t1=1.0, method=method, rescale_profile=rescale)
        r = 0.5 if rescale else 1.0
        cause = f"^rescaled profile at t=0.0: {RANGE_REFUSAL}" if rescale else f"^{RANGE_REFUSAL}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match=cause):
                h.run_flow(h.circle(r * AT_RANGE, 64), cfg)
            traj = h.run_flow(h.circle(r * BELOW_RANGE, 64), cfg)
        assert traj.termination is h.Termination.NUMERICAL_FAILURE
        assert traj.times == (0.0,)
        assert np.abs(traj.states[0].vertices).max() == BELOW_RANGE

    @pytest.mark.parametrize("mode", ["full", "quotient"])
    @pytest.mark.parametrize("generated", [False, True], ids=["explicit", "generated"])
    def test_path_frames_at_the_bound(self, generated, mode):
        # an explicit frame is refused when the path is built, a generated
        # one when it is formed; below the bound the walk's sums stay finite
        def length(r):
            c = h.circle(r, 16)
            p = (h.shrink_path(c, 0.5, 3) if generated
                 else h.CurvePath(frames=(c, h.circle(0.5 * r, 16))))
            return h.path_length_l2ds(h.as_mode(p, mode))

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert 0.0 < length(BELOW_RANGE) < math.inf
            with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                length(AT_RANGE)


class TestArea:
    def test_square_ccw(self):
        assert h.signed_area(unit_square4()) == pytest.approx(1.0)

    def test_orientation_flip(self):
        c = unit_square4()
        rev = h.PolyCurve(c.vertices[::-1])
        assert h.signed_area(rev) == pytest.approx(-1.0)

    def test_circle_polygon_area(self):
        n = 256
        exact = 0.5 * n * math.sin(2 * math.pi / n)
        assert h.signed_area(h.circle(1.0, n)) == pytest.approx(exact, rel=1e-13)

    def test_translation_invariant(self):
        c = h.star(1.0, 0.3, 5, 64)
        moved = h.PolyCurve(c.vertices + np.array([7.0, -3.0]))
        assert h.signed_area(moved) == pytest.approx(h.signed_area(c), rel=1e-12)


def curvature(c):
    return h1flow.curves.frame_data(c)


class TestFrames:
    def test_circle_tangent_normal_curvature(self):
        n, r = 256, 2.0
        c = h.circle(r, n)
        tx, ty = unit_tangent(c)
        k = curvature(c)
        tangent = np.stack([tx, ty], axis=1)
        # tangents are unit and orthogonal to the radius
        norms_t = np.linalg.norm(tangent, axis=1)
        assert np.allclose(norms_t, 1.0, atol=1e-14)
        radial = c.vertices / r
        assert np.abs(np.einsum("ij,ij->i", tangent, radial)).max() < 1e-13
        # the normal, the quarter turn (-T_y, T_x), points inward on a
        # counterclockwise circle
        assert np.allclose(np.stack([-ty, tx], axis=1), -radial, atol=1e-13)
        # constant curvature: turning angle 2 pi / n over ds = L / n
        k_exact = math.pi / (n * r * math.sin(math.pi / n))
        assert np.allclose(k, k_exact, rtol=1e-12)

    def test_orientation_sign(self):
        c = h.circle(1.0, 64)
        assert curvature(c).min() > 0
        rev = h.PolyCurve(c.vertices[::-1])
        assert curvature(rev).max() < 0

    def test_cusp_rejected(self):
        # the end vertices turn back along their incoming edges: the unit
        # tangent, which only a quotient path's normals need, refuses them,
        # while the curvature is the turning angle pi over ds = 1.5 there
        c = h.PolyCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(DegenerateCurve, match="cusp vertex"):
            unit_tangent(c)
        assert np.abs(curvature(c)).tolist() == [math.pi / 1.5, 0.0, math.pi / 1.5]

    def test_turning_angles_sum_to_winding(self):
        # the turning angle at vertex i is k_i ds_i
        def turning(c):
            return curvature(c) * h.arc_data(c).ds
        for c in (unit_square4(), h.circle(1.0, 100), h.star(1.0, 0.3, 5, 80)):
            assert turning(c).sum() == pytest.approx(2 * math.pi, abs=1e-10)
        assert np.allclose(turning(unit_square4()), math.pi / 2)


class TestNorms:
    # the field norms are the inner products of gradient with the field itself
    def test_constant_field(self):
        c = h.circle(1.0, 128)
        L = h.total_length(c)
        f = np.tile([3.0, 4.0], (128, 1))
        assert math.sqrt(h.l2ds_inner(c, f, f)) == pytest.approx(5.0 * math.sqrt(L), rel=1e-13)
        # the derivative part vanishes
        assert h.h1ds_inner(c, f, f) == h.l2ds_inner(c, f, f)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        c = h.star(1.0, 0.3, 5, 64)
        f = rng.standard_normal((64, 2))
        for inner in (h.l2ds_inner, h.h1ds_inner):
            norm = math.sqrt(inner(c, f, f))
            assert math.sqrt(inner(c, 2.5 * f, 2.5 * f)) == pytest.approx(2.5 * norm, rel=1e-12)

    def test_field_shape_checked(self):
        c = h.circle(1.0, 32)
        good, bad = np.zeros((32, 2)), np.zeros((31, 2))
        for inner in (h.l2ds_inner, h.h1ds_inner):
            for v, w in ((bad, good), (good, bad), (bad.T, good), (good, good[:, :1])):
                with pytest.raises(ValueError, match=r"field must have shape \(32, 2\)"):
                    inner(c, v, w)

    def test_sup_norm(self):
        c = h.PolyCurve(h.circle(1.0, 64).vertices + np.array([10.0, 0.0]))
        assert h.sup_norm(c) == pytest.approx(11.0, rel=1e-12)


def dense_chord_arc(curve):
    """The n x n form of chord_arc_min: the reference its row blocks must
    reproduce bit for bit, ties included. A pair whose shorter arc is not
    positive is skipped, as _chord_ratios skips it, the diagonal among them;
    a NaN arc is kept."""
    ad = h.arc_data(curve)
    v = curve.vertices
    diff = v[:, None, :] - v[None, :, :]
    chord = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    gap = np.abs(ad.s[:, None] - ad.s[None, :])
    arc = np.minimum(gap, ad.length - gap)
    np.fill_diagonal(arc, 0.0)
    ratio = np.divide(chord, arc, out=np.full_like(arc, np.inf), where=~(arc <= 0.0))
    i, j = divmod(int(np.argmin(ratio)), curve.n)
    return float(ratio[i, j]), i, j


def random_polygon(n, seed):
    """Star-shaped polygon with sorted random angles and radii in [1, 1.3]."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    r = 1.0 + 0.3 * rng.uniform(size=n)
    return h.PolyCurve(np.stack([r * np.cos(t), r * np.sin(t)], axis=1))


def radial_polygon(kind, n, seed):
    """A seeded polygon r(t) (cos t, sin t) at n equally spaced angles:
    smooth, five low modes; jagged, radial noise at every vertex; lobed, a
    deep cosine of 3 to 11 lobes."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    if kind == "smooth":
        r = 1.0 + sum(rng.normal(0.0, 0.1 / k) * np.cos(k * t + rng.uniform(0.0, 6.0))
                      for k in range(1, 6))
    elif kind == "jagged":
        r = 1.0 + 0.05 * rng.standard_normal(n)
    else:
        r = 1.0 + rng.uniform(0.5, 0.9) * np.cos(int(rng.integers(3, 12)) * t)
    return h.PolyCurve(np.stack([r * np.cos(t), r * np.sin(t)], axis=1))


def as_tuple(res):
    return res.value, res.i, res.j


def both_paths(monkeypatch, curve):
    """chord_arc_min of the curve by the row scan and by the pruned path, as
    tuples: each path is pinned by moving _CHORD_PRUNE past n or onto it."""
    out = []
    for threshold in (curve.n + 1, curve.n):
        monkeypatch.setattr(h.curves, "_CHORD_PRUNE", threshold)
        out.append(as_tuple(h.chord_arc_min(curve)))
    monkeypatch.undo()
    return out


# two triangles that share the vertex (0, 0), visited twice
SELF_CONTACT = h.PolyCurve([[0, 0], [1, 0], [1, 1], [0, 0], [-1, 0], [-1, -1]])


class TestChordArc:
    def test_circle_minimum_at_antipodes(self):
        n = 512
        res = h.chord_arc_min(h.circle(1.0, n))
        assert res.value == pytest.approx(2.0 / (n * math.sin(math.pi / n)), rel=1e-9)
        assert abs(res.i - res.j) == n // 2

    def test_square_diagonal(self):
        res = h.chord_arc_min(unit_square4())
        assert res.value == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)
        assert (res.i, res.j) == (0, 2)

    def test_value_in_unit_interval(self):
        for c in (h.circle(1.0, 64), h.star(1.0, 0.3, 5, 64), h.barbell(1.0, 0.25, 200)):
            v = h.chord_arc_min(c).value
            assert 0.0 < v <= 1.0

    def test_self_contact_is_zero(self):
        assert as_tuple(h.chord_arc_min(SELF_CONTACT)) == (0.0, 0, 3)
        rec = h.record(SELF_CONTACT, 0.0)
        assert rec.chord_arc_min == 0.0 and not rec.embeddedness_ok

    def test_near_contact_detected(self):
        # thin neck: chord 2h across a long detour
        b = h.barbell(1.0, 0.05, 400)
        ca = h.chord_arc_min(b)
        crossing = 2 * 0.1 / h.total_length(b)
        assert ca.value < 0.02
        assert ca.value == pytest.approx(crossing, rel=0.35)


class TestChordArcBlocks:
    """The row-block evaluation returns the dense (value, i, j) exactly."""

    @pytest.mark.parametrize("n", [3, 4, 5, 64, 255, 256, 257])
    def test_regular_polygon_ties(self, n):
        # a regular n-gon ties its antipodal pairs up to rounding, so the
        # last bits and the tie-break decide (i, j)
        c = h.circle(1.0, n)
        assert as_tuple(h.chord_arc_min(c)) == dense_chord_arc(c)

    @pytest.mark.parametrize("curve", [unit_square4(), h.square(1.0, 8),
                                       h.star(1.0, 0.3, 5, 300),
                                       h.barbell(1.0, 0.05, 400), SELF_CONTACT],
                             ids=["square4", "square8", "star", "barbell", "self_contact"])
    def test_shapes(self, monkeypatch, curve):
        want = dense_chord_arc(curve)
        assert both_paths(monkeypatch, curve) == [want, want]

    # n = 16384 // k - 1, 16384 // k, 16384 // k + 1: the row scan's block
    # edges just before, at and after a row; each n runs both paths
    @pytest.mark.parametrize("n", [n for k in (16, 37, 64, 100)
                                   for n in (16384 // k - 1, 16384 // k, 16384 // k + 1)])
    def test_random_polygons_at_block_edges(self, monkeypatch, n):
        c = random_polygon(n, seed=n)
        want = dense_chord_arc(c)
        assert both_paths(monkeypatch, c) == [want, want]

    @pytest.mark.parametrize("n", [700, 999, 1000])
    def test_minimum_in_the_last_shorter_block(self, n):
        # a thin spike at vertex n - 2 puts the minimum at (n - 3, n - 1),
        # in a last block of fewer rows and columns than the one before it,
        # so a value left in the work arrays by that block would show
        v = h.circle(1.0, n).vertices.copy()
        v[-2] *= 3.0
        c = h.PolyCurve(v)
        rows = 16384 // n
        last = (n - 2) // rows * rows
        assert n - 1 - last < rows
        res = h.chord_arc_min(c)
        assert res.i >= last
        assert as_tuple(res) == dense_chord_arc(c)

    def test_exact_tie_across_blocks_keeps_the_first_pair(self):
        # lattice square of side m through unit steps: s and L are exact
        # integers, and exactly the two mid-side pairs reach chord / arc =
        # m / 2m = 1/2, one in each of two different row blocks of the row
        # scan
        m = 64
        side = np.arange(m, dtype=float)
        v = np.concatenate([
            np.stack([side, np.zeros(m)], axis=1),
            np.stack([np.full(m, m), side], axis=1),
            np.stack([m - side, np.full(m, m)], axis=1),
            np.stack([np.zeros(m), m - side], axis=1),
        ])
        c = h.PolyCurve(v)
        rows = 16384 // c.n
        assert c.n < h.curves._CHORD_PRUNE and (m // 2) // rows != (m + m // 2) // rows
        res = h.chord_arc_min(c)
        assert as_tuple(res) == dense_chord_arc(c) == (0.5, m // 2, 2 * m + m // 2)

    def test_edge_below_the_arclength_ulp(self):
        # s_1 = s_2 = 1, so the pair (1, 2) has no representable gap and is
        # skipped, by the dense reference too
        c = h.PolyCurve([[0, 0], [1, 0], [1, 1e-17], [1, 1], [0, 1]])
        assert as_tuple(h.chord_arc_min(c)) == dense_chord_arc(c) == (math.sqrt(2.0) / 2.0, 0, 3)
        assert h.record(c, 0.0).chord_arc_min == math.sqrt(2.0) / 2.0

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_overflowing_coordinates(self, scale):
        # chords whose squares overflow, at 1e155, and a length that
        # overflows, at 1e300: both lie outside the coordinate range, and
        # arc_data refuses the curve by the range's name, with no warning;
        # the copy scaled by a power of two into the range keeps the
        # minimum of the copy scaled down to unit size
        c = h.PolyCurve(scale * h.star(1.0, 0.3, 5, 300).vertices)
        with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
            h.chord_arc_min(c)
        e = math.frexp(scale)[1]
        inside = h.PolyCurve(np.ldexp(c.vertices, 299 - e))
        assert np.abs(inside.vertices).max() < AT_RANGE
        assert repr(as_tuple(h.chord_arc_min(inside))) == repr(
            dense_chord_arc(h.PolyCurve(np.ldexp(c.vertices, -e))))

    def test_memory_stays_o_n(self):
        # the dense form allocates ~800 MB at n = 4096 and ~3 GB at n = 8192
        for c in (h.circle(1.0, 4096), h.star(1.0, 0.3, 5, 8192)):
            tracemalloc.start()
            try:
                h.chord_arc_min(c)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8e6

    # from here on the curves are large enough for the pruned path; its
    # fine and coarse blocks hold _CHORD_FINE and _CHORD_COARSE vertices

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_threshold_edges(self, shift):
        # the row scan just below the threshold, the pruned path at and just
        # above it, where a last fine block is a single vertex
        n = h.curves._CHORD_PRUNE + shift
        for c in (random_polygon(n, seed=n), h.circle(1.0, n), h.ellipse(1.0, 0.5, n)):
            assert as_tuple(h.chord_arc_min(c)) == dense_chord_arc(c)

    @pytest.mark.parametrize("lobes", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("amplitude", [0.2, 0.35])
    def test_pruned_stars(self, amplitude, lobes):
        # the range of the star-record benchmark workload
        c = h.star(1.0, amplitude, lobes, 2048)
        assert c.n >= h.curves._CHORD_PRUNE
        assert as_tuple(h.chord_arc_min(c)) == dense_chord_arc(c)

    def test_pruned_random_polygon_with_a_short_last_block(self):
        n = 2045
        assert n >= h.curves._CHORD_PRUNE
        assert n % h.curves._CHORD_FINE != 0 and n % h.curves._CHORD_COARSE != 0
        c = random_polygon(n, seed=n)
        assert as_tuple(h.chord_arc_min(c)) == dense_chord_arc(c)

    def test_pruned_minimum_in_the_last_shorter_block(self):
        # the spike of test_minimum_in_the_last_shorter_block, at vertex
        # n - 2, with the minimum (n - 3, n - 1) in a last fine block of 5
        # vertices, itself in a last coarse block of 61
        n = 2045
        fine, coarse = h.curves._CHORD_FINE, h.curves._CHORD_COARSE
        v = h.circle(1.0, n).vertices.copy()
        v[-2] *= 3.0
        c = h.PolyCurve(v)
        last = (n - 1) // fine * fine
        assert n >= h.curves._CHORD_PRUNE and n - last < fine and n % coarse != 0
        res = h.chord_arc_min(c)
        assert res.i >= last
        assert as_tuple(res) == dense_chord_arc(c)

    def test_pruned_exact_tie_across_block_pairs(self):
        # the lattice square of test_exact_tie_across_blocks_keeps_the_first_pair
        # at m = 600: its two exact 1/2 pairs lie in different fine and
        # coarse block pairs
        m = 600
        side = np.arange(m, dtype=float)
        v = np.concatenate([
            np.stack([side, np.zeros(m)], axis=1),
            np.stack([np.full(m, m), side], axis=1),
            np.stack([m - side, np.full(m, m)], axis=1),
            np.stack([np.zeros(m), m - side], axis=1),
        ])
        c = h.PolyCurve(v)
        fine, coarse = h.curves._CHORD_FINE, h.curves._CHORD_COARSE
        first, second = (m // 2, 2 * m + m // 2), (m + m // 2, 3 * m + m // 2)
        assert c.n >= h.curves._CHORD_PRUNE
        for size in (fine, coarse):
            assert [k // size for k in first] != [k // size for k in second]
        res = h.chord_arc_min(c)
        assert as_tuple(res) == dense_chord_arc(c) == (0.5, *first)
        # a dumbbell of unit steps, symmetric in both axes, with its neck
        # walls y = -1, 1 at half-integer x: the chords at x = 1/2 and
        # x = -1/2 tie exactly. They nest, (t, b + 1) around (t + 1, b), t
        # and t + 1 in one fine block, and b + 1 opens the next fine and
        # coarse block, so the first pair lies in the later block pair
        corners = [(-10.5, -1), (10.5, -1), (10.5, -60), (130.5, -60), (130.5, 60),
                   (10.5, 60), (10.5, 1), (-10.5, 1), (-10.5, 60), (-130.5, 60),
                   (-130.5, -60), (-10.5, -60)]
        v = np.concatenate([
            p + np.sign(np.subtract(q, p)) * np.arange(np.abs(np.subtract(q, p)).sum())[:, None]
            for p, q in zip(corners, corners[1:] + corners[:1])])
        b = (len(v) // 2 // coarse + 1) * coarse - 1
        t = b - len(v) // 2
        c = h.PolyCurve(np.roll(v, b - np.flatnonzero((v[:, 0] == -0.5) & (v[:, 1] == -1))[0],
                                axis=0))
        assert c.n >= h.curves._CHORD_PRUNE and t >= 0 and t // fine == (t + 1) // fine
        assert tuple(c.vertices[t]) == (0.5, 1) and tuple(c.vertices[b + 1]) == (0.5, -1)
        assert as_tuple(h.chord_arc_min(c)) == dense_chord_arc(c) == (2 / (c.n / 2 - 1), t, b + 1)

    def test_tied_minima_resolve_by_key(self, monkeypatch):
        # the pruned path's chunks come in no (i, j) order: an exact tie
        # goes to the lowest (i, j) whichever chunk gives it first
        def chunks(*args):
            yield from ((0.75, 5, 9), (0.5, 3, 9), (0.5, 2, 11), (0.5, 2, 12), (0.5, 3, 4))

        monkeypatch.setattr(h.curves, "_pruned_blocks", chunks)
        assert as_tuple(h.chord_arc_min(h.circle(1.0, h.curves._CHORD_PRUNE))) == (0.5, 2, 11)

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_pruned_overflowing_coordinates(self, scale):
        # the cases of test_overflowing_coordinates at n = 2048
        c = h.PolyCurve(scale * h.star(1.0, 0.3, 5, 2048).vertices)
        with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
            h.chord_arc_min(c)
        e = math.frexp(scale)[1]
        inside = h.PolyCurve(np.ldexp(c.vertices, 299 - e))
        assert np.abs(inside.vertices).max() < AT_RANGE
        assert repr(as_tuple(h.chord_arc_min(inside))) == repr(
            dense_chord_arc(h.PolyCurve(np.ldexp(c.vertices, -e))))

    @pytest.mark.parametrize("prune", [True, False])
    def test_arc_beyond_the_length_skipped(self, monkeypatch, prune):
        # a last edge of 1e-15, below the rounding gap between the two sums
        # of arc_data, puts s[-1] past L: the pair (0, n - 1) has the shorter
        # arc L - s[-1] < 0, and a negative ratio if it is not skipped
        v = random_polygon(1000, seed=3).vertices.copy()
        v[-1] = v[0] + [1e-15, 0.0]
        c = h.PolyCurve(v)
        ad = h.arc_data(c)
        assert ad.s[-1] > ad.length
        if not prune:
            monkeypatch.setattr(h.curves, "_CHORD_PRUNE", c.n + 1)
        res = h.chord_arc_min(c)
        assert 0.0 < res.value <= 1.0
        assert h.record(c, 0.0).chord_arc_min == res.value
        monkeypatch.undo()
        assert as_tuple(res) == as_tuple(h.chord_arc_min(c)) == dense_chord_arc(c)

    @staticmethod
    def evaluated(monkeypatch, curve):
        """The pairs that chord_arc_min hands to the ratio helper."""
        exact = h.curves._chord_ratios
        counted = []

        def counting(*args):
            ratios = exact(*args)
            counted.append(ratios.size)
            return ratios

        monkeypatch.setattr(h.curves, "_chord_ratios", counting)
        h.chord_arc_min(curve)
        monkeypatch.undo()
        return sum(counted)

    def test_pruning_skips_most_pairs(self, monkeypatch):
        # pairs handed to the ratio helper: at most 5 % of them on a star
        # above the threshold (about 1 %), every one below it
        above = h.star(1.0, 0.3, 5, 2048)
        below = h.star(1.0, 0.3, 5, h.curves._CHORD_PRUNE - 1)
        assert self.evaluated(monkeypatch, above) <= 0.05 * above.n * (above.n - 1) / 2
        assert self.evaluated(monkeypatch, below) >= below.n * (below.n - 1) / 2

    @pytest.mark.parametrize("curve, per_vertex", [
        (h.star(1.0, 0.3, 5, 2048), 12), (h.circle(1.0, 2048), 25), (h.ellipse(1.0, 0.5, 2048), 8),
    ], ids=["star", "circle", "ellipse"])
    def test_straight_band_pruned(self, monkeypatch, curve, per_vertex):
        # block pairs on and next to the diagonal touch, so only the
        # straightness bound skips them: without it 25.8n, 52.1n and 29.1n
        # pairs are evaluated, with it 9.8n, 20.2n and 5.2n, about 5n of
        # them the seed's
        assert self.evaluated(monkeypatch, curve) <= per_vertex * curve.n

    @pytest.mark.parametrize("kind, n, seed", [
        ("smooth", 288, 1), ("smooth", 2048, 2), ("jagged", 640, 3), ("jagged", 3001, 4),
        ("lobed", 1000, 5), ("lobed", 4096, 6), ("angles", 1500, 7), ("angles", 4000, 8),
    ])
    def test_straightness_bound_keeps_the_row_scan_answer(self, monkeypatch, kind, n, seed):
        c = random_polygon(n, seed) if kind == "angles" else radial_polygon(kind, n, seed)
        row, pruned = both_paths(monkeypatch, c)
        assert pruned == row

    @pytest.mark.parametrize("alpha, shift", [(1.0, 333), (0.5, 517)])
    def test_straightness_bound_attained_at_a_corner(self, monkeypatch, alpha, shift):
        # a circular sector of angle alpha with its apex inside the index
        # range: the pairs straddling the apex on its straight sides reach
        # chord / arc = sin(alpha / 2) = cos(theta / 2), theta = pi - alpha
        # the turning there, so the bound is sharp on their block pairs
        d = np.linspace(0.0, 1.0, 400, endpoint=False)[:, None]
        t = np.linspace(-alpha / 2, alpha / 2, 300, endpoint=False)
        c = h.PolyCurve(np.roll(np.concatenate([
            d * [math.cos(alpha / 2), -math.sin(alpha / 2)],
            np.stack([np.cos(t), np.sin(t)], axis=1),
            (1.0 - d) * [math.cos(alpha / 2), math.sin(alpha / 2)]]), shift, axis=0))
        row, pruned = both_paths(monkeypatch, c)
        assert pruned == row
        assert row[0] == pytest.approx(math.sin(alpha / 2), rel=1e-12)

    def test_uneven_edges_turn_the_straightness_bound_off(self, monkeypatch):
        # an edge of 1e-15 on a circle of length 2 pi: L / e_min > 2^48, so
        # the rounding of a gap may exceed mu >= 1/2 of it, and the bound
        # prunes nothing. A turning of zero at every vertex, which would
        # otherwise skip every block pair, changes no pair evaluated
        v = h.circle(1.0, 1023).vertices
        u = (v[101] - v[100]) / np.linalg.norm(v[101] - v[100])
        c = h.PolyCurve(np.insert(v, 101, v[100] + 1e-15 * u, axis=0))
        ad = h.arc_data(c)
        assert ad.length / ad.edge_lengths.min() > 2.0 ** 48
        count = self.evaluated(monkeypatch, c)
        monkeypatch.setattr(h.curves, "_turning", lambda ux, uy, px, py: np.zeros_like(ux))
        assert self.evaluated(monkeypatch, c) == count
        monkeypatch.setattr(h.curves, "_turning", lambda ux, uy, px, py: np.zeros_like(ux))
        row, pruned = both_paths(monkeypatch, c)
        assert pruned == row


class TestChordArcInvariance:
    """The monitor is a property of the curve as a set with its arclength:
    rigid motions, cyclic re-indexing and reversal leave its value alone."""

    CURVES = {
        "star": h.star(1.0, 0.3, 5, 200),
        "perturbed circle": h.PolyCurve(
            h.circle(1.0, 211).vertices
            * (1.0 + 0.05 * np.random.default_rng(7).standard_normal(211))[:, None]),
    }

    @pytest.fixture(params=sorted(CURVES))
    def curve(self, request):
        return self.CURVES[request.param]

    def test_rotation_and_translation(self, curve):
        base = h.chord_arc_min(curve).value
        rng = np.random.default_rng(11)
        for _ in range(3):
            a = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
            moved = h.PolyCurve(curve.vertices @ rot.T + rng.uniform(-5.0, 5.0, 2))
            assert h.chord_arc_min(moved).value == pytest.approx(base, rel=1e-12)

    def test_reindex(self, curve):
        base = h.chord_arc_min(curve).value
        for k in (1, 17, curve.n - 1):
            shifted = h.PolyCurve(np.roll(curve.vertices, -k, axis=0))
            assert h.chord_arc_min(shifted).value == pytest.approx(base, rel=1e-12)

    def test_orientation_reversal(self, curve):
        base = h.chord_arc_min(curve).value
        flipped = h.PolyCurve(curve.vertices[::-1])
        assert h.chord_arc_min(flipped).value == pytest.approx(base, rel=1e-12)

    def test_unique_minimiser_follows_the_shift(self):
        c = self.CURVES["perturbed circle"]
        res = h.chord_arc_min(c)
        ad = h.arc_data(c)
        d = np.linalg.norm(c.vertices[:, None, :] - c.vertices[None, :, :], axis=2)
        gap = np.abs(ad.s[:, None] - ad.s[None, :])
        ratio = d / np.where(gap > 0, np.minimum(gap, ad.length - gap), 1.0)
        np.fill_diagonal(ratio, 2.0)
        # unique up to the (i, j) <-> (j, i) symmetry
        assert np.count_nonzero(ratio <= res.value * (1 + 1e-9)) == 2
        n = c.n
        for k in (1, 17, n - 1):
            moved = h.chord_arc_min(h.PolyCurve(np.roll(c.vertices, -k, axis=0)))
            assert (moved.i, moved.j) == tuple(sorted(((res.i - k) % n, (res.j - k) % n)))


class TestReindex:
    def test_geometry_invariant(self):
        # a cyclic relabelling, vertex i of r being vertex i + 29 of c
        c = h.star(1.0, 0.3, 5, 64)
        r = h.PolyCurve(np.roll(c.vertices, -29, axis=0))
        assert h.total_length(r) == pytest.approx(h.total_length(c), rel=1e-14)
        assert h.signed_area(r) == pytest.approx(h.signed_area(c), rel=1e-14)


class TestSerialization:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        c = h.star(1.234567890123456, 0.3, 5, 64)
        p = tmp_path / "curve.csv"
        h.write_curve(c, p)
        back = h.read_curve(p)
        assert np.array_equal(back.vertices, c.vertices)

    def test_csv_format(self, tmp_path):
        c = h.PolyCurve(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        p = tmp_path / "curve.csv"
        h.write_curve(c, p)
        raw = p.read_bytes()
        assert raw == b"1,2\n3,4\n5,6\n"

    def test_json_read(self, tmp_path):
        p = tmp_path / "curve.json"
        p.write_text('{"vertices": [[0, 0], [1, 0], [0, 1]]}')
        c = h.read_curve(p)
        assert c.n == 3
        assert c.vertices[1, 0] == 1.0

    def test_json_dict_round_trip(self):
        c = h.circle(1.0, 16)
        d = h.output.curve_to_json(c)
        back = h.PolyCurve(np.asarray(d["vertices"]))
        assert np.array_equal(back.vertices, c.vertices)
