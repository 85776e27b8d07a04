"""Per-state monitors, the embeddedness criterion, monotonicity verdicts."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

import h1flow as h
import h1flow.curves
import h1flow.paths
from conftest import AT_RANGE, RANGE_REFUSAL, SPIKE


class TestRecord:
    def test_circle_fields(self):
        n, r = 512, 1.0
        rec = h.record(h.circle(r, n), 0.0)
        L = 2 * n * r * math.sin(math.pi / n)
        assert rec.t == 0.0
        assert rec.length == pytest.approx(L, rel=1e-13)
        assert rec.area == pytest.approx(0.5 * n * math.sin(2 * math.pi / n), rel=1e-13)
        assert abs(rec.iso_ratio - 1.0) <= 1e-4
        assert 0.0 < rec.deficit <= 1e-3
        assert rec.linf == pytest.approx(r, rel=1e-12)
        assert rec.l2ds == pytest.approx(r * math.sqrt(L), rel=1e-12)
        # equal edges: |X_u|_L2 equals the perimeter exactly
        assert rec.xu_l2 == pytest.approx(L, rel=1e-12)
        assert rec.min_edge == pytest.approx(L / n, rel=1e-12)
        assert rec.chord_arc_min == pytest.approx(
            2.0 / (n * math.sin(math.pi / n)), rel=1e-9
        )
        assert rec.max_abs_k == pytest.approx(math.pi / (n * r * math.sin(math.pi / n)),
                                              rel=1e-9)
        assert rec.rescaled_max_k == rec.max_abs_k
        assert rec.grad_sq_h1ds > 0.0
        assert rec.embeddedness_ok is False  # scale 1 sits far above the threshold

    def test_rescaled_curvature_discounts_time(self):
        c = h.circle(1.0, 64)
        r0 = h.record(c, 0.0)
        r2 = h.record(c, 2.0)
        assert r2.rescaled_max_k == pytest.approx(math.exp(-2.0) * r2.max_abs_k,
                                                  rel=1e-13)
        assert r2.max_abs_k == r0.max_abs_k

    def test_deficit_is_orientation_blind(self):
        # the deficit, like the iso ratio, is formed from the enclosed area
        # |A|; only the signed area changes sign with the orientation. The
        # reversed shoelace sum adds in another order, and at n = 256 it
        # rounds as the circle's does
        c = h.circle(1.0, 256)
        ccw, cw = h.record(c, 0.0), h.record(h.PolyCurve(c.vertices[::-1]), 0.0)
        assert cw.area < 0.0 < ccw.area
        assert cw.area == -ccw.area
        assert 0.0 < cw.deficit == ccw.deficit <= 2e-3
        assert cw.iso_ratio == ccw.iso_ratio
        # at n = 128 the two sums differ in the last place, and so do the
        # deficits, by far less than the 4 pi |A| = 39.5 of a signed area
        c = h.circle(1.0, 128)
        ccw, cw = h.record(c, 0.0), h.record(h.PolyCurve(c.vertices[::-1]), 0.0)
        assert abs(cw.deficit - ccw.deficit) <= 1e-13

    def test_ellipse_curvature_extreme(self):
        # max |k| of the 2:1 ellipse is a / b^2 = 4
        rec = h.record(h.ellipse(1.0, 0.5, 512), 0.0)
        assert rec.max_abs_k == pytest.approx(4.0, rel=1e-3)


class TestEmbeddedness:
    def test_small_circle_passes(self):
        e = h.embeddedness_condition(h.circle(0.05, 128))
        assert e.ok is True
        assert e.lhs > e.rhs
        assert e.rhs == pytest.approx(0.0362, rel=0.05)

    def test_unit_circle_fails_by_scale(self):
        e = h.embeddedness_condition(h.circle(1.0, 128))
        assert e.ok is False
        assert e.rhs > 1e8  # a e^a with a ~ 17

    def test_huge_curve_threshold_saturates(self):
        e = h.embeddedness_condition(h.circle(100.0, 64))
        assert e.ok is False
        assert e.rhs == math.inf

    def test_lhs_is_chord_arc(self):
        c = h.barbell(1.0, 0.25, 200)
        assert h.embeddedness_condition(c).lhs == pytest.approx(
            h.chord_arc_min(c).value, rel=1e-13
        )


class TestTurningOnce:
    @pytest.mark.parametrize("n", [h1flow.curves._CHORD_PRUNE, 2048])
    def test_turning_angles_formed_once_per_record(self, monkeypatch, n):
        # the measured curve forms the angles once, where the record's
        # curvature and the pruned chord-arc monitor read them; the monitor
        # on a curve of its own forms them, to the same minimum
        calls = []
        original = h1flow.curves._turning
        monkeypatch.setattr(h1flow.curves, "_turning",
                            lambda *columns: calls.append(1) or original(*columns))
        c = h.star(1.0, 0.3, 5, n)
        rec = h.record(c, 0.0)
        assert len(calls) == 1
        assert repr(rec.chord_arc_min) == repr(h.chord_arc_min(c).value)
        assert len(calls) == 2

    def test_kept_angles_are_those_of_the_unit_edges(self):
        ad = h.arc_data(h.star(1.0, 0.3, 5, 512))
        k = h1flow.curves.frame_data(ad)
        want = h1flow.curves._turning(*h1flow.curves._unit_edges(ad))
        assert ad.turning.tobytes() == want.tobytes()
        assert k.tobytes() == (want / ad.ds).tobytes()
        assert h.arc_data(h.star(1.0, 0.3, 5, 512)).turning.tobytes() == want.tobytes()


class TestOneGate:
    # a record and a run refuse only what arc_data refuses: the cusp has a
    # curvature, pi over its ds of 1, and no refusal; only a quotient
    # path's normals need the unit tangent that refuses it (see
    # test_paths' test_cusp_fails_only_the_quotient_length)
    def test_record_and_run_accept_the_cusp(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ad = h.arc_data(SPIKE)
            rec = h.record(ad, 0.0)
            traj = h.run_flow(h.PolyCurve(SPIKE),
                              h.FlowConfig(dt=0.01, t1=0.05, method="rk4"))
        k = np.abs(h1flow.curves.frame_data(ad))
        assert int(np.argmax(k)) == 3 and ad.ds[3] == 1.0
        assert rec.max_abs_k == k[3] == math.pi
        assert rec.chord_arc_min == 0.0
        assert traj.termination is h.Termination.COMPLETED and len(traj.records) == 6
        assert traj.records[0] == rec

    def test_only_a_quotient_walk_forms_the_tangent(self, monkeypatch):
        # a record forms no unit tangent; a quotient walk of m frames forms
        # one per left frame
        calls = []
        original = h1flow.curves._tangent

        def counted(*columns):
            calls.append(1)
            return original(*columns)

        for module in (h1flow.curves, h1flow.paths):
            monkeypatch.setattr(module, "_tangent", counted)
        h.record(h.star(1.0, 0.3, 5, 512), 0.0)
        assert calls == []
        m = 9
        path = h.shrink_path(h.star(1.0, 0.3, 5, 64), 0.5, m)
        h.path_length_l2ds(h.as_mode(path, "quotient"))
        assert len(calls) == m - 1


class TestOverflowingSquares:
    # circles whose squared norms, area sums and gradient norm pass the
    # double range lie outside the coordinate range: the functions that
    # measure them refuse them by the range's name, and signed_area and
    # sup_norm, which pass no gate, return inf or nan; no RuntimeWarning
    # escapes either way
    @pytest.mark.parametrize("radius", [1e154, 1.5e154])
    @pytest.mark.parametrize("fn", [
        lambda c: h.record(c, 0.0), h.flow_velocity, h.signed_area, h.sup_norm,
        h.embeddedness_condition,
    ], ids=["record", "flow_velocity", "signed_area", "sup_norm", "embeddedness_condition"])
    def test_no_runtime_warning(self, fn, radius):
        c = h.circle(radius, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if fn not in (h.signed_area, h.sup_norm):
                with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                    fn(c)
                return
            got = repr(fn(c))
        with np.errstate(all="ignore"):
            assert got == repr(fn(c))

    @pytest.mark.parametrize("radius", [1e154, 1.5e154])
    def test_chord_arc_minimum_of_the_scaled_copy(self, radius):
        # refused by the range's name, by itself and as a run's initial
        # curve; its copy scaled by a power of two into the range has the
        # minimum of the copy scaled to unit size, by itself and in the
        # record of a run
        c = h.circle(radius, 16)
        e = math.frexp(radius)[1]
        inside = h.PolyCurve(np.ldexp(c.vertices, 299 - e))
        assert np.abs(inside.vertices).max() < AT_RANGE
        want = h.chord_arc_min(h.PolyCurve(np.ldexp(c.vertices, -e)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for fn in (h.chord_arc_min, lambda c: h.run_flow(c, h.FlowConfig(dt=0.1, t1=0.1))):
                with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                    fn(c)
            assert repr(h.chord_arc_min(inside)) == repr(want)
            traj = h.run_flow(inside, h.FlowConfig(dt=0.1, t1=0.1))
        assert traj.records[0].chord_arc_min == want.value

    @pytest.mark.parametrize("fn", [lambda c: h.record(c, 0.0).grad_sq_h1ds,
                                    lambda c: h.flow_velocity(c).grad_norm_sq_h1ds],
                             ids=["record", "flow_velocity"])
    def test_velocity_square_past_the_double_range(self, fn):
        # a circle of radius 1e80 with one edge of 1e-150 lies inside the
        # coordinate range, but its velocity, about ds |X| / 2 ~ 1e159, has
        # squares past the double range: the gradient norm is inf, with no
        # RuntimeWarning
        v = h.circle(1e80, 16).vertices
        c = h.PolyCurve(np.insert(v, 1, v[0] + [0.0, 1e-150], axis=0))
        assert h.arc_data(c).edge_lengths.min() == 1e-150
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert fn(c) == math.inf


class TestMonotonicityReport:
    def test_clean_shrinking_run(self, circle_t2):
        traj, _ = circle_t2
        rep = h.monotonicity_report(traj)
        assert all(v.passed for v in rep.verdicts)
        by_name = {v.name: v for v in rep.verdicts}
        for name in ("length", "linf", "xu_l2", "l2ds"):
            v = by_name[name]
            assert v.passed
            assert v.worst_violation == 0.0
        assert rep.deficit_sup_ratio >= 1.0
        assert rep.rescaled_k_sup > 0.0

    def test_violation_detected(self):
        r0 = h.record(h.circle(1.0, 64), 0.0)
        r1 = h.record(h.circle(1.1, 64), 1.0)  # grew: every monitor rises
        rep = h.monotonicity_report([r0, r1])
        assert not all(v.passed for v in rep.verdicts)
        v = {v.name: v for v in rep.verdicts}["length"]
        assert not v.passed
        assert v.worst_violation > 0.0
        assert v.worst_index == 1

    def test_slack_forgives_small_rise(self):
        # a rise of up to 1e-6 in one step passes; twice that fails
        r0 = h.record(h.circle(1.0, 64), 0.0)
        for rise, passed in ((5e-7, True), (2e-6, False)):
            r1 = dataclasses.replace(r0, t=1.0, length=r0.length + rise)
            v = {v.name: v for v in h.monotonicity_report([r0, r1]).verdicts}["length"]
            assert v.passed is passed
            assert v.worst_violation == pytest.approx(rise)

    def test_accepts_plain_record_list(self, circle_t2):
        traj, _ = circle_t2
        rep = h.monotonicity_report(list(traj.records))
        assert all(v.passed for v in rep.verdicts)

    def test_too_few_records_rejected(self):
        r0 = h.record(h.circle(1.0, 64), 0.0)
        with pytest.raises(ValueError):
            h.monotonicity_report([r0])
