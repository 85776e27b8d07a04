"""Per-state monitors, the embeddedness criterion, monotonicity verdicts."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

import h1flow as h


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


class TestOverflowingSquares:
    # circles that arc_data accepts, whose squared norms, area sums and
    # gradient norm pass the double range: each value is the inf or nan
    # that the flow's records hold, and no RuntimeWarning escapes
    @pytest.mark.parametrize("radius", [1e154, 1.5e154])
    @pytest.mark.parametrize("fn", [
        lambda c: h.record(c, 0.0), h.flow_velocity, h.signed_area, h.sup_norm,
        h.embeddedness_condition,
    ], ids=["record", "flow_velocity", "signed_area", "sup_norm", "embeddedness_condition"])
    def test_no_runtime_warning(self, fn, radius):
        c = h.circle(radius, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = repr(fn(c))
        with np.errstate(all="ignore"):
            assert got == repr(fn(c))

    @pytest.mark.parametrize("radius", [1e154, 1.5e154])
    def test_chord_arc_minimum_of_the_scaled_copy(self, radius):
        # the minimum, by itself and in the record of a run, is that of the
        # copy scaled by 2^-600, whose chord squares do not overflow
        c = h.circle(radius, 16)
        want = h.chord_arc_min(h.PolyCurve(np.ldexp(c.vertices, -600)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert repr(h.chord_arc_min(c)) == repr(want)
            traj = h.run_flow(c, h.FlowConfig(dt=0.1, t1=0.1))
        assert traj.records[0].chord_arc_min == want.value


class TestMonotonicityReport:
    def test_clean_shrinking_run(self, circle_t2):
        traj, _ = circle_t2
        rep = h.monotonicity_report(traj)
        assert rep.all_passed
        for name in ("length", "linf", "xu_l2", "l2ds"):
            v = rep.verdict(name)
            assert v.passed
            assert v.worst_violation == 0.0
        assert rep.deficit_sup_ratio >= 1.0
        assert rep.rescaled_k_sup > 0.0

    def test_violation_detected(self):
        r0 = h.record(h.circle(1.0, 64), 0.0)
        r1 = h.record(h.circle(1.1, 64), 1.0)  # grew: every monitor rises
        rep = h.monotonicity_report([r0, r1])
        assert not rep.all_passed
        v = rep.verdict("length")
        assert not v.passed
        assert v.worst_violation > 0.0
        assert v.worst_index == 1

    def test_slack_forgives_small_rise(self):
        # a rise of up to 1e-6 in one step passes; twice that fails
        r0 = h.record(h.circle(1.0, 64), 0.0)
        for rise, passed in ((5e-7, True), (2e-6, False)):
            r1 = dataclasses.replace(r0, t=1.0, length=r0.length + rise)
            v = h.monotonicity_report([r0, r1]).verdict("length")
            assert v.passed is passed
            assert v.worst_violation == pytest.approx(rise)

    def test_accepts_plain_record_list(self, circle_t2):
        traj, _ = circle_t2
        rep = h.monotonicity_report(list(traj.records))
        assert rep.all_passed

    def test_too_few_records_rejected(self):
        r0 = h.record(h.circle(1.0, 64), 0.0)
        with pytest.raises(ValueError):
            h.monotonicity_report([r0])

    def test_unknown_verdict_name(self, circle_t2):
        traj, _ = circle_t2
        with pytest.raises(KeyError):
            h.monotonicity_report(traj).verdict("area")
