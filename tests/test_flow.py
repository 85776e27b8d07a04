"""Time integration: single steps, full runs, terminations, profiles."""
import math

import numpy as np
import pytest

import h1flow as h
import h1flow.flow
import h1flow.gradient
from h1flow.errors import DegenerateCurve


class TestFlowConfig:
    def test_rejects_nonpositive_dt(self):
        for dt in (0.0, -0.1):
            with pytest.raises(ValueError):
                h.FlowConfig(dt=dt, t1=1.0)

    def test_rejects_unstable_dt(self):
        with pytest.raises(ValueError):
            h.FlowConfig(dt=2.5, t1=10.0)

    def test_warns_on_large_dt(self):
        with pytest.warns(UserWarning):
            h.FlowConfig(dt=1.0, t1=5.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            h.FlowConfig(dt=0.1, t1=1.0, method="rk5")

    def test_rejects_absurd_step_count(self):
        with pytest.raises(ValueError):
            h.FlowConfig(dt=1e-9, t1=1e3)

    def test_rejects_bad_record_every(self):
        for re_ in (0, -1, 1.5):
            with pytest.raises(ValueError):
                h.FlowConfig(dt=0.1, t1=1.0, record_every=re_)

    def test_rejects_negative_guard(self):
        with pytest.raises(ValueError):
            h.FlowConfig(dt=0.1, t1=1.0, min_length_guard=-1e-9)

    def test_step_count_and_sign(self):
        cfg = h.FlowConfig(dt=0.1, t1=1.0)
        assert cfg.steps == 10
        assert cfg.signed_step == 0.1
        back = h.FlowConfig(dt=0.1, t1=-1.0)
        assert back.steps == 10
        assert back.signed_step == -0.1

    def test_horizon_snaps_to_whole_steps(self):
        cfg = h.FlowConfig(dt=0.3, t1=1.0)
        assert cfg.steps == 3


class TestSingleSteps:
    def test_zero_step_is_identity(self):
        c = h.star(1.0, 0.3, 5, 64)
        assert np.array_equal(h.step_euler(c, 0.0).vertices, c.vertices)
        assert np.array_equal(h.step_rk4(c, 0.0).vertices, c.vertices)

    def test_euler_circle_shrink_rate(self):
        # dr/dt = -r/(1+r^2) = -1/2 at r = 1; the deviation is the
        # O(n^-2) polygon bias
        dt = 1e-3
        for n, tol in ((128, 5e-4), (256, 2e-4)):
            c2 = h.step_euler(h.circle(1.0, n), dt)
            r2 = np.linalg.norm(c2.vertices, axis=1)
            dr = r2.mean() - 1.0
            assert abs(dr + dt / 2) / (dt / 2) <= tol
            # a circle stays a circle
            assert np.ptp(r2) / r2.mean() <= 1e-12

    def test_one_step_reversibility(self):
        c = h.star(1.0, 0.3, 5, 128)
        for dt in (1e-2, 1e-3):
            back = h.step_euler(h.step_euler(c, dt), -dt)
            err = np.abs(back.vertices - c.vertices).max()
            assert err <= 10 * dt * dt

    def test_rk4_euler_gap_scales_quadratically(self):
        c = h.circle(1.0, 128)
        gap = {}
        for dt in (1e-1, 1e-2, 1e-3):
            gap[dt] = np.abs(
                h.step_rk4(c, dt).vertices - h.step_euler(c, dt).vertices
            ).max()
        assert gap[1e-2] <= gap[1e-1] / 25
        assert gap[1e-3] <= gap[1e-2] / 25

    @pytest.mark.parametrize("method, step", [("euler", h.step_euler),
                                              ("rk4", h.step_rk4)])
    def test_single_step_matches_one_step_run(self, method, step):
        # the public steppers and run_flow share one stepper
        c = h.star(1.0, 0.3, 5, 64)
        dt = 1e-2
        traj = h.run_flow(c, h.FlowConfig(dt=dt, t1=dt, method=method))
        assert len(traj.states) == 2
        assert np.array_equal(step(c, dt).vertices, traj.states[-1].vertices)

    def test_rk4_single_step_matches_oracle(self, unit_circle_oracle):
        # n large enough that the spatial error clears the 1e-9 target
        dt = 1e-2
        c2 = h.step_rk4(h.circle(1.0, 6144), dt)
        r = np.linalg.norm(c2.vertices, axis=1).mean()
        assert abs(r - unit_circle_oracle.radius(dt)) <= 1e-9


class TestRunFlow:
    def test_completed_forward(self, circle_t2):
        traj, _ = circle_t2
        assert traj.termination is h.Termination.COMPLETED
        assert len(traj.times) == len(traj.states) == len(traj.records)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(2.0, abs=1e-9)
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))

    def test_record_spacing(self):
        traj = h.run_flow(
            h.circle(1.0, 64), h.FlowConfig(dt=0.01, t1=0.1, record_every=4)
        )
        # steps 0, 4, 8, and the final 10th
        assert [round(t / 0.01) for t in traj.times] == [0, 4, 8, 10]

    def test_backward_times_decrease(self, circle_back):
        assert circle_back.termination is h.Termination.COMPLETED
        assert all(b < a for a, b in zip(circle_back.times, circle_back.times[1:]))
        assert circle_back.times[-1] == pytest.approx(-1.0, abs=1e-9)

    def test_backward_circle_grows(self, circle_back, unit_circle_oracle):
        r_end = np.linalg.norm(circle_back.states[-1].vertices, axis=1).mean()
        expect = unit_circle_oracle.radius(-1.0)
        assert abs(r_end - expect) / expect <= 5e-3

    def test_initial_state_below_guard_rejected(self):
        tiny = h.PolyCurve(1e-10 * h.circle(1.0, 16).vertices)
        with pytest.raises(DegenerateCurve):
            h.run_flow(tiny, h.FlowConfig(dt=0.01, t1=0.1))

    def test_length_guard_stop(self):
        traj = h.run_flow(
            h.circle(1.0, 64), h.FlowConfig(dt=0.01, t1=2.0, min_length_guard=3.0)
        )
        assert traj.termination is h.Termination.LENGTH_GUARD
        assert traj.records[-1].length < 3.0
        # stopped at the crossing, well before the horizon
        assert traj.times[-1] < 1.5

    def test_numerical_failure_on_overflow(self):
        # velocity ~ L |X| / 2 blasts the coordinates past the norm
        # overflow threshold within a step
        with np.errstate(over="ignore", invalid="ignore"):
            traj = h.run_flow(h.circle(1e150, 64), h.FlowConfig(dt=0.1, t1=1.0))
        assert traj.termination is h.Termination.NUMERICAL_FAILURE
        assert len(traj.times) >= 1
        assert traj.times[0] == 0.0

    def test_backward_rk4_past_exp_range(self):
        # L ~ 754 > 709: e^{L} overflows, so the kernel apply must segment.
        # Not checked against the oracle: edges ~5.9 long under-resolve the
        # kernel, whose row defect (~2 here) times |X| swamps the velocity
        # (see README, Tests).
        c = h.circle(120.0, 128)
        assert h.total_length(c) > 750.0
        traj = h.run_flow(c, h.FlowConfig(dt=1e-3, t1=-5e-3, method="rk4"))
        assert traj.termination is h.Termination.COMPLETED
        assert len(traj.states) == 6
        for st, rec in zip(traj.states, traj.records):
            assert np.isfinite(st.vertices).all()
            assert all(math.isfinite(getattr(rec, name)) for name in h.CSV_COLUMNS
                       if name != "embeddedness_ok")

    def test_forward_length_monotone(self, circle_t2):
        traj, _ = circle_t2
        lengths = [r.length for r in traj.records]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))

    def test_states_match_records(self, circle_t2):
        traj, _ = circle_t2
        for st, rec in zip(traj.states, traj.records):
            assert h.total_length(st) == pytest.approx(rec.length, rel=1e-13)


class TestAsymptoticProfile:
    def test_vertex_zero_pinned_at_origin(self, circle_t4_profile):
        for st in circle_t4_profile.states:
            assert np.array_equal(st.vertices[0], [0.0, 0.0])

    def test_circle_profile_radius(self, circle_t4, circle_t4_profile,
                                   unit_circle_oracle):
        # profiles of the shrinking circle are circles of radius e^t r(t)
        for t, st in zip(circle_t4_profile.times, circle_t4_profile.states):
            center = st.vertices.mean(axis=0)
            rad = np.linalg.norm(st.vertices - center, axis=1)
            expect = math.exp(t) * unit_circle_oracle.radius(t)
            assert np.ptp(rad) / rad.mean() <= 1e-9
            assert abs(rad.mean() - expect) / expect <= 5e-3

    def test_limit_radius(self, circle_t4_profile):
        # e^t sqrt(W(e^{1-2t})) -> sqrt(e) as t grows
        center = circle_t4_profile.states[-1].vertices.mean(axis=0)
        rad = np.linalg.norm(circle_t4_profile.states[-1].vertices - center,
                             axis=1).mean()
        assert abs(rad - math.sqrt(math.e)) / math.sqrt(math.e) <= 1e-2

    def test_rescale_flag_equivalent(self):
        cfg = dict(dt=1e-2, t1=1.0, record_every=5)
        raw = h.run_flow(h.circle(1.0, 64), h.FlowConfig(**cfg))
        flagged = h.run_flow(h.circle(1.0, 64),
                             h.FlowConfig(**cfg, rescale_profile=True))
        manual = h.asymptotic_profile(raw)
        assert len(flagged.states) == len(manual.states) == 21
        for a, b in zip(flagged.states, manual.states):
            assert np.array_equal(a.vertices, b.vertices)
        assert flagged.times == manual.times
        assert flagged.termination is manual.termination
        assert flagged.records == manual.records

    def test_profile_length_bounded(self, circle_t4_profile):
        # e^t L(t) settles instead of shrinking to zero
        Ls = [r.length for r in circle_t4_profile.records]
        assert min(Ls) > 2 * math.pi * 0.9
        assert max(Ls) < 2 * math.pi * math.sqrt(math.e) * 1.1


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends to the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestWorkCounts:
    def test_rescaled_run_records_each_state_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, h1flow.flow, "record")
        traj = h.run_flow(
            h.circle(1.0, 32),
            h.FlowConfig(dt=0.05, t1=0.5, record_every=2, rescale_profile=True),
        )
        assert len(traj.records) == 6
        assert len(calls) == len(traj.records)

    def test_rk4_gradient_norms_once_per_record(self, monkeypatch):
        # the RK4 stages need the velocity only; the norms are for the records
        calls = _count_calls(monkeypatch, h1flow.gradient, "h1ds_inner")
        traj = h.run_flow(
            h.circle(1.0, 32),
            h.FlowConfig(dt=0.05, t1=0.5, method="rk4", record_every=5),
        )
        assert len(traj.records) == 3
        assert len(calls) == len(traj.records)


class TestTrajectoryLength:
    def test_needs_two_records(self):
        traj = h.run_flow(h.circle(1.0, 32), h.FlowConfig(dt=0.1, t1=0.1))
        short = h.Trajectory(times=traj.times[:1], states=traj.states[:1],
                             records=traj.records[:1],
                             termination=traj.termination)
        with pytest.raises(ValueError):
            h.trajectory_h1ds_length(short)

    def test_matches_manual_riemann_sum(self):
        traj = h.run_flow(h.circle(1.0, 64), h.FlowConfig(dt=0.05, t1=0.5))
        total = h.trajectory_h1ds_length(traj)
        manual = sum(
            math.sqrt(traj.records[k].grad_sq_h1ds)
            * abs(traj.times[k + 1] - traj.times[k])
            for k in range(len(traj.times) - 1)
        )
        assert total == pytest.approx(manual, rel=1e-12)

    def test_partials_cumulative(self):
        traj = h.run_flow(h.circle(1.0, 64), h.FlowConfig(dt=0.05, t1=0.5))
        total, partials = h.trajectory_h1ds_length(traj, return_partials=True)
        assert len(partials) == len(traj.times) - 1
        assert partials[-1] == pytest.approx(total, rel=1e-14)
        assert all(b >= a for a, b in zip(partials, partials[1:]))

    def test_finite_total_on_long_horizon(self):
        """The integral sqrt(grad^2) dt converges; the tail past T decays
        like e^{-T/2}, so doubling the horizon from 8 to 16 moves the total
        by ~2%, and successive doublings shrink geometrically."""
        traj = h.run_flow(
            h.circle(1.0, 128), h.FlowConfig(dt=1e-2, t1=16.0, record_every=5)
        )
        total, partials = h.trajectory_h1ds_length(traj, return_partials=True)
        times = np.asarray(traj.times)

        def upto(T):
            idx = int(np.searchsorted(times, T + 1e-12)) - 1
            return float(partials[idx - 1])

        i2, i4, i8, i16 = upto(2.0), upto(4.0), upto(8.0), upto(16.0)
        # continuum values from the circle oracle, frozen:
        # integral of sqrt(2 pi r (2 - r^2/(1+r^2))) ... evaluated to
        # I(8) = 5.3438, I(16) = 5.4595
        assert i8 == pytest.approx(5.3438, rel=1e-2)
        assert i16 == pytest.approx(5.4595, rel=1e-2)
        assert total == pytest.approx(i16, rel=1e-12)
        # Cauchy: each doubling adds less than the one before
        assert (i16 - i8) < (i8 - i4) < (i4 - i2)
        assert i16 - i8 > 0.0
