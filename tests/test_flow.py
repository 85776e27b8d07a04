"""Time integration: single steps, full runs, terminations, profiles."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import h1flow as h
import h1flow.curves
import h1flow.flow
import h1flow.gradient
from conftest import AT_RANGE, BELOW_RANGE, RANGE_REFUSAL, profile_of
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
        with pytest.warns(UserWarning, match="forward Euler") as caught:
            h.FlowConfig(dt=1.0, t1=5.0)
        # the warning names the line that built the config
        assert caught[0].filename == __file__

    def test_rk4_large_dt_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h.FlowConfig(dt=1.0, t1=5.0, method="rk4")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            h.FlowConfig(dt=0.1, t1=1.0, method="rk5")

    def test_rejects_absurd_step_count(self):
        with pytest.raises(ValueError):
            h.FlowConfig(dt=1e-9, t1=1e3)

    def test_rejects_bad_record_every(self):
        for re_ in (0, -1, 1.5, 2.0):
            with pytest.raises(ValueError):
                h.FlowConfig(dt=0.1, t1=1.0, record_every=re_)

    def test_numpy_integer_record_every(self):
        runs = [h.run_flow(h.circle(1.0, 32), h.FlowConfig(dt=0.1, t1=1.0, record_every=re_))
                for re_ in (5, np.int64(5))]
        a, b = runs
        assert a.times == b.times == (0.0, 0.5, 1.0)
        assert all(np.array_equal(x.vertices, y.vertices) for x, y in zip(a.states, b.states))
        assert a.records == b.records
        assert a.termination is b.termination

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

    def test_horizon_off_whole_steps_refused(self):
        # a run would stop at 0.9, 0.8 or 0 in place of t1
        for dt, t1 in ((0.3, 1.0), (0.4, 1.0), (0.1, 0.05)):
            with pytest.raises(ValueError, match=f"^t1 - t0 = {t1} is not a whole number of "
                                                 f"steps of dt = {dt}$"):
                h.FlowConfig(dt=dt, t1=t1)


def _one_step(curve, dt, method="euler"):
    """The state after one run_flow step of signed size dt from t = 0."""
    traj = h.run_flow(curve, h.FlowConfig(dt=abs(dt), t1=dt, method=method))
    assert traj.termination is h.Termination.COMPLETED
    assert traj.times == (0.0, dt)
    return traj.states[-1]


def _two_branch_step(ad, step, method):
    """Euler and classical RK4 written out as two branches: the reference
    that _advance's one stage loop over its table must match bit for bit."""
    velocity, measure = h1flow.gradient.velocity, h1flow.flow._measure
    X = ad.vertices
    k1 = velocity(ad)
    if method == "euler":
        return X + step * k1
    k2 = velocity(measure(X + 0.5 * step * k1))
    k3 = velocity(measure(X + 0.5 * step * k2))
    k4 = velocity(measure(X + step * k3))
    return X + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


STEP_CURVES = {
    "circle64": h.circle(1.0, 64),
    "star256": h.star(1.0, 0.3, 5, 256),
    "ellipse512": h.ellipse(1.0, 0.5, 512),
    "barbell128": h.barbell(1.0, 0.25, 128),
}


class TestSingleSteps:
    @pytest.mark.parametrize("step", [0.01, -0.05, 0.3])
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("name", STEP_CURVES)
    def test_stage_loop_matches_two_branches(self, name, method, step):
        ad = h1flow.flow._measure(STEP_CURVES[name].vertices.copy())
        with np.errstate(over="raise", invalid="raise"):
            got = h1flow.flow._advance(ad, step, method)
            want = _two_branch_step(ad, step, method)
        assert got.tobytes() == want.tobytes()

    def test_euler_circle_shrink_rate(self):
        # dr/dt = -r/(1+r^2) = -1/2 at r = 1; the deviation is the
        # O(n^-2) polygon bias
        dt = 1e-3
        for n, tol in ((128, 5e-4), (256, 2e-4)):
            c2 = _one_step(h.circle(1.0, n), dt)
            r2 = np.linalg.norm(c2.vertices, axis=1)
            dr = r2.mean() - 1.0
            assert abs(dr + dt / 2) / (dt / 2) <= tol
            # a circle stays a circle
            assert np.ptp(r2) / r2.mean() <= 1e-12

    def test_one_step_reversibility(self):
        c = h.star(1.0, 0.3, 5, 128)
        for dt in (1e-2, 1e-3):
            back = _one_step(_one_step(c, dt), -dt)
            err = np.abs(back.vertices - c.vertices).max()
            assert err <= 10 * dt * dt

    def test_rk4_euler_gap_scales_quadratically(self):
        c = h.circle(1.0, 128)
        gap = {}
        for dt in (1e-1, 1e-2, 1e-3):
            gap[dt] = np.abs(
                _one_step(c, dt, "rk4").vertices - _one_step(c, dt).vertices
            ).max()
        assert gap[1e-2] <= gap[1e-1] / 25
        assert gap[1e-3] <= gap[1e-2] / 25

    def test_non_finite_stage_state_ends_the_step(self):
        # infinite coordinates, or finite ones outside the coordinate range,
        # among them ones whose edge norms overflow
        Y = h.circle(1.0, 8).vertices.copy()
        Y[3, 0] = np.inf
        with pytest.raises(FloatingPointError, match="^curve coordinates are not finite$"):
            h1flow.flow._measure(Y)
        for scale in (1e155, AT_RANGE):
            with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
                h1flow.flow._measure(scale * h.circle(1.0, 8).vertices)
        # a large state inside the range still goes on
        big = BELOW_RANGE * h.circle(1.0, 8).vertices
        assert np.array_equal(h1flow.gradient.velocity(h1flow.flow._measure(big)),
                              h1flow.gradient.velocity(h.PolyCurve(big)))
        # a collapsed edge is a degenerate curve, not a numerical failure
        Y = h.circle(1.0, 8).vertices.copy()
        Y[1] = Y[0]
        with pytest.raises(DegenerateCurve):
            h1flow.flow._measure(Y)

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -300, 2.0 ** 299,
                                       0.99 * h1flow.curves._RANGE / 1.3])
    def test_measured_state_is_the_array_itself(self, scale):
        # no copy: the stepped array becomes the read-only vertices, measured
        # as arc_data measures a PolyCurve, across the range the gate accepts
        # (the star reaches |X| = 1.3)
        Y = scale * h.star(1.0, 0.3, 5, 64).vertices
        ad = h1flow.flow._measure(Y)
        assert np.shares_memory(ad.vertices, Y)
        assert not Y.flags.writeable and not ad.vertices.flags.writeable
        ref = h.arc_data(h.PolyCurve(Y))
        assert ad.length == ref.length
        for name in ("vertices", "ds", "edges", "edge_lengths", "s"):
            assert np.array_equal(getattr(ad, name), getattr(ref, name))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [(4, 1), (slice(0, 2), 0)], ids=["apart", "on-the-edge"])
    def test_non_finite_refused_before_a_collapsed_edge(self, bad, where):
        # finiteness is checked first, so a state with a non-finite
        # coordinate and a collapsed edge ends a run as a numerical failure
        Y = h.circle(1.0, 8).vertices.copy()
        Y[1] = Y[0]
        Y[where] = bad
        assert np.array_equal(Y[0], Y[1], equal_nan=True)
        with pytest.raises(FloatingPointError, match="coordinates"):
            h1flow.flow._measure(Y)

    def test_rk4_single_step_matches_oracle(self, unit_circle_oracle):
        # n large enough that the spatial error clears the 1e-9 target
        dt = 1e-2
        c2 = _one_step(h.circle(1.0, 6144), dt, "rk4")
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

    def test_initial_state_with_coincident_vertices_rejected(self):
        c = h.circle(1.0, 16).vertices.copy()
        c[1] = c[0]
        with pytest.raises(DegenerateCurve, match="zero-length edge"):
            h.run_flow(h.PolyCurve(c), h.FlowConfig(dt=0.01, t1=0.1))

    @pytest.mark.parametrize("size", [1e158, 1e300])
    def test_initial_length_overflow_raises(self, size):
        # finite coordinates whose edge norms overflow lie outside the
        # coordinate range: the initial curve is refused by its name
        with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
            h.run_flow(h.circle(size, 64), h.FlowConfig(dt=0.1, t1=1.0))

    def test_length_guard_stop(self):
        traj = h.run_flow(
            h.circle(1.0, 64), h.FlowConfig(dt=0.01, t1=2.0, min_length_guard=3.0)
        )
        assert traj.termination is h.Termination.LENGTH_GUARD
        assert traj.records[-1].length < 3.0
        # stopped at the crossing, well before the horizon
        assert traj.times[-1] < 1.5

    def test_numerical_failure_on_overflow(self):
        # velocity ~ L |X| / 2 blasts the coordinates of a circle of radius
        # 1e80 past the coordinate range within a step: the stepped state
        # is refused by the range's name, which ends the run, and no
        # RuntimeWarning escapes on the way
        c, cfg = h.circle(1e80, 64), h.FlowConfig(dt=0.1, t1=1.0)
        with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
            h1flow.flow._measure(h1flow.flow._advance(h.arc_data(c), cfg.dt, cfg.method))
        traj = h.run_flow(c, cfg)
        assert traj.termination is h.Termination.NUMERICAL_FAILURE
        assert traj.times == (0.0,)

    def test_length_square_overflow_is_numerical_failure(self):
        # L ~ 6.3e154, whose square would overflow the double range in the
        # first record: the curve lies outside the coordinate range and is
        # refused by its name before any record is formed
        with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
            h.run_flow(h.circle(1e154, 64), h.FlowConfig(dt=0.1, t1=1.0))
        # inside the range the record's squares are finite, and the first
        # step leaves the range
        traj = h.run_flow(h.circle(BELOW_RANGE, 64), h.FlowConfig(dt=0.1, t1=1.0))
        assert traj.termination is h.Termination.NUMERICAL_FAILURE
        assert traj.times == (0.0,)
        assert math.isfinite(traj.records[0].length)
        assert math.isfinite(traj.records[0].deficit)

    @pytest.mark.parametrize("record_every", [1, 1000])
    @pytest.mark.parametrize("side, guard, expected", [
        (1.0, 1e-8, h.Termination.NUMERICAL_FAILURE),
        (1e-9, 1e-8, h.Termination.LENGTH_GUARD),
    ], ids=["failure", "guard"])
    def test_collapsed_edge_ends_the_run(self, monkeypatch, record_every,
                                         side, guard, expected):
        # a step that merges two vertices leaves no velocity to take; the
        # length guard names it when the curve is that short
        collapsed = h.square(side, 8).vertices.copy()
        collapsed[1] = collapsed[0]
        monkeypatch.setattr(h1flow.flow, "_advance", lambda *args: collapsed)
        traj = h.run_flow(h.circle(1.0, 8),
                          h.FlowConfig(dt=0.1, t1=1.0, min_length_guard=guard,
                                       record_every=record_every))
        assert traj.termination is expected
        assert traj.times == (0.0,)

    @pytest.mark.parametrize("rescale, records", [(True, 2), (False, 1)], ids=["profile", "raw"])
    def test_state_at_the_guard_kept_when_its_record_forms(self, rescale, records):
        # one Euler step of dt ~ 1 takes the length from 6.2e-6 to 6.2e-13,
        # under the kernel guard: the curve's own record cannot be formed,
        # its profile's, e^t times as long, can
        dt = 0.9999999
        with pytest.warns(UserWarning):
            cfg = h.FlowConfig(dt=dt, t1=3 * dt, rescale_profile=rescale)
        traj = h.run_flow(h.circle(1e-6, 16), cfg)
        assert traj.termination is h.Termination.LENGTH_GUARD
        assert len(traj.records) == records
        if rescale:
            assert traj.records[-1].length == pytest.approx(1.7e-12, rel=1e-2)

    def test_profile_past_exp_range_is_numerical_failure(self, monkeypatch):
        # the profile e^t (X - X_0) of a unit circle leaves the coordinate
        # range past t = 207.94, long before e^t overflows at t = 709.78:
        # the stepped profile is refused, by the range's name, and that
        # ends the run
        monkeypatch.setattr(h1flow.flow, "_advance", lambda *args: h.circle(1.0, 16).vertices)
        with pytest.raises(FloatingPointError,
                           match=rf"^rescaled profile at t=208\.0: {RANGE_REFUSAL}"):
            h1flow.flow.asymptotic_profile(h.circle(0.5, 16), 208.0)
        traj = h.run_flow(h.circle(1e-80, 16),
                          h.FlowConfig(dt=0.5, t0=207.5, t1=209.0, min_length_guard=0.0,
                                       rescale_profile=True))
        assert traj.termination is h.Termination.NUMERICAL_FAILURE
        assert traj.times == (207.5,)

    def test_records_past_the_exp_range(self):
        # the flow is autonomous, so t is only a label; below t = -709.78
        # e^-t leaves the double range and the rescaled curvature reads inf
        traj = h.run_flow(h.circle(1.0, 16), h.FlowConfig(dt=0.5, t0=-709, t1=-711))
        assert traj.termination is h.Termination.COMPLETED
        assert traj.times == (-709, -709.5, -710.0, -710.5, -711.0)
        for t, rec in zip(traj.times[:2], traj.records):
            assert rec.rescaled_max_k == math.exp(-t) * rec.max_abs_k < math.inf
        assert [r.rescaled_max_k for r in traj.records[2:]] == [math.inf] * 3
        far = h.run_flow(h.circle(1.0, 16), h.FlowConfig(dt=0.5, t0=-800, t1=-799))
        assert far.termination is h.Termination.COMPLETED

    def test_translation_moves_the_centre_by_the_row_defect(self):
        # The continuum flow commutes with translations. The discrete one
        # does not: on X + a the velocity gains -a (1 + sum_j G_ij ds_j),
        # the row-quadrature defect times the offset, so a translated circle
        # keeps its shape but its centre drifts in proportion to the offset.
        # The defect is an O(n^-2) quadrature effect, which the 64:128 drift
        # ratio of 4 shows (measured: 5.83e-4 and 1.46e-4 per unit offset).
        cfg = h.FlowConfig(dt=0.01, t1=2.0, method="rk4", record_every=1000)
        drift = {}
        for n in (64, 128):
            base = h.run_flow(h.circle(1.0, n), cfg).states[-1].vertices
            centre = base.mean(axis=0)
            per_unit = []
            for off in (1.0, 10.0, 100.0):
                a = np.array([off, 0.0])
                moved = h.run_flow(h.PolyCurve(h.circle(1.0, n).vertices + a),
                                   cfg).states[-1].vertices
                moved_centre = moved.mean(axis=0)
                assert np.abs((moved - moved_centre) - (base - centre)).max() <= 1e-12
                d = (moved_centre - centre - a) / off
                assert abs(d[1]) <= 1e-15
                per_unit.append(d[0])
            assert np.ptp(per_unit) <= 1e-9 * per_unit[0]
            drift[n] = per_unit[0]
        assert 0.0 < drift[64] <= 6e-4
        assert 3.9 <= drift[64] / drift[128] <= 4.1

    def test_rk4_forward_backward_round_trip(self):
        # the flow is well posed in both directions, so running back from
        # t = 1 returns to the initial curve up to the integrator's error
        c = h.star(1.0, 0.3, 5, 64)
        fwd = h.run_flow(c, h.FlowConfig(dt=0.01, t1=1.0, method="rk4"))
        back = h.run_flow(fwd.states[-1],
                          h.FlowConfig(dt=0.01, t0=1.0, t1=0.0, method="rk4"))
        assert back.termination is h.Termination.COMPLETED
        assert np.abs(back.states[-1].vertices - c.vertices).max() <= 1e-11

    def test_rk4_overflowing_stage_is_numerical_failure(self):
        # the first stage state X + (h/2) k of a circle of radius 1e80 lies
        # outside the coordinate range and is refused by its name, which
        # ends the run; no warning may escape
        c = h.circle(1e80, 64)
        with pytest.raises(FloatingPointError, match=f"^{RANGE_REFUSAL}"):
            h1flow.flow._measure(c.vertices + 0.05 * h1flow.gradient.velocity(c))
        traj = h.run_flow(c, h.FlowConfig(dt=0.1, t1=1.0, method="rk4"))
        assert traj.termination is h.Termination.NUMERICAL_FAILURE
        assert traj.times == (0.0,)

    @pytest.mark.parametrize("record_every", [1, 1000])
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_kernel_guard_mid_run_is_numerical_failure(self, method, record_every):
        # with the length guard off the curve shrinks under the kernel's
        # own guard, in a step or in a record; either ends the run instead
        # of escaping from it
        traj = h.run_flow(h.circle(1.0, 16),
                          h.FlowConfig(dt=0.5, t1=60.0, method=method,
                                       min_length_guard=0.0, record_every=record_every))
        assert traj.termination is h.Termination.NUMERICAL_FAILURE
        assert traj.records[-1].length >= h.MIN_KERNEL_LENGTH

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_programming_error_propagates(self, monkeypatch, method):
        def broken(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(h1flow.flow, "velocity", broken)
        with pytest.raises(ValueError, match="bug"):
            h.run_flow(h.circle(1.0, 32), h.FlowConfig(dt=0.1, t1=0.2, method=method))

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

    def test_backward_horizon(self):
        # Backward, the near-Nyquist modes grow as e^|t| from round-off. Up
        # to t = -30 the length keeps within 3 % of the exact circle
        # (-2.66 % measured); from t = -28 to -31 the relative spread of
        # the vertex radii about the centroid grows 1.33e-4 -> 2.40e-3, a
        # factor 2.6 per unit time. A change that moves this horizon fails.
        traj = h.run_flow(h.circle(1.0, 256),
                          h.FlowConfig(dt=0.05, t1=-31.0, method="rk4", record_every=20))
        assert traj.termination is h.Termination.COMPLETED
        at = {t: k for k, t in enumerate(traj.times)}
        exact = 2.0 * math.pi * h.CircleSolution(1.0).radius(-30.0)
        assert abs(traj.records[at[-30.0]].length / exact - 1.0) <= 0.03

        def spread(t):
            v = traj.states[at[t]].vertices
            r = np.hypot(*(v - v.mean(axis=0)).T)
            return np.ptp(r) / r.mean()

        assert (spread(-31.0) / spread(-28.0)) ** (1.0 / 3.0) >= 2.0

    def test_forward_length_monotone(self, circle_t2):
        traj, _ = circle_t2
        lengths = [r.length for r in traj.records]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))

    def test_states_match_records(self, circle_t2):
        traj, _ = circle_t2
        for st, rec in zip(traj.states, traj.records):
            assert h.total_length(st) == pytest.approx(rec.length, rel=1e-13)


def _random_star(seed, n):
    """r(theta) = 1 + sum_k a_k cos(k theta + phi_k) over 3 distinct k in
    2..6, a_k in [-0.1, 0.1], scaled by a factor in [0.5, 2]; the shape
    depends on the seed only, the sampling on n."""
    rng = np.random.default_rng(seed)
    k = rng.choice(np.arange(2, 7), size=3, replace=False)
    a = rng.uniform(-0.1, 0.1, size=3)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=3)
    scale = rng.uniform(0.5, 2.0)
    th = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + (a * np.cos(np.outer(th, k) + phi)).sum(axis=1)
    return h.PolyCurve(scale * r[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1))


@pytest.mark.parametrize("seed", range(12))
def test_decay_and_energy_identity_on_random_shapes(seed):
    # Length, |X|_inf, |X_u|_L2 and |X|_L2(ds) never rise (measured rise:
    # 0.0 on every run), and dL/dt = -|grad L|^2_H1(ds) holds to the
    # trapezoid defect |dL/dt + g| / g over each step, g the mean of the two
    # recorded grad_sq_h1ds. The defect is spatial, O(n^-2): halving dt
    # leaves it unchanged, and doubling n divides it by 3.25-4.05 (measured
    # peak 3.7e-3 at n = 128).
    cfg = h.FlowConfig(dt=1e-2, t1=0.5, method="rk4")
    defect = {}
    for n in (128, 256):
        traj = h.run_flow(_random_star(seed, n), cfg)
        assert traj.termination is h.Termination.COMPLETED
        assert h.monotonicity_report(traj).all_passed
        length = np.array([r.length for r in traj.records])
        g = np.array([r.grad_sq_h1ds for r in traj.records])
        g_mean = 0.5 * (g[1:] + g[:-1])
        rate = np.diff(length) / np.diff(traj.times)
        defect[n] = float((np.abs(rate + g_mean) / g_mean).max())
    assert defect[128] <= 5e-3
    assert defect[128] / defect[256] >= 3.0


DIHEDRAL_CURVES = {
    "star": h.star(1.0, 0.3, 5, 256),
    "ellipse": h.ellipse(1.0, 0.5, 300),
    "barbell": h.barbell(1.0, 0.25, 128),
}
# a symmetry of the square lattice, exact in floating point, and the sign it
# gives the signed area: the quarter turn (x, y) -> (-y, x) keeps the
# orientation, the mirror x -> -x reverses it
DIHEDRAL = {
    "rotation": (lambda X: np.stack((-X[:, 1], X[:, 0]), axis=1), 1.0),
    "reflection": (lambda X: np.stack((-X[:, 0], X[:, 1]), axis=1), -1.0),
}


@pytest.mark.parametrize("move", DIHEDRAL)
@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("name", DIHEDRAL_CURVES)
def test_dihedral_symmetry_is_exact(name, method, move):
    # the moved curve's run is the moved run, bit for bit, and its records
    # are the run's own, the signed area's sign aside: every other field,
    # the isoperimetric deficit among them, is orientation-blind
    f, sign = DIHEDRAL[move]
    cfg = h.FlowConfig(dt=0.01, t1=0.2, method=method, record_every=5)
    curve = DIHEDRAL_CURVES[name]
    ref = h.run_flow(curve, cfg)
    got = h.run_flow(h.PolyCurve(f(curve.vertices)), cfg)
    assert got.times == ref.times
    assert got.termination is ref.termination is h.Termination.COMPLETED
    assert len(got.states) == len(ref.states) == 5
    for a, b in zip(got.states, ref.states):
        assert a.vertices.tobytes() == f(b.vertices).tobytes()
    assert got.records == tuple(replace(r, area=sign * r.area) for r in ref.records)


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
        manual = profile_of(raw)
        assert len(flagged.states) == len(manual.states) == 21
        for a, b in zip(flagged.states, manual.states):
            assert np.array_equal(a.vertices, b.vertices)
        assert flagged.times == manual.times
        assert flagged.termination is manual.termination
        assert flagged.records == manual.records

    @pytest.mark.parametrize("curve", [h.circle(1.0, 128), h.star(1.0, 0.3, 5, 128)],
                             ids=["circle", "star"])
    def test_rescaled_curvature_is_the_profile_curvature(self, curve):
        # Y = e^t (X - X_0) has curvature e^-t k(X), so a profile's record
        # carries its own curvature, not one rescaled a second time
        cfg = h.FlowConfig(dt=0.01, t1=2.0, method="rk4", record_every=50)
        raw = h.run_flow(curve, cfg)
        for prof in (h.run_flow(curve, replace(cfg, rescale_profile=True)),
                     profile_of(raw)):
            assert prof.times == raw.times
            for a, b in zip(raw.records, prof.records):
                assert b.rescaled_max_k == b.max_abs_k
                assert b.rescaled_max_k == pytest.approx(a.rescaled_max_k, rel=1e-12)

    def test_overflowing_profile_named(self):
        state = h.run_flow(h.circle(1.0, 16), h.FlowConfig(dt=0.1, t1=0.1)).states[0]
        with pytest.raises(FloatingPointError,
                           match=rf"^rescaled profile at t=700\.0: {RANGE_REFUSAL}"):
            h1flow.flow.asymptotic_profile(state, 700.0)

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
        calls = _count_calls(monkeypatch, h1flow.gradient, "_edge_term")
        traj = h.run_flow(
            h.circle(1.0, 32),
            h.FlowConfig(dt=0.05, t1=0.5, method="rk4", record_every=5),
        )
        assert len(traj.records) == 3
        assert len(calls) == len(traj.records)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_rk4_measurements_pass_through_arc_data(self, monkeypatch, k):
        # the flow measures through curves' arc_data binding, which the
        # benchmark tracer wraps: the initial state and its profile, three
        # stages and the stepped state per step, and the final profile; each
        # of the two records' chord-arc monitor and frame_data pass it the
        # measured profile
        calls = _count_calls(monkeypatch, h1flow.curves, "arc_data")
        traj = h.run_flow(h.circle(1.0, 32),
                          h.FlowConfig(dt=0.05, t1=0.05 * k, method="rk4", record_every=k,
                                       rescale_profile=True))
        assert len(traj.records) == 2
        assert len(calls) == 4 * k + 3 + 2 * len(traj.records)

    def test_geometry_measured_once_per_state(self, monkeypatch):
        # every function that takes a curve reuses the ArcData it is given
        built = []
        init = h1flow.curves.ArcData.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(h1flow.curves.ArcData, "__init__", counted)
        c = h.star(1.0, 0.3, 5, 256)
        h.record(c, 0.0)
        assert len(built) == 1
        built.clear()
        h.flow_velocity(c)
        assert len(built) == 1
        frames = tuple(h.PolyCurve(s * c.vertices) for s in (1.0, 0.9, 0.8))
        built.clear()
        # building the path passes each explicit frame through the gate once,
        # and a walk measures each frame once, when it is read
        path = h.CurvePath(frames=frames, mode="quotient")
        assert len(built) == 3
        built.clear()
        h.path_length_l2ds(path)
        assert len(built) == 3
        built.clear()
        traj = h.run_flow(c, h.FlowConfig(dt=1e-3, t1=0.1, record_every=100))
        assert len(traj.records) == 2
        # the initial state and the 100 stepped ones
        assert len(built) == 101
        assert all(type(s) is h.PolyCurve for s in traj.states)


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

    @staticmethod
    def length_upto(traj, k):
        """I(t_k): the length of the trajectory cut after its record k."""
        cut = replace(traj, times=traj.times[:k + 1], states=traj.states[:k + 1],
                      records=traj.records[:k + 1])
        return h.trajectory_h1ds_length(cut)

    def test_partials_cumulative(self):
        traj = h.run_flow(h.circle(1.0, 64), h.FlowConfig(dt=0.05, t1=0.5))
        total = h.trajectory_h1ds_length(traj)
        partials = [self.length_upto(traj, k) for k in range(1, len(traj.times))]
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
        total = h.trajectory_h1ds_length(traj)
        times = np.asarray(traj.times)

        def upto(T):
            return self.length_upto(traj, int(np.searchsorted(times, T + 1e-12)) - 1)

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
