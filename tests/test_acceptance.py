"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints as one pass/fail line under `pytest -v`. The reference runs
live in session fixtures (conftest.py) so the gate shares them with the unit
modules instead of recomputing.
"""
import math

import numpy as np
import pytest

import h1flow as h


def _radii(state):
    return np.linalg.norm(state.vertices, axis=1)


def test_ac01_circle_oracle_euler(circle_t2, unit_circle_oracle):
    traj, elapsed = circle_t2
    for t, state in zip(traj.times, traj.states):
        r = _radii(state)
        oracle = unit_circle_oracle.radius(t)
        assert abs(r.mean() - oracle) / oracle <= 5e-3
        assert np.ptp(r) / r.mean() <= 1e-6  # stays a round circle
    assert elapsed <= 60.0


def test_ac01_circle_oracle_rk4(circle_rk4_t2, circle_rk4_t2_n128,
                                unit_circle_oracle):
    # A raw n=256 polygon misses the continuum radius by ~3.2e-5 whatever
    # the dt, so the n^-2 spatial bias is removed before the 1e-6 check:
    # (1) the n=128 -> 256 error ratio is 4 at every t > 0, which is what
    #     makes the extrapolation valid; (2) the Richardson value
    #     (4 r_256 - r_128)/3 then tracks the Lambert-W radius to 1e-6.
    fine, coarse = circle_rk4_t2, circle_rk4_t2_n128
    assert coarse.times == fine.times
    worst = 0.0
    for t, s_fine, s_coarse in zip(fine.times, fine.states, coarse.states):
        oracle = unit_circle_oracle.radius(t)
        r_fine, r_coarse = _radii(s_fine).mean(), _radii(s_coarse).mean()
        if t > 0:
            ratio = (r_coarse - oracle) / (r_fine - oracle)
            assert 3.9 <= ratio <= 4.1, (t, ratio)
        richardson = (4.0 * r_fine - r_coarse) / 3.0
        worst = max(worst, abs(richardson - oracle) / oracle)
    assert worst <= 1e-6


def test_ac02_backward_eternal(circle_back, unit_circle_oracle):
    final = _radii(circle_back.states[-1]).mean()
    oracle = unit_circle_oracle.radius(-1.0)
    assert abs(final - oracle) / oracle <= 5e-3
    first, last = circle_back.records[0], circle_back.records[-1]
    assert last.linf <= math.e ** 2 * first.linf * 1.05


def test_ac03_gradient_identity_refinement():
    rng = np.random.default_rng(7)
    amps = 0.08 * rng.standard_normal((4, 2))
    fcoef = rng.standard_normal((20, 2, 9, 2))

    def star_curve(n):
        th = 2 * np.pi * np.arange(n) / n
        rho = 1.0 + sum(
            amps[k - 1, 0] * np.cos(k * th) + amps[k - 1, 1] * np.sin(k * th)
            for k in range(1, 5)
        )
        return h.PolyCurve(np.stack([rho * np.cos(th), rho * np.sin(th)], axis=1))

    def field(j, n):
        th = 2 * np.pi * np.arange(n) / n
        v = np.zeros((n, 2))
        for c in range(2):
            for k in range(9):
                v[:, c] += (fcoef[j, c, k, 0] * np.cos(k * th)
                            + fcoef[j, c, k, 1] * np.sin(k * th))
        return v

    worst_by_n = []
    for n in (64, 128, 256):
        curve = star_curve(n)
        vel = h.flow_velocity(curve).velocity
        worst = 0.0
        for j in range(20):
            v = field(j, n)
            v = v / math.sqrt(h.h1ds_inner(curve, v, v))
            defect = abs(h.length_directional_derivative(curve, v)
                         + h.h1ds_inner(curve, vel, v))
            worst = max(worst, defect)
        worst_by_n.append(worst)
    assert worst_by_n[0] > worst_by_n[1] > worst_by_n[2]
    assert worst_by_n[2] <= 1e-3


def test_ac04_kernel_row_quadrature():
    c512 = h.circle(1.0, 512)
    rows = h.kernel_matrix(c512) @ h.arc_data(c512).ds
    assert np.abs(rows + 1.0).max() <= 2e-3
    d128 = h.row_quadrature_defect(h.circle(1.0, 128))
    d512 = h.row_quadrature_defect(h.circle(1.0, 512))
    assert d128 / d512 >= 3.0


def test_ac05_monotonicity_suite(square_trajs, barbell_traj):
    for traj in (*square_trajs.values(), barbell_traj):
        report = h.monotonicity_report(traj)  # slack 1e-6
        assert {v.name for v in report.verdicts} == {"length", "linf", "xu_l2", "l2ds"}
        assert report.all_passed


def test_ac06_energy_identity(ellipse_short):
    recs = ellipse_short.records
    assert len(recs) == 101
    for a, b in zip(recs, recs[1:]):
        rate = (b.length - a.length) / (b.t - a.t)
        assert abs(rate + a.grad_sq_h1ds) <= 1e-2 * a.grad_sq_h1ds


def test_ac07_decay_sandwich(circle_t4):
    first = circle_t4.records[0]
    L0 = first.length
    checked = 0
    for rec in circle_t4.records:
        if rec.t <= 0.5:
            continue
        lower = L0 * math.exp(-(1.0 + L0 ** 2 / 2.0) * rec.t) * 0.99
        upper = L0 * math.exp(-rec.t / (2.0 + first.linf ** 2)) * 1.01
        assert lower <= rec.length <= upper
        checked += 1
    assert checked > 0


def test_ac08_gradient_inequality_bounds(circle_t2, circle_rk4_t2, circle_t4,
                                         square_trajs, barbell_traj,
                                         ellipse_short, ellipse_t8):
    runs = [circle_t2[0], circle_rk4_t2, circle_t4, *square_trajs.values(),
            barbell_traj, ellipse_short, ellipse_t8]
    for traj in runs:
        C = 0.9 / (2.0 + traj.records[0].linf ** 2)
        for rec in traj.records:
            L = rec.length
            assert rec.grad_sq_h1ds >= C * L
            assert rec.grad_sq_h1ds <= L + 2.0 * L ** 3 + L ** 5 / 4.0 + 1e-6


# The H1(ds) metric's sharp inequality |grad L|^2_H1 <= L, by Cauchy-Schwarz
# on dL(h) = <T, h_s>: every fixture's largest e_max * L over its states, the
# longest edge times the length, rounded up. Past 21.7 the scheme's velocity
# may raise the length, and the bound fails by up to 5e4 times.
_FIXTURE_EL = {
    "circle_t2": 0.16, "circle_rk4_t2": 0.16, "circle_rk4_t2_n128": 0.31,
    "circle_back": 0.35, "circle_t4": 0.16, "circle_t4_profile": 0.42,
    "square_trajs": 1.29, "barbell_traj": 1.23, "square_profile": 0.12,
    "ellipse_short": 0.06, "ellipse_t8": 0.06, "ellipse_t8_profile": 0.11,
}


def _trajectories(name, value):
    if name == "circle_t2":
        value = value[0]
    return value.values() if isinstance(value, dict) else (value,)


def _edge_times_length(curve):
    ad = h.arc_data(curve)
    return float(ad.edge_lengths.max()) * ad.length


def test_sharp_gradient_bound_on_every_state(request):
    # 1e-12: round-off of the two sums; the largest excess seen over 1500
    # random polygons of scale 1e-8 to 1e-2 is 2.2e-16 relative
    for name, stated in _FIXTURE_EL.items():
        for traj in _trajectories(name, request.getfixturevalue(name)):
            assert max(map(_edge_times_length, traj.states)) <= stated < 21.7
            for rec in traj.records:
                assert rec.grad_sq_h1ds <= rec.length * (1 + 1e-12), (name, rec.t)
    rng = np.random.default_rng(18)
    checked = 0
    for k in range(240):
        n = int(rng.integers(3, 200))
        scale = 10.0 ** rng.uniform(-2.0, 1.0)
        if k % 2:
            th = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
            r = 1.0 + 0.3 * rng.uniform(size=n)
            curve = h.PolyCurve(scale * np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
        else:
            curve = h.PolyCurve(scale * rng.standard_normal((n, 2)))
        if _edge_times_length(curve) < 21.7:
            assert h.flow_velocity(curve).grad_norm_sq_h1ds <= h.total_length(curve) * (1 + 1e-12)
            checked += 1
    assert checked >= 100


def test_sharp_decay_and_path_length_bounds(circle_t2, circle_rk4_t2, circle_rk4_t2_n128,
                                            circle_t4, square_trajs, barbell_traj,
                                            ellipse_short, ellipse_t8):
    # the sharp inequality gives dL/dt >= -L, so L(t) >= L0 e^{-(t - t0)},
    # and d sqrt(L)/dt >= -|grad L|_H1 / 2, so the H1(ds) length of the run
    # is at least 2 (sqrt(L0) - sqrt(L1)). At their own steps the forward
    # fixtures clear the first by 3.5e-5 or more after t0; 1e-6 is the
    # margin of round-off where the ratio is 1, at t0 itself. Every speed
    # but one falls in time, so the left-endpoint sum of
    # trajectory_h1ds_length overestimates the integral, and it clears the
    # bound by 5.7 % or more here; 1e-3 allows for a quadrature error the
    # other way. The squares' Euler steps of h = 0.2 lose (1 - h)^k against
    # e^{-kh} (side 1 reaches 0.39 of e^{-t}): there Euler's factor 1 - h
    # stands for e^{-h}, and 1 + sqrt(1 - h) for the 2, as a step with
    # L_{k+1} >= (1 - h) L_k and, to first order, L_k - L_{k+1} <= h |V|^2
    # lowers sqrt(L) by at most h |V| / (1 + sqrt(1 - h)).
    runs = [(circle_t2[0], None), (circle_rk4_t2, None), (circle_rk4_t2_n128, None),
            (circle_t4, None), (barbell_traj, None), (ellipse_short, None),
            (ellipse_t8, None), *((traj, 0.2) for traj in square_trajs.values())]
    for traj, euler_h in runs:
        first, last = traj.records[0], traj.records[-1]
        L0, t0 = first.length, first.t
        for rec in traj.records:
            if euler_h is None:
                envelope = math.exp(-(rec.t - t0))
            else:
                envelope = (1.0 - euler_h) ** round((rec.t - t0) / euler_h)
            assert rec.length >= L0 * envelope * (1 - 1e-6), rec.t
        factor = 2.0 if euler_h is None else 1.0 + math.sqrt(1.0 - euler_h)
        drop = math.sqrt(L0) - math.sqrt(last.length)
        assert h.trajectory_h1ds_length(traj) >= factor * drop * (1 - 1e-3)


def test_ac09_profile_convergence(square_profile):
    frames = [state.vertices for state in square_profile.states]
    diffs = [np.abs(b - a).max() for a, b in zip(frames, frames[1:])]
    ratios = [b / a for a, b in zip(diffs, diffs[1:])]
    # the first window still carries the corner-smoothing transient; the
    # settled ratios must sit in the e^{-t} decay band
    for r in ratios[1:]:
        assert math.exp(-1.25) <= r <= math.exp(-0.75)
    settled = [rec.length for rec in square_profile.records if rec.t >= 1.0]
    assert max(settled) / min(settled) <= 3.0


def test_ac10_rescaled_curvature_bound(ellipse_t8):
    sup_early = max(r.rescaled_max_k for r in ellipse_t8.records if r.t <= 1.0)
    sup_mid = max(r.rescaled_max_k for r in ellipse_t8.records if r.t <= 4.0)
    assert sup_mid <= 2.0 * sup_early


def test_ac11_profile_deficit_bounded(ellipse_t8, ellipse_t8_profile):
    D0 = ellipse_t8.records[0].deficit
    assert D0 > 0.0
    sup4 = max(r.deficit for r in ellipse_t8_profile.records if r.t <= 4.0)
    sup8 = max(r.deficit for r in ellipse_t8_profile.records)
    assert math.isfinite(sup4 / D0) and math.isfinite(sup8 / D0)
    assert abs(sup8 - sup4) / sup4 <= 0.10


def test_ac12_embeddedness_criterion():
    small = h.circle(0.05, 128)
    assert h.embeddedness_condition(small).ok
    assert not h.embeddedness_condition(h.circle(1.0, 128)).ok
    traj = h.run_flow(small, h.FlowConfig(dt=1e-3, t1=1.0, record_every=50))
    ca0 = traj.records[0].chord_arc_min
    assert min(r.chord_arc_min for r in traj.records) >= 0.5 * ca0


def test_ac13_reparam_path_scaling():
    n = 256
    ring = h.circle(1.0, n)
    delta = 6.0 * np.sin(2.0 * np.pi * np.arange(n) / n)
    consts = []
    for lam in (1.0, 0.5, 0.25):
        path = h.reparam_path(h.PolyCurve(lam * ring.vertices), delta, 33)
        consts.append(h.path_length_l2ds(path) / lam ** 1.5)
    assert max(consts) / min(consts) <= 1.10


def test_ac14_zigzag_decay(zigzag_lengths):
    q = zigzag_lengths["quotient"]
    assert q[8] < q[4] < q[2] < q[1]
    assert q[8] / q[1] <= 0.5


def test_ac15_symmetry_equivariance():
    initial = h.star(1.0, 0.3, 5, 64)
    cfg = h.FlowConfig(dt=0.05, t1=1.0)
    base_final = h.run_flow(initial, cfg).states[-1].vertices
    theta = math.radians(30.0)
    R = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    rotated_final = h.run_flow(h.PolyCurve(initial.vertices @ R.T), cfg)
    assert np.abs(base_final @ R.T
                  - rotated_final.states[-1].vertices).max() <= 20 * 1e-12
    shifted_final = h.run_flow(h.PolyCurve(np.roll(initial.vertices, -7, axis=0)), cfg)
    assert np.abs(np.roll(base_final, -7, axis=0)
                  - shifted_final.states[-1].vertices).max() <= 1e-12
    reversed_final = h.run_flow(h.PolyCurve(initial.vertices[::-1]), cfg)
    assert np.abs(base_final[::-1]
                  - reversed_final.states[-1].vertices).max() <= 1e-12


def test_ac16_reshaping_power_runs_out(square_trajs):
    drops = {}
    for side in (1.0, 4.0):
        recs = square_trajs[side].records
        drops[side] = (recs[0].iso_ratio - recs[-1].iso_ratio) / recs[0].iso_ratio
    assert drops[4.0] > drops[1.0]
