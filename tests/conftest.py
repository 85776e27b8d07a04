"""Session fixtures for the expensive reference runs.

Everything here is deterministic, so one run per session is safe to share
across test modules. The ellipse t=8 run dominates the suite's wall time.
"""
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import h1flow as h
import h1flow.curves
import h1flow.flow

# the gate's refusal of a curve outside its coordinate range, as a pattern
RANGE_REFUSAL = r"curve coordinates outside the range \|X\| < 2\^300$"
# the largest radius of a circle inside that range, and the smallest outside
BELOW_RANGE, AT_RANGE = float(np.nextafter(2.0 ** 300, 0.0)), 2.0 ** 300


def profile_of(traj):
    """The trajectory with each state X(t) replaced by its profile Y(t) and
    its record recomputed, as run_flow keeps them with rescale_profile."""
    kept = [h1flow.flow._kept(state, t, True) for t, state in zip(traj.times, traj.states)]
    return replace(traj, states=tuple(s for s, _ in kept), records=tuple(r for _, r in kept))


@pytest.fixture(scope="session")
def unit_circle_oracle():
    return h.CircleSolution(1.0)


@pytest.fixture(scope="session")
def circle_t2():
    """Forward euler unit circle to t=2, plus the wall time of the run."""
    t0 = time.perf_counter()
    traj = h.run_flow(
        h.circle(1.0, 256), h.FlowConfig(dt=1e-3, t1=2.0, record_every=100)
    )
    return traj, time.perf_counter() - t0


# One RK4 config for the unit-circle pair below, so the two runs share
# their recorded times by construction.
_CIRCLE_RK4_T2 = h.FlowConfig(dt=1e-2, t1=2.0, method="rk4", record_every=20)


@pytest.fixture(scope="session")
def circle_rk4_t2():
    """RK4 unit circle to t=2 at n=256, recorded every 0.2.

    Paired with `circle_rk4_t2_n128`: the polygon's radius carries an n^-2
    bias (~3.2e-5 here) that the n=128/256 Richardson value removes, so the
    oracle comparison sees the time integrator rather than the polygon.
    """
    return h.run_flow(h.circle(1.0, 256), _CIRCLE_RK4_T2)


@pytest.fixture(scope="session")
def circle_rk4_t2_n128():
    """The `circle_rk4_t2` run at n=128, same config.

    Exists only to remove the n^-2 polygon bias from the RK4 oracle
    comparison by Richardson extrapolation against the n=256 run.
    """
    return h.run_flow(h.circle(1.0, 128), _CIRCLE_RK4_T2)


@pytest.fixture(scope="session")
def circle_back():
    """Backward run to t=-1; the circle grows."""
    return h.run_flow(
        h.circle(1.0, 256), h.FlowConfig(dt=1e-3, t1=-1.0, record_every=100)
    )


@pytest.fixture(scope="session")
def circle_t4():
    return h.run_flow(
        h.circle(1.0, 256), h.FlowConfig(dt=1e-3, t1=4.0, record_every=100)
    )


@pytest.fixture(scope="session")
def circle_t4_profile(circle_t4):
    return profile_of(circle_t4)


@pytest.fixture(scope="session")
def square_trajs():
    """Sides 1, 2, 4 run for 50 coarse steps; the trio the monotonicity and
    reshaping checks compare."""
    return {
        side: h.run_flow(h.square(side, 200), h.FlowConfig(dt=0.2, t1=10.0))
        for side in (1.0, 2.0, 4.0)
    }


@pytest.fixture(scope="session")
def barbell_traj():
    return h.run_flow(h.barbell(1.0, 0.25, 200), h.FlowConfig(dt=0.1, t1=7.0))


@pytest.fixture(scope="session")
def square_profile():
    """Rescaled square run; records every half time unit."""
    return h.run_flow(
        h.square(1.0, 200),
        h.FlowConfig(dt=1e-2, t1=6.0, method="rk4", record_every=50,
                     rescale_profile=True),
    )


@pytest.fixture(scope="session")
def ellipse_short():
    """100 tiny steps of the 2:1 ellipse, recorded every step."""
    return h.run_flow(h.ellipse(1.0, 0.5, 512), h.FlowConfig(dt=1e-4, t1=0.01))


@pytest.fixture(scope="session")
def ellipse_t8():
    return h.run_flow(
        h.ellipse(1.0, 0.5, 512), h.FlowConfig(dt=1e-3, t1=8.0, record_every=20)
    )


@pytest.fixture(scope="session")
def ellipse_t8_profile(ellipse_t8):
    return profile_of(ellipse_t8)


@pytest.fixture(scope="session")
def zigzag_lengths():
    """Quotient and full path lengths of the zigzag family over a
    circle-to-translated-circle base (65 frames, distance 12)."""
    n, dist, m = 8192, 12.0, 65
    ring = h.circle(1.0, n)
    frames = tuple(
        h.PolyCurve(ring.vertices + np.array([dist * tk, 0.0]))
        for tk in np.linspace(0.0, 1.0, m)
    )
    base = h.CurvePath(frames=frames, mode="full")
    out = {"base_full": h.path_length_l2ds(base)}
    quot, full, sup = {}, {}, {}
    for teeth in (1, 2, 4, 8):
        z = h.zigzag_path(base, teeth)
        quot[teeth] = h.path_length_l2ds(h.as_mode(z, "quotient"))
        full[teeth] = h.path_length_l2ds(z)
        sup[teeth] = normal_sup_bound(z.frames)
        del z
    out["quotient"] = quot
    out["full"] = full
    out["normal_sup_bound"] = sup
    return out


def normal_sup_bound(frames):
    """B_q = sqrt(2 tanh(L_min / 2)) sum_k max_i |<X_{k+1,i} - X_{k,i}, N_i>|,
    N the unit normal of the left frame and L_min the least frame length:
    the H1(ds) lower bound of a normal motion, sup |h|^2 <= (coth(L/2) / 2)
    |h|^2_H1, summed over the frame differences. Each frame is formed once."""
    total, lmin = 0.0, math.inf
    for left, right in itertools.pairwise(frames):
        (tx, ty), _ = h1flow.curves.frame_data(left)
        d = right.vertices - left.vertices
        total += np.abs(d[:, 1] * tx - d[:, 0] * ty).max()
        lmin = min(lmin, h.arc_data(left).length, h.arc_data(right).length)
    return math.sqrt(2.0 * math.tanh(lmin / 2.0)) * total
