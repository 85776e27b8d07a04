"""Session fixtures for the expensive reference runs.

Everything here is deterministic, so one run per session is safe to share
across test modules. The ellipse t=8 run dominates the suite's wall time.
"""
import time

import numpy as np
import pytest

import h1flow as h
import h1flow.flow


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
    return h1flow.flow.asymptotic_profile(circle_t4)


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
    return h1flow.flow.asymptotic_profile(ellipse_t8)


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
    quot, full = {}, {}
    for teeth in (1, 2, 4, 8):
        z = h.zigzag_path(base, teeth)
        quot[teeth] = h.path_length_l2ds(h.as_mode(z, "quotient"))
        full[teeth] = h.path_length_l2ds(z)
        del z
    out["quotient"] = quot
    out["full"] = full
    return out
