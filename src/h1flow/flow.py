"""Time integration of the flow, trajectory bookkeeping, profile rescaling.

The kernel depends on the evolving arclengths, so every step and every RK
stage applies it afresh to its own state, in O(n) by exponential sweeps;
nothing is cached across steps. Forward runs shrink, and the continuum
solution exists for all time in both directions, so negative steps are
ordinary.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import PolyCurve, arc_data, total_length
from .diagnostics import record
from .errors import ConstantMapGuard, DegenerateCurve
from .gradient import velocity


class Termination(enum.Enum):
    COMPLETED = "completed"
    LENGTH_GUARD = "length_guard"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class FlowConfig:
    dt: float
    t1: float
    t0: float = 0.0
    method: str = "euler"
    min_length_guard: float = 1e-8
    record_every: int = 1
    rescale_profile: bool = False

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.dt > 2.0:
            raise ValueError(f"dt = {self.dt} is unstable (the linearization has unit rate)")
        if self.dt > 0.5:
            warnings.warn(f"dt = {self.dt} is large for forward Euler; expect drift", stacklevel=2)
        if self.method not in ("euler", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if abs(self.t1 - self.t0) / self.dt > 1e8:
            raise ValueError("horizon / dt exceeds the step-count sanity bound")
        if not (isinstance(self.record_every, int) and self.record_every >= 1):
            raise ValueError("record_every must be a positive integer")
        if not self.min_length_guard >= 0.0:
            raise ValueError("min_length_guard must be non-negative")

    @property
    def steps(self) -> int:
        return int(round(abs(self.t1 - self.t0) / self.dt))

    @property
    def signed_step(self) -> float:
        return math.copysign(self.dt, self.t1 - self.t0)


@dataclass(frozen=True)
class Trajectory:
    times: tuple
    states: tuple
    records: tuple
    termination: Termination

    def __len__(self) -> int:
        return len(self.times)


def step_euler(curve: PolyCurve, h: float) -> PolyCurve:
    """X + h V(X). h may be negative."""
    return PolyCurve(_advance(curve, h, "euler"))


def step_rk4(curve: PolyCurve, h: float) -> PolyCurve:
    """Classical 4-stage step; each stage applies the kernel of its own curve."""
    return PolyCurve(_advance(curve, h, "rk4"))


def _advance(curve: PolyCurve, h: float, method: str) -> np.ndarray:
    """One step to bare vertices, unvalidated so that non-finite results
    surface as data instead of exceptions. An RK4 stage state whose
    coordinates or length are not finite ends the step with a NaN result,
    before any velocity is evaluated on it."""
    X = curve.vertices
    k1 = velocity(curve)
    if method == "euler":
        return X + h * k1
    ks = [k1]
    for c in (0.5 * h, 0.5 * h, h):
        k = _stage_velocity(X + c * ks[-1])
        if k is None:
            return np.full_like(X, np.nan)
        ks.append(k)
    k1, k2, k3, k4 = ks
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_velocity(Y: np.ndarray) -> np.ndarray | None:
    """Velocity at an RK4 stage state, or None when the state's coordinates
    or its length are not finite (its kernel apply would be NaN)."""
    if not np.isfinite(Y).all():
        return None
    with np.errstate(over="ignore"):
        ad = arc_data(PolyCurve(Y))
    return velocity(ad) if math.isfinite(ad.length) else None


def _profile(state: PolyCurve, t: float) -> PolyCurve:
    """Y(t) = e^t (X(t) - X(t, vertex 0)); vertex 0 of Y is the origin."""
    return PolyCurve(math.exp(t) * (state.vertices - state.vertices[0]))


def run_flow(initial: PolyCurve, cfg: FlowConfig) -> Trajectory:
    """Integrate from t0 toward t1, recording every record_every steps plus the
    endpoints. Stops early when the length falls under the guard (LengthGuard)
    or a step produces non-finite coordinates (NumericalFailure). With
    rescale_profile, the recorded states are those of asymptotic_profile.
    """
    if total_length(initial) <= cfg.min_length_guard:
        raise DegenerateCurve("initial length at or below the guard")
    h = cfg.signed_step
    nsteps = cfg.steps

    # a finite state can still overflow its norms; the record keeps them as
    # inf, and the loop below stops at the first non-finite length
    with np.errstate(over="ignore"):
        ad = arc_data(initial)
        first = _profile(initial, cfg.t0) if cfg.rescale_profile else initial
        recs = [record(first if cfg.rescale_profile else ad, cfg.t0)]
    times = [cfg.t0]
    states = [first]
    termination = Termination.COMPLETED

    for k in range(1, nsteps + 1):
        try:
            X = _advance(ad, h, cfg.method)
        except (FloatingPointError, DegenerateCurve, ConstantMapGuard):
            # a collapsed edge in an RK4 stage, a length under the kernel
            # guard (reachable with min_length_guard = 0), or an error state
            # set to "raise"; non-finite stage states come back as NaN
            termination = Termination.NUMERICAL_FAILURE
            break
        t = cfg.t0 + k * h
        if not np.isfinite(X).all():
            termination = Termination.NUMERICAL_FAILURE
            break
        state = PolyCurve(X)
        with np.errstate(over="ignore"):
            try:
                ad = arc_data(state)
            except DegenerateCurve:
                # no velocity on a collapsed edge: the run ends here
                short = total_length(state) <= cfg.min_length_guard
                termination = Termination.LENGTH_GUARD if short else Termination.NUMERICAL_FAILURE
                break
        if not math.isfinite(ad.length):
            # finite coordinates can still overflow the edge norms; the
            # next velocity would be NaN, so the run has already failed
            termination = Termination.NUMERICAL_FAILURE
            break
        guard = ad.length <= cfg.min_length_guard
        if guard:
            termination = Termination.LENGTH_GUARD
            if ad.length < 1e-12:
                break
        if guard or k % cfg.record_every == 0 or k == nsteps:
            if cfg.rescale_profile:
                state = _profile(state, t)
            try:
                with np.errstate(over="ignore"):
                    rec = record(state if cfg.rescale_profile else ad, t)
            except (DegenerateCurve, ConstantMapGuard):
                # recorded states must be immersed and longer than the kernel
                # guard; otherwise the step has left the well-posed regime
                # (at the length guard: drop the state)
                if not guard:
                    termination = Termination.NUMERICAL_FAILURE
                break
            times.append(t)
            states.append(state)
            recs.append(rec)
        if guard:
            break

    return Trajectory(
        times=tuple(times),
        states=tuple(states),
        records=tuple(recs),
        termination=termination,
    )


def asymptotic_profile(traj: Trajectory) -> Trajectory:
    """Replace each state X(t) by Y(t) = e^t (X(t) - X(t, vertex 0)) and
    recompute its diagnostics. Vertex 0 of every profile state is the origin."""
    states = []
    recs = []
    for t, state in zip(traj.times, traj.states):
        prof = _profile(state, t)
        states.append(prof)
        recs.append(record(prof, t))
    return Trajectory(
        times=traj.times,
        states=tuple(states),
        records=tuple(recs),
        termination=traj.termination,
    )


def trajectory_h1ds_length(traj: Trajectory, return_partials: bool = False):
    """Left-endpoint quadrature of the H1(ds) speed over the recorded times:
    sum_k |V(t_k)|_H1(ds) (t_{k+1} - t_k). The speed is sqrt(grad_sq_h1ds)."""
    times = np.asarray(traj.times)
    speeds = np.array([math.sqrt(r.grad_sq_h1ds) for r in traj.records])
    if len(times) < 2:
        raise ValueError("need at least 2 recorded times")
    increments = speeds[:-1] * np.abs(np.diff(times))
    partials = np.cumsum(increments)
    total = float(partials[-1])
    if return_partials:
        return total, partials
    return total
