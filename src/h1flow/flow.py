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

from .curves import PolyCurve, total_length
from .diagnostics import DiagnosticsRecord, record
from .errors import DegenerateCurve
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
    return PolyCurve(_advance(curve.vertices, h, "euler"))


def step_rk4(curve: PolyCurve, h: float) -> PolyCurve:
    """Classical 4-stage step; each stage applies the kernel of its own curve."""
    return PolyCurve(_advance(curve.vertices, h, "rk4"))


def _advance(X: np.ndarray, h: float, method: str) -> np.ndarray:
    """One raw step on bare vertex arrays; no validation, so that non-finite
    results surface as data instead of exceptions."""
    k1 = velocity(PolyCurve(X))
    if method == "euler":
        return X + h * k1
    k2 = velocity(PolyCurve(X + 0.5 * h * k1))
    k3 = velocity(PolyCurve(X + 0.5 * h * k2))
    k4 = velocity(PolyCurve(X + h * k3))
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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

    first = _profile(initial, cfg.t0) if cfg.rescale_profile else initial
    times = [cfg.t0]
    states = [first]
    # a finite state can still overflow its norms; the record keeps them as
    # inf, and the loop below stops at the first non-finite length
    with np.errstate(over="ignore"):
        recs = [record(first, cfg.t0)]
    termination = Termination.COMPLETED

    X = initial.vertices
    for k in range(1, nsteps + 1):
        try:
            X = _advance(X, h, cfg.method)
        except (FloatingPointError, ValueError):
            # rk4 stage states can reject non-finite velocities at construction;
            # DegenerateCurve (collapsed edges mid-step) is a ValueError too
            termination = Termination.NUMERICAL_FAILURE
            break
        t = cfg.t0 + k * h
        if not np.isfinite(X).all():
            termination = Termination.NUMERICAL_FAILURE
            break
        state = PolyCurve(X)
        with np.errstate(over="ignore"):
            L = total_length(state)
        if not math.isfinite(L):
            # finite coordinates can still overflow the edge norms; the
            # next velocity would be NaN, so the run has already failed
            termination = Termination.NUMERICAL_FAILURE
            break
        guard = L <= cfg.min_length_guard
        if guard:
            termination = Termination.LENGTH_GUARD
            if L < 1e-12:
                break
        if guard or k % cfg.record_every == 0 or k == nsteps:
            if cfg.rescale_profile:
                state = _profile(state, t)
            try:
                with np.errstate(over="ignore"):
                    rec = record(state, t)
            except DegenerateCurve:
                # recorded states must be immersed; a cusp here means the step
                # has left the well-posed regime (at the guard: drop the state)
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
