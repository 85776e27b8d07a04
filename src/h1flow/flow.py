"""Time integration of the flow, trajectory bookkeeping, profile rescaling.

The kernel depends on the evolving arclengths, so every step and every RK
stage applies it afresh to its own state, in O(n) by exponential sweeps;
nothing is cached across steps. Forward runs shrink, and the continuum
solution exists for all time in both directions, so negative steps are
ordinary.

The flow acts on immersed curves of finite length. Every state it takes or
keeps, the initial one, each RK4 stage, each stepped one and each rescaled
profile, passes once through curves._measure. That makes the array it is
given a curve through curves._owned, marked read-only in place with no copy,
and returns its arclength data from arc_data, the one gate that accepts or
refuses every curve the library measures, the frames of paths among them: a
non-finite state, one outside the stated range |X| < 2^300, or a collapsed
edge. Inside that range a step does not overflow, so a stage or stepped
state that leaves it ends the run at the gate. Euler and RK4 are one
stage loop, _advance, over the table _TABLEAUX, internal to run_flow.
Every state a run keeps, and its record, come from _kept, which keeps the
measured vertices without a copy; when asked, it keeps the rescaled profile
that asymptotic_profile forms and measures from the state. Profiles are
public through FlowConfig(rescale_profile=True); asymptotic_profile, the
profile of one state, is not exported. A step of run_flow is one try: the
first refusal in it ends the run, at the length guard or as a numerical
failure.
"""

from __future__ import annotations

import enum
import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .curves import ArcData, PolyCurve, _measure, _owned, total_length
from .diagnostics import DiagnosticsRecord, record
from .errors import DegenerateCurve, RuntimeFailure
from .gradient import velocity

# method -> (step divisor d, a (c, w) pair per stage after the first): a
# stage's velocity k is taken at X + (c h) k_prev, and the step is
# X + (h / d) (k_1 + sum w k). The row holds d, not 1/d: h / 6 and h * (1/6)
# round differently.
_TABLEAUX = {"euler": (1.0, ()), "rk4": (6.0, ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)))}
METHODS = tuple(_TABLEAUX)


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
        for name in ("dt", "t0", "t1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.dt > 2.0:
            raise ValueError(f"dt = {self.dt} is unstable (the linearization has unit rate)")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.dt > 0.5 and self.method == "euler":
            # level 3: the caller of the dataclass-generated __init__
            warnings.warn(f"dt = {self.dt} is large for forward Euler; expect drift", stacklevel=3)
        if abs(self.t1 - self.t0) / self.dt > 1e8:
            raise ValueError("horizon / dt exceeds the step-count sanity bound")
        # a run ends at t1: the horizon is a whole number of steps, to within rounding
        whole = self.steps * self.dt
        if abs(whole - abs(self.t1 - self.t0)) > 1e-9 * whole + 8 * math.ulp(max(abs(self.t0), abs(self.t1))):
            raise ValueError(f"t1 - t0 = {self.t1 - self.t0} is not a whole number of steps of dt = {self.dt}")
        if not (isinstance(self.record_every, numbers.Integral) and self.record_every >= 1):
            raise ValueError("record_every must be a positive integer")
        if not self.min_length_guard >= 0.0:
            raise ValueError("min_length_guard must be non-negative")

    @property
    def steps(self) -> int:
        return int(round(abs(self.t1 - self.t0) / self.dt))

    @property
    def signed_step(self) -> float:
        return math.copysign(self.dt, self.t1 - self.t0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: tuple
    states: tuple
    records: tuple
    termination: Termination


def _advance(ad: ArcData, h: float, method: str) -> np.ndarray:
    """One step of the method's _TABLEAUX row from a measured state to bare
    vertices; h may be negative. Each further stage state X + (c h) k is
    measured, and so applies the kernel of its own curve, before its
    velocity is taken; the weighted velocities are summed left to right."""
    X = ad.vertices
    d, stages = _TABLEAUX[method]
    k = total = velocity(ad)
    for c, w in stages:
        k = velocity(_measure(X + c * h * k))
        total = total + w * k
    return X + (h / d) * total


def asymptotic_profile(curve: PolyCurve, t: float) -> ArcData:
    """The profile Y(t) = e^t (X(t) - X(t, vertex 0)) of the state X(t) at
    time t, whose vertex 0 is the origin, measured by _measure; a refusal,
    or an e^t past the double range, raises naming the profile and t. Not
    exported: FlowConfig(rescale_profile=True) is the public route."""
    X = curve.vertices
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _measure(math.exp(t) * (X - X[0]))
    except (OverflowError, FloatingPointError, DegenerateCurve) as exc:
        kind = DegenerateCurve if isinstance(exc, DegenerateCurve) else FloatingPointError
        raise kind(f"rescaled profile at t={t!r}: {exc}") from None


def _kept(curve: PolyCurve, t: float, rescale: bool) -> tuple[PolyCurve, DiagnosticsRecord]:
    """The state a run keeps at time t, with its record: with rescale the
    asymptotic_profile of the curve, whose record's rescaled_max_k is its
    own max_abs_k, as Y is already rescaled; otherwise the curve itself.
    Either way it is kept as a bare PolyCurve on the measured vertices, made
    by _owned with no copy."""
    if rescale:
        curve = asymptotic_profile(curve, t)
    rec = record(curve, t)
    if rescale:
        rec = replace(rec, rescaled_max_k=rec.max_abs_k)
    return _owned(curve.vertices), rec


def run_flow(initial: PolyCurve, cfg: FlowConfig) -> Trajectory:
    """Integrate from t0 toward t1, recording every record_every steps plus the
    endpoints. Stops early at a step whose state, an RK4 stage of it, or its
    kept state or record is refused: as LENGTH_GUARD when the stepped state
    is at or under the length guard (recorded if its record can be formed),
    as NUMERICAL_FAILURE otherwise. With rescale_profile, the recorded states
    are the profiles Y(t) = e^t (X(t) - X(t, vertex 0)) that
    asymptotic_profile forms; a profile outside the gate's range is refused
    like any state, as a numerical failure. An initial curve that _measure
    or _kept refuses raises its error, the range's refusal among them, and
    one at or below the length guard raises DegenerateCurve.
    """
    h = cfg.signed_step
    nsteps = cfg.steps
    rescale = cfg.rescale_profile

    ad = _measure(initial.vertices)
    if ad.length <= cfg.min_length_guard:
        raise DegenerateCurve("initial length at or below the guard")
    kept = [(cfg.t0, *_kept(ad, cfg.t0, rescale))]
    termination = Termination.COMPLETED

    short = False
    for k in range(1, nsteps + 1):
        t = cfg.t0 + k * h
        X = None  # the stepped vertices, until _measure accepts them
        try:
            X = _advance(ad, h, cfg.method)
            ad, X = _measure(X), None
            short = ad.length <= cfg.min_length_guard
            if short or k % cfg.record_every == 0 or k == nsteps:
                kept.append((t, *_kept(ad, t, rescale)))
            if short:
                termination = Termination.LENGTH_GUARD
                break
        except (FloatingPointError, RuntimeFailure) as exc:
            # no velocity on an RK4 stage, on the stepped state or on its kept
            # state; only a stepped state refused for a collapsed edge has
            # its length read again
            if X is not None and isinstance(exc, DegenerateCurve):
                short = total_length(_owned(X)) <= cfg.min_length_guard
            termination = Termination.LENGTH_GUARD if short else Termination.NUMERICAL_FAILURE
            break

    times, states, records = zip(*kept)
    return Trajectory(times=times, states=states, records=records, termination=termination)


def trajectory_h1ds_length(traj: Trajectory) -> float:
    """Left-endpoint quadrature of the H1(ds) speed over the recorded times:
    sum_k |V(t_k)|_H1(ds) (t_{k+1} - t_k), added in order of k. The speed is
    sqrt(grad_sq_h1ds)."""
    times = np.asarray(traj.times)
    speeds = np.array([math.sqrt(r.grad_sq_h1ds) for r in traj.records])
    if len(times) < 2:
        raise ValueError("need at least 2 recorded times")
    increments = speeds[:-1] * np.abs(np.diff(times))
    return float(np.cumsum(increments)[-1])
