"""Per-state scalar monitors and trajectory-level verdicts.

The record bundles every monitored quantity for one curve at one time; the
CSV emitter elsewhere writes them in a fixed column order. The monotonicity
report turns the a-priori decay statements into pass/fail verdicts with an
explicit slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    PolyCurve,
    arc_data,
    chord_arc_min,
    frame_data,
    norms,
    signed_area,
    sup_norm,
)
from .gradient import VelocityField, flow_velocity

CSV_COLUMNS = (
    "t",
    "length",
    "area",
    "iso_ratio",
    "deficit",
    "linf",
    "l2ds",
    "xu_l2",
    "min_edge",
    "chord_arc_min",
    "max_abs_k",
    "rescaled_max_k",
    "grad_sq_h1ds",
    "embeddedness_ok",
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    length: float
    area: float
    iso_ratio: float
    deficit: float
    linf: float
    l2ds: float
    xu_l2: float
    min_edge: float
    chord_arc_min: float
    max_abs_k: float
    rescaled_max_k: float
    grad_sq_h1ds: float
    embeddedness_ok: bool


@dataclass(frozen=True)
class EmbeddednessCheck:
    ok: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class MonitorVerdict:
    name: str
    worst_violation: float
    worst_index: int
    passed: bool


@dataclass(frozen=True)
class MonotonicityReport:
    verdicts: tuple
    deficit_sup_ratio: float
    rescaled_k_sup: float

    def verdict(self, name: str) -> MonitorVerdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def embeddedness_condition(curve: PolyCurve, _lhs: float | None = None) -> EmbeddednessCheck:
    """Chord-arc minimum against the sufficient-condition threshold
    (L^2 sqrt(2 + |X|_inf^2) / 4) * exp(same); ok when the minimum clears it.
    """
    lhs = chord_arc_min(curve).value if _lhs is None else _lhs
    L = arc_data(curve).length
    a = L * L * math.sqrt(2.0 + sup_norm(curve) ** 2) / 4.0
    rhs = a * math.exp(a) if a < 700.0 else math.inf
    return EmbeddednessCheck(ok=lhs > rhs, lhs=lhs, rhs=rhs)


def record(curve: PolyCurve, t: float, velocity_field: VelocityField | None = None) -> DiagnosticsRecord:
    """All monitors for one state. velocity_field, when given, must be this
    state's flow_velocity; passing it saves computing it again here.
    """
    ad = arc_data(curve)
    area = signed_area(curve)
    iso = ad.length ** 2 / (4.0 * math.pi * abs(area)) if area != 0.0 else math.inf
    fd = frame_data(curve)
    nm = norms(curve, curve.vertices)
    edge_min = float(ad.edge_lengths.min())
    ca = chord_arc_min(curve).value
    max_k = float(np.abs(fd.curvature).max())
    if velocity_field is None:
        velocity_field = flow_velocity(curve)
    emb = embeddedness_condition(curve, _lhs=ca)
    # X_u in the uniform parametrization, |S^1| = 1
    xu = math.sqrt(curve.n * (ad.edge_lengths ** 2).sum())
    return DiagnosticsRecord(
        t=float(t),
        length=ad.length,
        area=area,
        iso_ratio=iso,
        deficit=ad.length ** 2 - 4.0 * math.pi * area,
        linf=sup_norm(curve),
        l2ds=nm.l2_ds,
        xu_l2=xu,
        min_edge=edge_min,
        chord_arc_min=ca,
        max_abs_k=max_k,
        rescaled_max_k=math.exp(-t) * max_k,
        grad_sq_h1ds=velocity_field.grad_norm_sq_h1ds,
        embeddedness_ok=emb.ok,
    )


_MONOTONE_FIELDS = ("length", "linf", "xu_l2", "l2ds")


def monotonicity_report(records, slack: float = 1e-6) -> MonotonicityReport:
    """Non-increase verdicts for length, |X|_inf, |X_u|_L2, |X|_L2(ds), plus
    reported (not asserted) sups for the profile-deficit ratio and rescaled
    curvature. Worst violation is the largest single-step increase.
    """
    records = list(getattr(records, "records", records))
    if len(records) < 2:
        raise ValueError("need at least 2 records")
    verdicts = []
    for name in _MONOTONE_FIELDS:
        vals = np.array([getattr(r, name) for r in records])
        rises = np.diff(vals)
        worst = int(np.argmax(rises))
        violation = float(max(rises[worst], 0.0))
        verdicts.append(
            MonitorVerdict(
                name=name,
                worst_violation=violation,
                worst_index=worst + 1,
                passed=violation <= slack,
            )
        )
    d0 = records[0].deficit
    sup_d = max(r.deficit for r in records)
    ratio = sup_d / d0 if d0 != 0.0 else math.inf
    sup_k = max(r.rescaled_max_k for r in records)
    return MonotonicityReport(
        verdicts=tuple(verdicts),
        deficit_sup_ratio=float(ratio),
        rescaled_k_sup=float(sup_k),
    )
