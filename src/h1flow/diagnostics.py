"""Per-state scalar monitors and trajectory-level verdicts.

The record bundles every monitored quantity for one curve at one time; its
fields, in order, are the CSV columns. Its L2(ds) norm of the curve and its
squared H1(ds) norm of the velocity come from the gradient module's inner
products. The monotonicity report turns the a-priori decay statements into
pass/fail verdicts: a monitor passes when no step raises it by more than
_SLACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .curves import PolyCurve, _tangent_curvature, arc_data, chord_arc_min, signed_area, sup_norm
from .gradient import flow_velocity, l2ds_inner


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


CSV_COLUMNS = tuple(field.name for field in fields(DiagnosticsRecord))


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


def embeddedness_condition(curve: PolyCurve) -> EmbeddednessCheck:
    """Chord-arc minimum against the sufficient-condition threshold
    (L^2 sqrt(2 + |X|_inf^2) / 4) * exp(same); ok when the minimum clears it.
    """
    ad = arc_data(curve)
    lhs = chord_arc_min(ad).value
    L = ad.length
    a = L * L * math.sqrt(2.0 + sup_norm(ad) ** 2) / 4.0
    rhs = a * math.exp(a) if a < 700.0 else math.inf
    return EmbeddednessCheck(ok=lhs > rhs, lhs=lhs, rhs=rhs)


@np.errstate(over="ignore", invalid="ignore")
def record(curve: PolyCurve, t: float) -> DiagnosticsRecord:
    """All monitors for one state, from one measurement of its geometry. A
    curve that arc_data accepts can still overflow the squares behind the
    norms, the area and the gradient norm; they are kept as inf or nan, and
    no RuntimeWarning is raised."""
    ad = arc_data(curve)
    area = signed_area(ad)
    # the enclosed area |A|: the ratio and the deficit are orientation-blind
    enclosed = abs(area)
    L2 = ad.length * ad.length
    iso = L2 / (4.0 * math.pi * enclosed) if enclosed != 0.0 else math.inf
    max_k = float(np.abs(_tangent_curvature(ad)[1]).max())
    try:
        rescaled_k = math.exp(-t) * max_k
    except OverflowError:  # e^-t past the double range: the product is inf
        rescaled_k = math.inf
    emb = embeddedness_condition(ad)
    # X_u in the uniform parametrization, |S^1| = 1
    xu = math.sqrt(ad.n * (ad.edge_lengths ** 2).sum())
    return DiagnosticsRecord(
        t=float(t),
        length=ad.length,
        area=area,
        iso_ratio=iso,
        deficit=L2 - 4.0 * math.pi * enclosed,
        linf=sup_norm(ad),
        l2ds=math.sqrt(l2ds_inner(ad, ad.vertices, ad.vertices)),
        xu_l2=xu,
        min_edge=float(ad.edge_lengths.min()),
        chord_arc_min=emb.lhs,
        max_abs_k=max_k,
        rescaled_max_k=rescaled_k,
        grad_sq_h1ds=flow_velocity(ad).grad_norm_sq_h1ds,
        embeddedness_ok=emb.ok,
    )


_MONOTONE_FIELDS = ("length", "linf", "xu_l2", "l2ds")
# the largest single-step rise a non-increasing monitor may show
_SLACK = 1e-6


def monotonicity_report(records) -> MonotonicityReport:
    """Non-increase verdicts for length, |X|_inf, |X_u|_L2, |X|_L2(ds), plus
    reported (not asserted) sups for the profile-deficit ratio and rescaled
    curvature. Worst violation is the largest single-step increase; a
    monitor passes when it is at most _SLACK.
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
                passed=violation <= _SLACK,
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
