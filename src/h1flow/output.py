"""CSV, SVG, and JSON emission for runs and paths.

All floats go out with 17 significant digits so that a read-back is
bit-exact; newlines are LF regardless of platform.
"""

from __future__ import annotations

import json

import numpy as np

from .diagnostics import CSV_COLUMNS, DiagnosticsRecord
from .flow import Trajectory


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_diagnostics_csv(records, path) -> None:
    records = list(getattr(records, "records", records))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            row = [
                _fmt(getattr(r, c)) if c != "embeddedness_ok" else ("true" if r.embeddedness_ok else "false")
                for c in CSV_COLUMNS
            ]
            fh.write(",".join(row) + "\n")


def read_diagnostics_csv(path) -> list[DiagnosticsRecord]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError("unexpected diagnostics header")
        out = []
        for line in fh:
            if not line.strip():
                continue
            vals = line.strip().split(",")
            kwargs = {}
            for name, raw in zip(CSV_COLUMNS, vals):
                kwargs[name] = (raw == "true") if name == "embeddedness_ok" else float(raw)
            out.append(DiagnosticsRecord(**kwargs))
    return out


def _lerp_color(f: float) -> str:
    # blue at the start of the run, red at the end
    r = int(round(255 * f))
    b = int(round(255 * (1.0 - f)))
    return f"#{r:02x}00{b:02x}"


def write_svg(states, path) -> None:
    """One SVG per run: each state a closed, unfilled polyline, colored from
    blue (first) to red (last); viewBox is the padded union bounding box."""
    states = list(getattr(states, "states", states))
    if not states:
        raise ValueError("no states to draw")
    allv = np.concatenate([s.vertices for s in states])
    lo = allv.min(axis=0)
    hi = allv.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * span.max()
    x0, y0 = lo - pad
    w, h = hi - lo + 2 * pad
    stroke_width = 0.004 * max(w, h)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">',
        # curves use mathematical orientation; flip the y axis for display
        f'<g transform="translate(0 {_fmt(y0 + h + y0)}) scale(1 -1)">',
    ]
    denom = max(len(states) - 1, 1)
    for k, s in enumerate(states):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in s.vertices)
        color = _lerp_color(k / denom)
        lines.append(
            f'<polygon points="{pts}" fill="none" stroke="{color}" stroke-width="{_fmt(stroke_width)}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def trajectory_to_json(traj: Trajectory) -> dict:
    return {
        "times": list(traj.times),
        "termination": traj.termination.value,
        "states": [{"vertices": s.vertices.tolist()} for s in traj.states],
        "records": [
            {c: getattr(r, c) for c in CSV_COLUMNS} for r in traj.records
        ],
    }


def write_trajectory_json(traj: Trajectory, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(trajectory_to_json(traj), fh)
        fh.write("\n")
