"""Every file format of the package, read and written.

A curve is CSV (one x,y pair per line) or JSON ({"vertices": [[x, y], ...]});
a path is JSON, its frames in the curve's form plus its mode; a run goes out
as diagnostics CSV, SVG and trajectory JSON, its states in the curve's form.
All floats go out with 17 significant digits so that a read-back is
bit-exact; newlines are LF regardless of platform.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .curves import PolyCurve
from .diagnostics import CSV_COLUMNS, DiagnosticsRecord
from .errors import UsageError
from .flow import Trajectory
from .paths import CurvePath


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_json(data, path) -> None:
    """data as one line of JSON and a newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh)
        fh.write("\n")


def curve_to_json(curve: PolyCurve) -> dict:
    return {"vertices": curve.vertices.tolist()}


def _curve_from_json(data, source) -> PolyCurve:
    """The curve of a {"vertices": [[x, y], ...]} object; source names the
    object in an error."""
    if not isinstance(data, dict) or "vertices" not in data:
        raise UsageError(f'{source}: no "vertices" list')
    return PolyCurve(np.asarray(data["vertices"], dtype=float))


def write_curve(curve: PolyCurve, path) -> None:
    """x,y pairs, one per line, 17 significant digits, LF line ends."""
    with open(path, "w", newline="\n") as fh:
        for x, y in curve.vertices:
            fh.write(f"{_fmt(x)},{_fmt(y)}\n")


def read_curve(path) -> PolyCurve:
    """Read a curve from CSV (x,y per line) or JSON ({"vertices": [[x,y],...]}).
    A malformed file raises UsageError naming the file, and the line for CSV."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: {exc}") from None
        return _curve_from_json(data, path)
    pairs = []
    for line, row in enumerate(csv.reader(text.splitlines()), 1):
        if not row:
            continue
        try:
            x, y = map(float, row)
        except ValueError:
            raise UsageError(f"{path}, line {line}: expected two numbers x,y") from None
        pairs.append([x, y])
    return PolyCurve(np.array(pairs))


def path_to_json(path: CurvePath) -> dict:
    return {"frames": [curve_to_json(f) for f in path.frames], "mode": path.mode}


def path_from_json(data: dict) -> CurvePath:
    frames = tuple(_curve_from_json(f, f"frame {k}") for k, f in enumerate(data["frames"]))
    return CurvePath(frames=frames, mode=data.get("mode", "full"))


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
        "states": [curve_to_json(s) for s in traj.states],
        "records": [
            {c: getattr(r, c) for c in CSV_COLUMNS} for r in traj.records
        ],
    }


def write_trajectory_json(traj: Trajectory, path) -> None:
    write_json(trajectory_to_json(traj), path)
