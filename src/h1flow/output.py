"""Every file format of the package, read and written.

A curve is CSV (one x,y pair per line) or JSON ({"vertices": [[x, y], ...]});
a path goes out as JSON, its frames in the curve's form plus its mode, and
is not read back; a run goes out as diagnostics CSV, SVG and trajectory
JSON, its states in the curve's form.
All floats go out with 17 significant digits so that a read-back is
bit-exact; newlines are LF regardless of platform. A curve's points, in a
curve CSV or an SVG polygon, are formatted in one operation, on the Python
floats of one tolist() per curve. JSON goes out from a dict, as
the text of json.dumps, written one top-level value, or one item of a list
value, at a time: each piece goes through the C encoder, which json.dump
never uses, and the whole text is never held in memory.
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


def _points(vertices: np.ndarray, sep: str) -> str:
    """'x,y' per vertex as _fmt writes each coordinate, joined by sep, in one
    format operation on the Python floats of one tolist(): NumPy's float64
    is a float subclass, so the text is that of its scalars."""
    return sep.join(["%.17g,%.17g"] * len(vertices)) % tuple(vertices.ravel().tolist())


def _json_pieces(data):
    """The text of json.dumps(data) for a dict in pieces, each made by
    json.dumps: value by value, and a non-empty list value item by item."""
    sep = "{"
    for key, value in data.items():
        if isinstance(value, list) and value:
            # '"key": [', the key spelled as json.dumps coerces it
            item_sep = sep + json.dumps({key: []})[1:-2]
            for item in value:
                yield item_sep + json.dumps(item)
                item_sep = ", "
            yield "]"
        else:
            yield sep + json.dumps({key: value})[1:-1]
        sep = ", "
    yield "}" if data else "{}"


def write_json(data: dict, path) -> None:
    """The dict data as one line of JSON, the text of json.dumps(data), and a
    newline."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(_json_pieces(data))
        fh.write("\n")


def curve_to_json(curve: PolyCurve) -> dict:
    return {"vertices": curve.vertices.tolist()}


def _curve(vertices, source) -> PolyCurve:
    """PolyCurve(vertices); source names the vertices in an error."""
    try:
        return PolyCurve(vertices)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{source}: {exc}") from None


def write_curve(curve: PolyCurve, path) -> None:
    """x,y pairs, one per line, 17 significant digits, LF line ends."""
    with open(path, "w", newline="\n") as fh:
        fh.write(_points(curve.vertices, "\n") + "\n")


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
        if not isinstance(data, dict) or "vertices" not in data:
            raise UsageError(f'{path}: no "vertices" list')
        return _curve(data["vertices"], path)
    pairs = []
    for line, row in enumerate(csv.reader(text.splitlines()), 1):
        if not row:
            continue
        try:
            x, y = map(float, row)
        except ValueError:
            raise UsageError(f"{path}, line {line}: expected two numbers x,y") from None
        pairs.append([x, y])
    return _curve(pairs, path)


def path_to_json(path: CurvePath) -> dict:
    return {"frames": [curve_to_json(f) for f in path.frames], "mode": path.mode}


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


def _cell(name: str, raw: str):
    """One diagnostics CSV cell: the words true and false for embeddedness_ok,
    a float for every other column."""
    if name != "embeddedness_ok":
        return float(raw)
    if raw not in ("true", "false"):
        raise ValueError(f"embeddedness_ok must be true or false, got {raw!r}")
    return raw == "true"


def read_diagnostics_csv(path) -> list[DiagnosticsRecord]:
    """The records of a diagnostics CSV. A malformed header or row raises
    UsageError naming the file, and the line for a row."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise UsageError(f"{path}: unexpected diagnostics header")
        out = []
        for line, text in enumerate(fh, 2):
            if not text.strip():
                continue
            vals = text.strip().split(",")
            try:
                if len(vals) != len(CSV_COLUMNS):
                    raise ValueError(f"expected {len(CSV_COLUMNS)} cells, got {len(vals)}")
                out.append(DiagnosticsRecord(*map(_cell, CSV_COLUMNS, vals)))
            except ValueError as exc:
                raise UsageError(f"{path}, line {line}: {exc}") from None
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
        pts = _points(s.vertices, " ")
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
