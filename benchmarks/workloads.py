"""The four seeded workloads of the h1flow benchmark.

Each workload turns a seed into inputs, runs them through the public h1flow
API, and checks the outputs. Why each workload exists is recorded in
BENCHMARK.json at the repository root. Every call into h1flow goes through
the package attribute (``h.run_flow``), so that the tracer's rebinding of the
package names reaches these calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import h1flow as h
from h1flow import cli

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def _rotated(curve, angle: float):
    c, s = math.cos(angle), math.sin(angle)
    return h.PolyCurve(curve.vertices @ np.array([[c, s], [-s, c]]))


def _completed(traj, label: str) -> list:
    if traj.termination is not h.Termination.COMPLETED:
        return [f"{label}: terminated {traj.termination.value}"]
    return []


def _monotone(traj, label: str) -> list:
    report = h.monotonicity_report(traj)
    return [f"{label}: {v.name} rose by {v.worst_violation:.3g}"
            for v in report.verdicts if not v.passed]


def circle_oracle_error(runs) -> float:
    """Largest |mean radius / exact radius - 1| over every recorded state of
    (trajectory, CircleSolution) pairs. The circles are centred at the origin."""
    worst = 0.0
    for traj, sol in runs:
        for t, state in zip(traj.times, traj.states):
            mean_r = float(np.linalg.norm(state.vertices, axis=1).mean())
            worst = max(worst, abs(mean_r / sol.radius(t) - 1.0))
    return worst


class EllipseStep:
    """2:1 ellipse, n = 512, forward Euler, dt = 1e-3, two records per run."""

    name = "ellipse-step"
    n = 512
    dt = 1e-3
    steps = 100

    def make_inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        aspect = 2.0 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        spec = h.GeneratorSpec(kind="ellipse", n=self.n, size=1.0, size_b=1.0 / aspect)
        return _rotated(h.generate(spec), angle)

    def warm_up(self, curve) -> None:
        h.flow_velocity(curve)

    def run(self, curve):
        cfg = h.FlowConfig(dt=self.dt, t1=self.steps * self.dt, record_every=self.steps)
        return h.run_flow(curve, cfg)

    def check(self, curve, traj):
        return _completed(traj, "ellipse") + _monotone(traj, "ellipse"), None


class StarRecord:
    """Lobed star, n = 2048, through the CLI with every output switched on."""

    name = "star-record"
    n = 2048
    dt = 1e-2
    steps = 3

    def make_inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        amplitude = float(rng.uniform(0.2, 0.35))
        lobes = int(rng.integers(3, 8))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        paths = {ext: OUT_DIR / f"star.{ext}" for ext in ("csv", "svg", "json")}
        # a file left by an earlier run must not stand in for this run's output
        for path in paths.values():
            path.unlink(missing_ok=True)
        argv = [
            "flow", "--shape", "star", "--amplitude", repr(amplitude),
            "--lobes", str(lobes), "--n", str(self.n), "--dt", repr(self.dt),
            "--steps", str(self.steps), "--record-every", "1", "--rescale",
            "--out-csv", str(paths["csv"]), "--out-svg", str(paths["svg"]),
            "--out-json", str(paths["json"]),
        ]
        return argv, paths, amplitude, lobes

    def warm_up(self, inputs) -> None:
        _, _, amplitude, lobes = inputs
        h.flow_velocity(h.star(1.0, amplitude, lobes, self.n))

    def run(self, inputs):
        argv, paths, _, _ = inputs
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(argv)
        records = h.read_diagnostics_csv(paths["csv"])
        return code, stdout.getvalue(), records

    def check(self, inputs, out):
        _, paths, _, _ = inputs
        code, stdout, records = out
        problems = []
        if code != 0 or not stdout.startswith("termination=completed "):
            problems.append(f"star: exit {code}, {stdout.strip()!r}")
        empty = [ext for ext, path in paths.items()
                 if not path.is_file() or path.stat().st_size == 0]
        if empty:
            return problems + [f"star: no {', '.join(empty)} output written"], None
        with open(paths["json"]) as fh:
            expected = json.load(fh)["records"]
        # the JSON holds the same records as shortest-repr floats, so the CSV
        # read-back must equal it exactly, field by field
        got = [{c: getattr(r, c) for c in h.CSV_COLUMNS} for r in records]
        if got != expected:
            problems.append("star: CSV read-back differs from the JSON records")
        if len(records) != self.steps + 1:
            problems.append(f"star: {len(records)} records, expected {self.steps + 1}")
        return problems, None


class CircleSmall:
    """Seeded-radius circles, n = 64, RK4, dt = 1e-2, to t = +1 and t = -1."""

    name = "circle-small"
    n = 64
    dt = 1e-2
    horizon = 1.0
    record_every = 10
    base_radii = (0.5, 0.75, 1.0, 1.25, 1.5)
    oracle_bound = 5e-3

    def make_inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        jitter = 1.0 + 0.005 * rng.uniform(-1.0, 1.0, len(self.base_radii))
        radii = [float(r) for r in np.asarray(self.base_radii) * jitter]
        return [(r, h.generate(h.GeneratorSpec(kind="circle", n=self.n, size=r))) for r in radii]

    def warm_up(self, batch) -> None:
        h.flow_velocity(batch[0][1])

    def run(self, batch):
        out = []
        for r, curve in batch:
            for t1 in (self.horizon, -self.horizon):
                cfg = h.FlowConfig(dt=self.dt, t1=t1, method="rk4",
                                   record_every=self.record_every)
                out.append((r, t1, h.run_flow(curve, cfg)))
        return out

    def check(self, batch, out):
        problems = []
        runs = []
        for r, t1, traj in out:
            label = f"circle r={r:.4f} t1={t1:+g}"
            problems += _completed(traj, label)
            if t1 > 0:
                problems += _monotone(traj, label)
            runs.append((traj, h.CircleSolution(r)))
        err = circle_oracle_error(runs)
        if not err <= self.oracle_bound:
            problems.append(f"circle: oracle error {err:.3g} above {self.oracle_bound:g}")
        return problems, err


class ZigzagPaths:
    """ac14 family: n = 8192 circle translated over 65 frames, teeth 1, 2, 4, 8."""

    name = "zigzag-paths"
    n = 8192
    frames = 65
    teeth = (1, 2, 4, 8)

    def make_inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        radius = 1.0 + 0.02 * rng.uniform(-1.0, 1.0)
        dist = 12.0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        ring = h.generate(h.GeneratorSpec(kind="circle", n=self.n, size=radius))
        step = dist * np.array([math.cos(angle), math.sin(angle)])
        frames = tuple(h.PolyCurve(ring.vertices + tk * step)
                       for tk in np.linspace(0.0, 1.0, self.frames))
        return h.CurvePath(frames=frames, mode="full")

    def warm_up(self, base) -> None:
        h.path_length_l2ds(base)

    def run(self, base):
        quotient, full = {}, {}
        for teeth in self.teeth:
            z = h.zigzag_path(base, teeth)
            quotient[teeth] = h.path_length_l2ds(h.as_mode(z, "quotient"))
            full[teeth] = h.path_length_l2ds(z)
        return quotient, full

    def check(self, base, out):
        quotient, full = out
        q = [quotient[t] for t in self.teeth]
        problems = []
        if not all(a > b for a, b in zip(q, q[1:])):
            problems.append(f"zigzag: quotient lengths not strictly decreasing: {q}")
        if not all(math.isfinite(v) and v > 0.0 for v in full.values()):
            problems.append(f"zigzag: bad full lengths {full}")
        return problems, None


WORKLOADS = {w.name: w for w in (EllipseStep(), StarRecord(), CircleSmall(), ZigzagPaths())}


def oracle_probe(seed: int) -> float:
    """Circle-oracle error of one seeded circle from the circle-small batch.

    Workloads without an exact solution run this once, outside the timed
    runs, so that every workload reports the accuracy metric."""
    w = WORKLOADS["circle-small"]
    batch = w.make_inputs(seed)[2:3]
    problems, err = w.check(batch, w.run(batch))
    if problems:
        raise RuntimeError("; ".join(problems))
    return err
