"""Interleaved in-process A/B of two h1flow source trees.

    python3 tools/abstep.py A_ROOT B_ROOT

Each root is a checkout whose src/h1flow is loaded under its own module
name, so both run in one process on the same inputs and one machine state.
The script first asserts that the two trees give bit-equal circle-small
trajectories: the n = 64 circles of radius 0.5, 0.75, 1, 1.25 and 1.5, RK4
with dt = 1e-2 to t = +1 and t = -1, a record every 10 steps. It then times
alternating blocks, A first in the 1st, 3rd, ... block and B in the others:
- 300 blocks per n = 64, 512 and 2048, each of 10 RK4 steps of a circle of
  radius 1, each step with the measurement of its stepped state
  (flow._advance, then flow._measure);
- 60 blocks per n = 64, 512 and 2048, each one chord_arc_min call on a
  measured circle of radius 1, after asserting that both trees return the
  same (value, i, j) on it;
- 40 blocks, each the ellipse-step run on its seed-1 ellipse, built as
  benchmarks/workloads.py builds it (a 2:1 ellipse of n = 512, rotated;
  forward Euler, dt = 1e-3, 100 steps, a record at each end), after
  asserting that both trees give bit-equal trajectories and records;
- 20 blocks, each a whole circle-small batch (all ten runs of run_flow);
- 20 blocks, each the zigzag-paths run on its seed-1 base path, built as
  benchmarks/workloads.py builds it (an n = 8192 circle translated over 65
  frames): the zigzag paths of 1, 2, 4 and 8 teeth and their lengths in
  both modes, after asserting that both trees give bit-equal lengths.
For each it prints the median of the per-block ratios B / A, their
quartiles, and the share of blocks in which B took less time. A ratio
below 1 means B is faster. Step and monitor times are the medians over
blocks.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

CIRCLE_RADII = (0.5, 0.75, 1.0, 1.25, 1.5)
SIZES, BLOCKS, STEPS, RUN_BLOCKS, CHORD_BLOCKS = (64, 512, 2048), 300, 10, 20, 60
ZIGZAG_BLOCKS, ZIGZAG_N, ZIGZAG_FRAMES, TEETH = 20, 8192, 65, (1, 2, 4, 8)
ELLIPSE_BLOCKS, ELLIPSE_N, ELLIPSE_DT, ELLIPSE_STEPS = 40, 512, 1e-3, 100


def load(root, name):
    """The h1flow package under root/src, imported as the module `name`;
    a package loaded earlier under that name goes first, submodules too."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    pkg = Path(root).resolve() / "src" / "h1flow"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def circle_small(h):
    """The ten circle-small trajectories of one tree."""
    return [h.run_flow(h.circle(r, 64),
                       h.FlowConfig(dt=1e-2, t1=t1, method="rk4", record_every=10))
            for r in CIRCLE_RADII for t1 in (1.0, -1.0)]


def _key(traj):
    return (traj.times, traj.termination.value, [s.vertices.tobytes() for s in traj.states],
            [repr(r) for r in traj.records])


def stepper(h, n, steps):
    """A callable that takes `steps` measured RK4 steps from a circle."""
    start = h.flow._measure(h.circle(1.0, n).vertices)

    def run():
        ad = start
        for _ in range(steps):
            ad = h.flow._measure(h.flow._advance(ad, 1e-2, "rk4"))
    return run


def monitor(h, n):
    """A callable that runs the chord-arc monitor on a measured circle."""
    ad = h.arc_data(h.circle(1.0, n))
    return lambda: h.chord_arc_min(ad)


def ellipse_step(h, n):
    """A callable that runs ellipse-step on its seed-1 ellipse with n
    vertices, as benchmarks/workloads.py builds and runs it, and returns
    the trajectory."""
    rng = np.random.default_rng(1)
    aspect = 2.0 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    spec = h.GeneratorSpec(kind="ellipse", n=n, size=1.0, size_b=1.0 / aspect)
    c, s = math.cos(angle), math.sin(angle)
    curve = h.PolyCurve(h.generate(spec).vertices @ np.array([[c, s], [-s, c]]))
    cfg = h.FlowConfig(dt=ELLIPSE_DT, t1=ELLIPSE_STEPS * ELLIPSE_DT, record_every=ELLIPSE_STEPS)
    return lambda: h.run_flow(curve, cfg)


def zigzag(h, n):
    """A callable that runs zigzag-paths on its seed-1 base path with n
    vertices, as benchmarks/workloads.py builds and runs it, and returns
    the quotient and the full lengths of the four zigzag paths."""
    rng = np.random.default_rng(1)
    radius = 1.0 + 0.02 * rng.uniform(-1.0, 1.0)
    dist = 12.0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    ring = h.generate(h.GeneratorSpec(kind="circle", n=n, size=radius))
    step = dist * np.array([math.cos(angle), math.sin(angle)])
    base = h.CurvePath(frames=tuple(h.PolyCurve(ring.vertices + tk * step)
                                    for tk in np.linspace(0.0, 1.0, ZIGZAG_FRAMES)))

    def run():
        lengths = []
        for teeth in TEETH:
            z = h.zigzag_path(base, teeth)
            lengths += [h.path_length_l2ds(h.as_mode(z, "quotient")), h.path_length_l2ds(z)]
        return lengths
    return run


def interleave(run_a, run_b, blocks):
    """Per-block wall times of run_a and run_b, alternating which goes first."""
    ta, tb = [], []
    for k in range(blocks):
        order = ((run_a, ta), (run_b, tb)) if k % 2 == 0 else ((run_b, tb), (run_a, ta))
        for run, times in order:
            t = time.perf_counter()
            run()
            times.append(time.perf_counter() - t)
    return ta, tb


def summarise(ta, tb):
    """Median ratio B / A with its quartiles, and B's share of faster blocks."""
    ratios = [b / a for a, b in zip(ta, tb)]
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {"ratio": med, "q1": q1, "q3": q3,
            "b_lower": sum(r < 1.0 for r in ratios) / len(ratios),
            "a_s": statistics.median(ta), "b_s": statistics.median(tb)}


def compare(root_a, root_b, sizes=SIZES, blocks=BLOCKS, steps=STEPS, run_blocks=RUN_BLOCKS,
            chord_blocks=CHORD_BLOCKS, zigzag_blocks=ZIGZAG_BLOCKS, zigzag_n=ZIGZAG_N,
            ellipse_blocks=ELLIPSE_BLOCKS, ellipse_n=ELLIPSE_N):
    """Assert bit-equal circle-small trajectories, then time the two trees;
    returns {label: summary} with labels "step n=N", "chord n=N",
    "ellipse-step", "circle-small" and "zigzag-paths"."""
    ha, hb = load(root_a, "h1flow_a"), load(root_b, "h1flow_b")
    for ta, tb in zip(circle_small(ha), circle_small(hb)):
        if _key(ta) != _key(tb):
            raise AssertionError("the two trees give different circle-small trajectories")
    out = {}
    for n in sizes:
        out[f"step n={n}"] = summarise(*interleave(stepper(ha, n, steps),
                                                   stepper(hb, n, steps), blocks))
    for n in sizes:
        run_a, run_b = monitor(ha, n), monitor(hb, n)
        if repr(run_a()) != repr(run_b()):
            raise AssertionError(f"the two trees give different chord-arc minima at n={n}")
        out[f"chord n={n}"] = summarise(*interleave(run_a, run_b, chord_blocks))
    if ellipse_blocks:
        run_a, run_b = ellipse_step(ha, ellipse_n), ellipse_step(hb, ellipse_n)
        if _key(run_a()) != _key(run_b()):
            raise AssertionError("the two trees give different ellipse-step trajectories")
        out["ellipse-step"] = summarise(*interleave(run_a, run_b, ellipse_blocks))
    if run_blocks:
        out["circle-small"] = summarise(*interleave(lambda: circle_small(ha),
                                                    lambda: circle_small(hb), run_blocks))
    if zigzag_blocks:
        run_a, run_b = zigzag(ha, zigzag_n), zigzag(hb, zigzag_n)
        if repr(run_a()) != repr(run_b()):
            raise AssertionError("the two trees give different zigzag-paths lengths")
        out["zigzag-paths"] = summarise(*interleave(run_a, run_b, zigzag_blocks))
    return out


def print_table(out, steps=STEPS) -> None:
    """The summaries of compare, a step (out of blocks of `steps` steps) and
    a monitor call in microseconds, an ellipse-step run, a circle-small
    batch and a zigzag-paths run in milliseconds."""
    print("circle-small trajectories: bit-equal")
    print(f"{'case':14} {'A':>10} {'B':>10} {'B/A':>7} {'q1':>7} {'q3':>7} {'B lower':>8}")
    for label, s in out.items():
        scale, unit = {"step": (1e6 / steps, "us"),
                       "chord": (1e6, "us")}.get(label.split()[0], (1e3, "ms"))
        print(f"{label:14} {scale * s['a_s']:8.1f}{unit} {scale * s['b_s']:8.1f}{unit} "
              f"{s['ratio']:7.3f} {s['q1']:7.3f} {s['q3']:7.3f} {s['b_lower']:8.0%}")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a_root")
    p.add_argument("b_root")
    args = p.parse_args(argv)
    print_table(compare(args.a_root, args.b_root))


if __name__ == "__main__":
    main()
