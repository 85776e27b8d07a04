"""Per-layer spans recorded from outside the program.

The tracer replaces each listed public h1flow function with a wrapper at
every module binding that refers to it, because ``flow``, ``diagnostics``,
``gradient`` and ``cli`` import these names directly. A wrapper keeps one
span per call in memory (name, start, end, parent) and may add to a few
counters that are measured where the work happens. The program's source is
not touched.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import h1flow as h

# (module, function) pairs; the layer name is "<module>.<function>". The
# hooks below read the arguments positionally, as h1flow passes them.
LAYERS = (
    ("kernel", "kernel_matrix"),
    ("gradient", "flow_velocity"),
    ("gradient", "h1ds_inner"),
    ("diagnostics", "record"),
    ("curves", "arc_data"),
    ("curves", "frame_data"),
    ("curves", "chord_arc_min"),
    ("flow", "run_flow"),
    ("flow", "asymptotic_profile"),
    ("output", "write_diagnostics_csv"),
    ("output", "write_svg"),
    ("output", "write_trajectory_json"),
    ("output", "read_diagnostics_csv"),
    ("paths", "path_length_l2ds"),
    ("paths", "zigzag_path"),
    ("shapes", "generate"),
)
NAMES = [f"{m}.{f}" for m, f in LAYERS] + ["lambertw.radius"]


def _kernel_bytes(counters, args, result):
    # computed, not measured: one n x n float64 matrix per assembly
    counters["kernel.kernel_matrix.computed_bytes"] += 8 * args[0].n ** 2


def _flow_steps(counters, args, result):
    cfg = args[1]
    counters["flow.steps"] += round(abs(result.times[-1] - cfg.t0) / cfg.dt)
    counters["states"] += len(result.states)


def _path_frames(counters, args, result):
    counters["states"] += len(args[0].frames) - 1


def _written_bytes(counters, args, result):
    counters["output.bytes"] += os.path.getsize(args[1])


HOOKS = {
    "kernel.kernel_matrix": _kernel_bytes,
    "flow.run_flow": _flow_steps,
    "paths.path_length_l2ds": _path_frames,
    "output.write_diagnostics_csv": _written_bytes,
    "output.write_svg": _written_bytes,
    "output.write_trajectory_json": _written_bytes,
}


class Tracer:
    """Wrappers for every binding of the listed layers.

    ``install()`` puts the wrappers in place and ``remove()`` restores the
    originals, so traced and untraced runs can alternate in one process.
    ``take()`` folds the spans recorded since its last call into per-layer
    totals."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.stack = []
        self.counters = Counter()
        self.bindings = []   # (owner, attribute, original, wrapper)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "h1flow" or name.startswith("h1flow."))]
        for mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"h1flow.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self.bindings.append((mod, attr, original, wrapper))
        # a method has a single binding, on its class
        radius = h.CircleSolution.radius
        self.bindings.append((h.CircleSolution, "radius", radius,
                              self._wrap("lambertw.radius", radius)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def take(self):
        """Return (calls, self seconds, counters) per layer since the last
        call, and forget the spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        counters = Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return calls, self_s, counters
