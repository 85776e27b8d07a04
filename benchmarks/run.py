#!/usr/bin/env python3
"""Benchmark of the h1flow library: one seeded workload per invocation.

    python3 benchmarks/run.py --workload ellipse-step --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports h1flow from ``src/``. The seed
fixes every input. The workload runs repeatedly for ``--seconds``, and every
run's outputs are checked.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``setup_s``
and ``peak_rss_mb`` come from fresh child processes of this script;
``run_s`` and ``cpu_s`` come from the repeated runs. ``--trace 1`` reports
the per-layer metrics: it alternates untraced runs with runs whose h1flow
layers are wrapped by tracer.py, and each pair's difference in wall time is
a sample of the tracing overhead.

Standard output holds an environment line and a table with median,
quartiles and sample count per metric. The last line is the result as one
JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_CHILDREN = 5   # fresh processes per run; the first also measures peak RSS
MIN_RUNS = 3         # per invocation, however long one run takes
CHILD_TIMEOUT_S = 60
# The machine's speed drifts with its other tenants' load, by up to 1.8x
# within minutes. Each timed interval is therefore bracketed by a fixed
# calibration routine that does not touch h1flow, and the end-to-end times
# are scaled to the speed at which that routine takes CAL_REF_S seconds.
CAL_REF_S = 0.025


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--rss", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def summary(values):
    """(median, first quartile, third quartile, count)."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return statistics.median(values), q1, q3, len(values)


def print_table(rows):
    print(f"{'metric':36} {'unit':14} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    for name, unit, values in rows:
        med, q1, q3, n = summary(values)
        print(f"{name:36} {unit:14} {med:12.6g} {q1:12.6g} {q3:12.6g} {n:4d}")


# --- environment -----------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "caches": _caches(),
    }


# --- measurement -----------------------------------------------------------

def calibration_s():
    """Seconds taken by a fixed NumPy routine that does not call h1flow:
    elementwise passes over a 120 x 120 array, then many small-array calls.
    Every temporary stays below glibc's initial 128 KiB mmap threshold; a
    larger one, once freed, would raise that threshold and change how the
    workload's own large temporaries are allocated."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal(120)
    v0 = rng.standard_normal(64)
    t0 = time.perf_counter()
    for _ in range(150):
        d = np.abs(a[:, None] - a[None, :])
        np.exp(-d, out=d).sum()
    v = v0
    for _ in range(600):
        v = 0.5 * np.roll(v, 1) + 0.5 * v0
        float(np.linalg.norm(v))
    return time.perf_counter() - t0


def speed():
    """CAL_REF_S over the calibration time: above 1 when the machine is faster
    than the reference speed."""
    return CAL_REF_S / calibration_s()


def run_once(w, seed, tracer=None, calibrate=True):
    """Generate inputs, time one run, check it. Returns a dict of measurements.
    Without ``calibrate`` the run allocates nothing beyond the workload's own."""
    unit = {"problems": [], "oracle": None}
    try:
        inputs = w.make_inputs(seed)
        before = speed() if calibrate else None
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        c0, t0 = time.process_time(), time.perf_counter()
        out = w.run(inputs)
        t1, c1 = time.perf_counter(), time.process_time()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        if calibrate:
            unit["speed"] = (before + speed()) / 2
        unit["problems"], unit["oracle"] = w.check(inputs, out)
        unit["run_s"] = t1 - t0
        unit["cpu_s"] = c1 - c0
        unit["sys_s"] = r1.ru_stime - r0.ru_stime
        unit["minflt"] = r1.ru_minflt - r0.ru_minflt
    except Exception as exc:  # a run that raises is a failed run, not a crash
        traceback.print_exc(file=sys.stderr)
        unit["problems"] = [f"{type(exc).__name__}: {exc}"]
    if tracer is not None:
        unit["layers"] = tracer.take()
    for p in unit["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    return unit


def repeat_until(seconds, step):
    """Call step() at least MIN_RUNS times, and again while the next call,
    taking as long as the last one, would end within ``seconds``."""
    out = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(out) < MIN_RUNS or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        out.append(step())
        last = time.perf_counter() - t0
    return out


def fresh_setup(args, rss):
    """One fresh process that times import, input generation and warm-up,
    and with ``rss`` then runs the workload once and reports its peak RSS."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-child"]
    if rss:
        cmd.append("--rss")
    before = speed()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        result = {"problems": [f"setup child: {type(exc).__name__}: {exc}"]}
    result["speed"] = (before + speed()) / 2
    for p in result["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    return result


def peak_rss_mb():
    """This process's own peak RSS. ru_maxrss is not used: Linux carries the
    parent's high-water mark into it across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup_child(args, t_start):
    import workloads as W
    w = W.WORKLOADS[args.workload]
    inputs = w.make_inputs(args.seed)
    w.warm_up(inputs)
    result = {"setup_s": time.perf_counter() - t_start, "problems": []}
    if args.rss:
        result["problems"] = run_once(w, args.seed, calibrate=False)["problems"]
        result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


def end_to_end(args, w, oracle_probe):
    children = []
    start = time.perf_counter()

    def step():
        # the fresh set-up processes are spread over the measured window, so
        # that they meet the machine's changing load as the runs do
        due = SETUP_CHILDREN * (time.perf_counter() - start) / args.seconds
        if len(children) < SETUP_CHILDREN and len(children) <= due:
            children.append(fresh_setup(args, rss=not children))
        return run_once(w, args.seed)

    units = repeat_until(args.seconds, step)
    while len(children) < SETUP_CHILDREN:
        children.append(fresh_setup(args, rss=not children))
    ok = [u for u in units if not u["problems"]]
    attempts = [u["problems"] for u in units] + [c["problems"] for c in children]
    oracle = [u["oracle"] for u in ok if u["oracle"] is not None]
    if not oracle:
        try:
            oracle = [oracle_probe(args.seed)]
            attempts.append([])
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            attempts.append([f"oracle probe: {exc}"])
    failed = sum(1 for p in attempts if p)
    set_up = [c for c in children if "setup_s" in c]
    values = {
        "setup_s": [c["setup_s"] * c["speed"] for c in set_up],
        "run_s": [u["run_s"] * u["speed"] for u in ok],
        "cpu_s": [u["cpu_s"] * u["speed"] for u in ok],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children if "peak_rss_mb" in c],
        "oracle_rel_err": oracle,
        # unscaled, for the table only
        "setup_wall_s": [c["setup_s"] for c in set_up],
        "run_wall_s": [u["run_s"] for u in ok],
        "cpu_wall_s": [u["cpu_s"] for u in ok],
        "speed": [u["speed"] for u in ok],
    }
    return values, len(attempts), failed


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(args, w):
    from tracer import NAMES, Tracer

    tracer = Tracer()
    # alternate untraced and traced runs, so that drift in the machine's
    # load falls on both sides of the tracing overhead alike
    def pair():
        plain = run_once(w, args.seed)
        tracer.install()
        try:
            return plain, run_once(w, args.seed, tracer)
        finally:
            tracer.remove()

    pairs = repeat_until(args.seconds, pair)
    attempts = [u["problems"] for both in pairs for u in both]
    failed = sum(1 for p in attempts if p)
    pairs = [(p, t) for p, t in pairs if not p["problems"] and not t["problems"]]
    if not pairs:
        return {}, len(attempts), failed
    plain, traced = zip(*pairs)

    per_run = []
    for u in traced:
        calls, self_s, counters = u["layers"]
        row = {}
        for name in NAMES:
            row[f"{name}.calls"] = calls[name]
            row[f"{name}.self_s"] = self_s[name]
        fv_calls = calls["gradient.flow_velocity"]
        row["kernel.kernel_matrix.computed_mb"] = counters["kernel.kernel_matrix.computed_bytes"] / 1e6
        row["kernel.kernel_matrix.per_velocity"] = _ratio(calls["kernel.kernel_matrix"], fv_calls)
        row["gradient.flow_velocity.per_step"] = _ratio(fv_calls, counters["flow.steps"])
        row["curves.arc_data.per_state"] = _ratio(calls["curves.arc_data"], counters["states"])
        row["flow.steps"] = counters["flow.steps"]
        row["output.bytes"] = counters["output.bytes"]
        per_run.append(row)

    repeats = [k for k in per_run[0] if k.endswith(".calls") and len({r[k] for r in per_run}) > 1]
    for k in repeats:
        print(f"call count differs between traced runs: {k} {[r[k] for r in per_run]}")

    traced_run = statistics.median(u["run_s"] for u in traced)
    values = {k: [r[k] for r in per_run] for k in per_run[0]}
    values["proc.minflt"] = [u["minflt"] for u in plain]
    values["proc.sys_s"] = [u["sys_s"] for u in plain]
    values["trace.run_s"] = [u["run_s"] for u in traced]
    # one difference per pair, so that the table's quartiles show whether the
    # overhead stands out from the drift between neighbouring runs
    values["trace.overhead_s"] = [t["run_s"] - p["run_s"] for p, t in pairs]

    print(f"{'layer':36} {'calls/run':>10} {'self_s/run':>12} {'share of traced run_s':>22}")
    for name in NAMES:
        med_self = statistics.median(values[f"{name}.self_s"])
        print(f"{name:36} {values[f'{name}.calls'][0]:10d} {med_self:12.6g} {med_self / traced_run:22.4f}")
    print(f"call counts repeat across {len(per_run)} traced runs: {'no' if repeats else 'yes'}")
    return values, len(attempts), failed


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "h1flow" / "__init__.py").is_file():
        print(f"error: no h1flow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args, t_start)

    import h1flow
    import workloads as W
    if Path(h1flow.__file__).resolve().parent != SRC / "h1flow":
        print(f"error: imported h1flow from {h1flow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    print("env: " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    w = W.WORKLOADS[args.workload]
    w.warm_up(w.make_inputs(args.seed))
    if args.trace:
        values, attempted, failed = per_layer(args, w)
    else:
        values, attempted, failed = end_to_end(args, w, W.oracle_probe)

    missing = [m["name"] for m in metrics if not values.get(m["name"])]
    if missing:
        print(f"error: no samples for {missing}", file=sys.stderr)
        return 2
    extra = [("setup_wall_s", "s"), ("run_wall_s", "s"), ("cpu_wall_s", "s"), ("speed", "ratio")]
    print_table([(m["name"], m["unit"], values[m["name"]]) for m in metrics]
                + [(name, unit, values[name]) for name, unit in extra if values.get(name)]
                + [("failed_frac", "ratio", [failed / attempted])])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": summary(values[m["name"]])[0], "unit": m["unit"]}
                    for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
