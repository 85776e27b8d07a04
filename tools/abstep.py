"""Interleaved in-process A/B of two h1flow source trees.

    python3 tools/abstep.py A_ROOT B_ROOT

Each root is a checkout whose src/h1flow is loaded under its own module
name, so both run in one process on the same inputs and one machine state.
The benchmark's benchmarks/workloads.py, the one next to this script, is
executed once per tree with `import h1flow` bound to that tree, and each
of its workloads runs through its own make_inputs(1), warm_up, run and
check. The script first asserts that both trees pass every workload's
check with bit-equal outputs. It then times alternating blocks, A first in
the 1st, 3rd, ... block and B in the others:
- 300 blocks per n = 64, 512 and 2048, each of 10 RK4 steps of a circle of
  radius 1, each step with the measurement of its stepped state
  (flow._advance, then flow._measure, the measurement of curves that
  flow imports, so that a tree which still defines it in flow is timed
  through the same name);
- 60 blocks per n = 64, 512 and 2048, each one chord_arc_min call on a
  measured circle of radius 1, after asserting that both trees return the
  same (value, i, j) on it;
- 60 blocks per n = 64, 512 and 2048, each one record of a star(1, 0.3,
  5, n) measured before the clock starts, afresh for every block, so that
  no cached arclength or turning angle carries over from an earlier
  block, after asserting that both trees give the same repr of a record
  of such a state;
- per workload, 40 blocks of ellipse-step or star-record, or 20 of
  circle-small or zigzag-paths, each one run of the workload.
For each it prints the median of the per-block ratios B / A, their
quartiles, and the share of blocks in which B took less time. A ratio
below 1 means B is faster. Step, monitor and record times are the
medians over blocks. After its timing, each workload runs once more in
each tree under tracemalloc, and the table gives that run's traced peak
in MB, the most memory it held at once of what it allocated.

    python3 tools/abstep.py PARENT CHANGE --pairs N --workload W [--seconds S] --out BENCH_k.json

The pairs mode runs the benchmark itself instead, in separate processes.
Each side is a directory holding a tree, or a git revision of this
repository. A revision is exported with `git archive`; a directory's src,
benchmarks and BENCHMARK.json are copied. Each side goes into its own
temporary directory, so that each has its own .bench_out. For seed k =
1..N the mode runs `benchmarks/run.py --workload W --seed k --seconds S
--trace 0` in each side's copy, the parent first at odd seeds and the
change first at even ones, with PYTHONDONTWRITEBYTECODE=1. It writes a
JSON file: per end-to-end metric each side's median, q1, q3 and min over
the pairs, the pairs in which the change was better, its median change and
whether that exceeds the parent's q3 - q1; the runs attempted and failed
per side; and the environment that run.py reports. It refuses to
overwrite an existing file.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

# the step blocks per n, the steps per block, and the blocks per n of one
# monitor call or one record
SIZES, BLOCKS, STEPS, CALL_BLOCKS = (64, 512, 2048), 300, 10, 60
WORKLOAD_BLOCKS = {"ellipse-step": 40, "star-record": 40, "circle-small": 20, "zigzag-paths": 20}
REPO = Path(__file__).resolve().parents[1]
WORKLOADS_PY = REPO / "benchmarks" / "workloads.py"
# what a benchmark run reads of a tree
TREE = ("src", "benchmarks", "BENCHMARK.json")


def load(root, name):
    """The h1flow package under root/src, imported as the module `name`
    with its cli submodule; a package loaded earlier under that name goes
    first, submodules too."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    pkg = Path(root).resolve() / "src" / "h1flow"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    # bound as an attribute, for the `from h1flow import cli` of
    # benchmarks/workloads.py to take
    importlib.import_module(name + ".cli")
    return mod


def load_workloads(h):
    """The WORKLOADS of benchmarks/workloads.py, executed while
    sys.modules["h1flow"] is the package h; the entry it replaced is put
    back, also on error."""
    saved = sys.modules.get("h1flow")
    sys.modules["h1flow"] = h
    try:
        spec = importlib.util.spec_from_file_location(h.__name__ + "_workloads", WORKLOADS_PY)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        if saved is None:
            del sys.modules["h1flow"]
        else:
            sys.modules["h1flow"] = saved
    return mod.WORKLOADS


def _key(h, out):
    """What two trees' outputs must share bit for bit: a trajectory its
    times, termination, vertex bytes and record reprs, a container its
    items, anything else its repr."""
    if isinstance(out, h.Trajectory):
        return (out.times, out.termination.value, [s.vertices.tobytes() for s in out.states],
                [repr(r) for r in out.records])
    if isinstance(out, dict):
        return [(repr(k), _key(h, v)) for k, v in out.items()]
    if isinstance(out, (list, tuple)):
        return [_key(h, v) for v in out]
    return repr(out)


def checked_run(h, w):
    """A callable that runs workload w on its seed-1 inputs, after one
    warm-up and one run that must pass w's check; with that run's key."""
    inputs = w.make_inputs(1)
    w.warm_up(inputs)
    out = w.run(inputs)
    problems, _ = w.check(inputs, out)
    if problems:
        raise AssertionError(f"{h.__name__} fails the {w.name} check: {'; '.join(problems)}")
    return (lambda: w.run(inputs)), _key(h, out)


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


def recorder(h, n, calls):
    """A callable that records, at each of `calls` calls, its own state of
    star(1, 0.3, 5, n), all measured before the first call."""
    c = h.star(1.0, 0.3, 5, n)
    states = iter([h.arc_data(c) for _ in range(calls)])
    return lambda: h.record(next(states), 0.0)


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


def traced_peak_mb(run):
    """The tracemalloc peak of one call of run, in MB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def summarise(ta, tb):
    """Median ratio B / A with its quartiles, and B's share of faster blocks."""
    ratios = [b / a for a, b in zip(ta, tb)]
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {"ratio": med, "q1": q1, "q3": q3,
            "b_lower": sum(r < 1.0 for r in ratios) / len(ratios),
            "a_s": statistics.median(ta), "b_s": statistics.median(tb)}


def compare(root_a, root_b, sizes=SIZES, blocks=BLOCKS, steps=STEPS, call_blocks=CALL_BLOCKS,
            workloads=WORKLOAD_BLOCKS):
    """Assert that both trees pass the checks of the named workloads with
    bit-equal outputs, in the order given, then time the two trees; returns
    {label: summary} with labels "step n=N", "chord n=N", "record n=N" and
    the workload names, each workload timed in as many blocks as
    `workloads` maps it to and then traced once per tree, its summary with
    the peaks a_peak_mb and b_peak_mb."""
    ha, hb = load(root_a, "h1flow_a"), load(root_b, "h1flow_b")
    wa, wb = load_workloads(ha), load_workloads(hb)
    runs = {}
    for name in workloads:
        (run_a, key_a), (run_b, key_b) = checked_run(ha, wa[name]), checked_run(hb, wb[name])
        if key_a != key_b:
            raise AssertionError(f"the two trees give different {name} outputs")
        runs[name] = run_a, run_b
    out = {}
    for n in sizes:
        out[f"step n={n}"] = summarise(*interleave(stepper(ha, n, steps),
                                                   stepper(hb, n, steps), blocks))
    for n in sizes:
        run_a, run_b = monitor(ha, n), monitor(hb, n)
        if repr(run_a()) != repr(run_b()):
            raise AssertionError(f"the two trees give different chord-arc minima at n={n}")
        out[f"chord n={n}"] = summarise(*interleave(run_a, run_b, call_blocks))
    for n in sizes:
        # one state more than the blocks, for the check
        run_a, run_b = recorder(ha, n, call_blocks + 1), recorder(hb, n, call_blocks + 1)
        if repr(run_a()) != repr(run_b()):
            raise AssertionError(f"the two trees give different records at n={n}")
        out[f"record n={n}"] = summarise(*interleave(run_a, run_b, call_blocks))
    for name, (run_a, run_b) in runs.items():
        out[name] = summarise(*interleave(run_a, run_b, workloads[name]))
        out[name].update(a_peak_mb=traced_peak_mb(run_a), b_peak_mb=traced_peak_mb(run_b))
    return out


def print_table(out, steps=STEPS) -> None:
    """The summaries of compare, a step (out of blocks of `steps` steps), a
    monitor call and a record in microseconds, a workload run in
    milliseconds with its traced peaks in MB."""
    print("workload outputs: bit-equal, checks passed")
    print(f"{'case':14} {'A':>10} {'B':>10} {'B/A':>7} {'q1':>7} {'q3':>7} {'B lower':>8}"
          f" {'A peak':>9} {'B peak':>9}")
    for label, s in out.items():
        scale, unit = {"step": (1e6 / steps, "us"), "chord": (1e6, "us"),
                       "record": (1e6, "us")}.get(label.split()[0], (1e3, "ms"))
        peaks = (f" {s['a_peak_mb']:7.1f}MB {s['b_peak_mb']:7.1f}MB"
                 if "a_peak_mb" in s else "")
        print(f"{label:14} {scale * s['a_s']:8.1f}{unit} {scale * s['b_s']:8.1f}{unit} "
              f"{s['ratio']:7.3f} {s['q1']:7.3f} {s['q3']:7.3f} {s['b_lower']:8.0%}{peaks}")


def export(side, into: Path, repo: Path = REPO) -> str:
    """The tree of side, a directory or a git revision of repo (this
    repository by default), as a copy of TREE in the new directory into;
    returns how it was made."""
    into.mkdir()
    if Path(side).is_dir():
        skip = shutil.ignore_patterns("__pycache__", ".bench_out")
        for name in TREE:
            src = Path(side) / name
            if src.is_dir():
                shutil.copytree(src, into / name, ignore=skip)
            else:
                shutil.copy2(src, into / name)
        return f"the tree at {side}, a copy of its {', '.join(TREE)}"
    git = ["git", "-C", str(repo)]
    rev = subprocess.run(git + ["rev-parse", "--verify", f"{side}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(git + ["archive", "--format=tar", rev, *TREE],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return f"{rev[:7]}, a git archive copy"


def bench_run(tree: Path, workload: str, seed: int, seconds: float):
    """One `benchmarks/run.py --trace 0` child in tree: its result object
    (the last line of its output) and the environment it reports."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]), env


def _stats(values):
    """Median, quartiles and minimum of one side's values, with the values."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values),
            "values": values}


def pairs(parent, change, workload: str, n: int, seconds: float) -> dict:
    """n alternating pairs of benchmark runs of workload, the parent tree
    against the change's, summarised per end-to-end metric."""
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        labels = {side: export(src, trees[side]) for side, src in
                  (("parent", parent), ("change", change))}
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        runs = {"parent": [], "change": []}
        for seed in range(1, n + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(bench_run(trees[side], workload, seed, seconds))
    metrics = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        a, b = ([r["metrics"][name]["value"] for r, _ in runs[side]]
                for side in ("parent", "change"))
        pa, pb = _stats(a), _stats(b)
        gain = sign * (pa["median"] - pb["median"])
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "parent": pa, "change": pb,
            "pairs": n, "change_better_pairs": sum(sign * (x - y) > 0.0 for x, y in zip(a, b)),
            "ties": sum(x == y for x, y in zip(a, b)),
            "median_change": (pb["median"] - pa["median"]) / pa["median"] if pa["median"] else None,
            "parent_iqr": pa["q3"] - pa["q1"],
            "beyond_parent_iqr": gain > pa["q3"] - pa["q1"],
        }
    results = {side: [r for r, _ in runs[side]] for side in runs}
    return {
        "child": f"python3 benchmarks/run.py --workload {workload} --seed K "
                 f"--seconds {seconds:g} --trace 0",
        "parent": labels["parent"], "change": labels["change"], "workload": workload,
        "pairs": n,
        "order": "seed k = 1..pairs; the parent ran first at odd seeds and the change "
                 "first at even ones, each side in its own copy",
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in results.items()},
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in results.items()},
        "correct": {side: all(r["correct"] for r in rs) for side, rs in results.items()},
        "metrics": metrics,
        "env": runs["parent"][0][1],
    }


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a_root", help="the parent: a tree, or in the pairs mode also a git revision")
    p.add_argument("b_root", help="the change, as a_root")
    p.add_argument("--pairs", type=int, help="run the pairs mode with this many pairs")
    p.add_argument("--workload", help="the workload of the pairs mode")
    p.add_argument("--seconds", type=float, default=5.0, help="run.py's --seconds (default 5)")
    p.add_argument("--out", type=Path, help="the JSON file the pairs mode writes")
    args = p.parse_args(argv)
    if args.pairs is None:
        print_table(compare(args.a_root, args.b_root))
        return
    if args.pairs < 1 or not args.workload or args.out is None:
        p.error("--pairs needs a count of at least 1, --workload and --out")
    if args.out.exists():
        p.error(f"{args.out} exists; it is not overwritten")
    command = " ".join(["python3 tools/abstep.py", *(sys.argv[1:] if argv is None else argv)])
    out = {"command": command,
           **pairs(args.a_root, args.b_root, args.workload, args.pairs, args.seconds)}
    with open(args.out, "x") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name, m in out["metrics"].items():
        print(f"{name:15} parent {m['parent']['median']:.6g} change {m['change']['median']:.6g} "
              f"better in {m['change_better_pairs']}/{m['pairs']}")


if __name__ == "__main__":
    main()
