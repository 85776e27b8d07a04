#!/usr/bin/env python3
"""Run every workload over seeds 1-10 and summarise, as a baseline.

    python3 benchmarks/sweep.py --out benchmarks/BENCH_baseline.json

For each workload of BENCHMARK.json it runs ``run.py --trace 0`` once per
seed for ``run_seconds`` and prints, per end-to-end metric, the median,
quartiles and count of the per-seed values, with the spread
(q3 - q1) / median beside the metric's bound. It then makes one traced run
on seed 1, which itself checks that every call count repeats across its
traced runs, and prints each layer's self time and its share of the traced
run time, and the tracing overhead with its quartiles. Runs happen one at a
time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEEDS = list(range(1, 11))
MISMATCH = "call count differs between traced runs: "


def run(workload, seed, seconds, trace):
    """(environment, result, standard output lines) of one run.py invocation."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    env = json.loads(lines[0].removeprefix("env: "))
    return env, json.loads(lines[-1]), lines


def sweep_workload(name, spec):
    seconds = spec["run_seconds"]
    results = []
    for seed in SEEDS:
        env, result, _ = run(name, seed, seconds, 0)
        results.append(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    end_to_end = {}
    print(f"\n{name}: {len(results)} seeds, {attempted} runs attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4g})")
    print(f"  {'metric':16} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3} "
          f"{'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med, q1, q3, n = summary(values)
        s = {"median": med, "q1": q1, "q3": q3, "n": n, "spread": (q3 - q1) / med,
             "bound": m["bound"], "values": values}
        end_to_end[m["name"]] = s
        print(f"  {m['name']:16} {m['unit']:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {n:3d} "
              f"{s['spread']:8.4f} {m['bound']:6.3g}")

    _, traced, lines = run(name, SEEDS[0], seconds, 1)
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    mismatches = [line.removeprefix(MISMATCH) for line in lines if line.startswith(MISMATCH)]
    # the result line holds only the median overhead; its table row also
    # holds the quartiles and the number of untraced/traced pairs
    row = next(line.split() for line in lines if line.startswith("trace.overhead_s "))
    overhead = dict(zip(("median", "q1", "q3", "n"), map(float, row[2:6])))
    run_s = layers["trace.run_s"]
    shares = {k.removesuffix(".self_s"): v / run_s
              for k, v in layers.items() if k.endswith(".self_s")}
    print(f"  traced run on seed {SEEDS[0]}: {traced['attempted']} runs, {traced['failed']} "
          f"failed; call counts {'differ: ' + '; '.join(mismatches) if mismatches else 'repeat exactly'}")
    print(f"  {'layer':36} {'calls':>8} {'self_s':>10} {'share':>7}")
    for layer, share in shares.items():
        print(f"  {layer:36} {layers[layer + '.calls']:8g} "
              f"{layers[layer + '.self_s']:10.4g} {share:7.3f}")
    print(f"  {'trace.run_s':36} {run_s:.4g}")
    print(f"  {'trace.overhead_s':36} {overhead['median']:.4g} "
          f"[{overhead['q1']:.4g}, {overhead['q3']:.4g}] over {overhead['n']:g} pairs")
    return env, {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "traced": {"attempted": traced["attempted"], "failed": traced["failed"]},
        "per_layer": layers,
        "self_share_of_trace_run_s": shares,
        "trace_overhead_s": overhead,
        "call_count_mismatches": mismatches,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None, help="write the summary as JSON here")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = {"seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for w in spec["workloads"]:
        env, baseline["workloads"][w["name"]] = sweep_workload(w["name"], spec)
        baseline["env"] = env
    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
