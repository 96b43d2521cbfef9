"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workloads relations regions \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0|1] [--baseline perfbench/baseline.json]

Run from the root of a checkout.  For every workload and end-to-end metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``), the
interquartile spread as a share of the median and the metric's bound from
``BENCHMARK.json``.  With ``--baseline`` it also writes those figures and a
description of the machine to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def machine():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--baseline")
    args = p.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"machine": machine(), "run_seconds": bench["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        values, walls, failed, attempted = {}, [], [], []
        for seed in args.seeds:
            res, wall = run_once(workload, seed, bench["run_seconds"], args.trace)
            if not res["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            walls.append(wall)
            failed.append(res["failed"])
            attempted.append(res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: wall per run {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed {failed} of {attempted}")
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:44s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}  bound {bound}{flag}")
        report["workloads"][workload] = {"failed": failed, "attempted": attempted,
                                         "wall_s": walls, "metrics": stats}
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
