"""fuzzdec benchmark.

    python3 perfbench/run.py --workload relations|regions \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It byte-compiles ``src``, then runs
the workload in a fresh worker interpreter: one client in a closed loop,
job after job, making a fixed number of jobs (``workloads.job_count``) that
take about S seconds, writing inputs and checking outputs included, so that
two runs with one seed make the same jobs.  Every job's output is checked
after its timer stops.  Set-up time is the median of 20 fresh
interpreters importing ``fuzzdec.cli`` and running one trivial command,
half before the workload and half after it.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
runs a fixed number of jobs twice, untraced and then traced, and reports the
per-layer metrics of the traced run and the tracing overhead.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Failed jobs are left out of the latencies and of the work
done.  A failure explained by a documented defect of the library (see
``checks.known_defect``) is counted as failed but leaves ``correct`` true.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 10  # before and again after the workload
WORKER_TIMEOUT_S = 160
PROBE = (
    "import sys\n"
    "from fuzzdec.cli import main\n"
    "sys.exit(main(['divisors', '--conorm', 'max', '--w', '0.5']))\n"
)
# jobs of the traced run: the prefix and about one round of each workload
TRACE_JOBS = {"relations": 15, "regions": 18}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("job_p50_s", "s", "lower"),
    ("job_p90_s", "s", "lower"),
    ("cells_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

_TIMED = ("calls", "total_s", "self_s")
PER_LAYER_FIELDS = (
    ("relations.parse_relation", _TIMED),
    ("relations.format_relation", _TIMED + ("bytes",)),
    ("relations.is_t_transitive", _TIMED),
    ("operators.evaluator", ("calls", "cells", "self_s")),
    ("operators.check_first_coordinate_continuity", ("calls",)),
    ("divisors.strong_existence", _TIMED),
    ("divisors.strong_uniqueness", _TIMED),
    ("divisors.one_interval", ("calls",)),
    ("divisors.zero_interval", ("calls",)),
    ("decompose.canonical_decompose", _TIMED),
    ("decompose.strong_decompose", _TIMED),
    ("decompose.verify_weak", _TIMED),
    ("decompose.verify_strong", _TIMED),
    ("decompose.residual_array", ("cells",)),
    ("preferences.audit_fp", _TIMED),
    ("preferences.classify_rule", _TIMED),
    ("regions.weak_region", _TIMED),
    ("regions.strong_region", _TIMED),
    ("regions.RegionGrid.to_csv", _TIMED + ("bytes",)),
    ("regions.restricted_decomposability", _TIMED),
    ("regions.t_transitive_closure", _TIMED + ("peak_alloc_mb",)),
    ("tables.generate_table1", ("total_s",)),
    ("tables.generate_table2", ("total_s",)),
)
_UNITS = {"calls": "count", "cells": "count", "total_s": "s", "self_s": "s",
          "bytes": "B", "peak_alloc_mb": "MB"}
PER_LAYER = tuple(
    (f"{name}.{f}", _UNITS[f], "lower") for name, fields in PER_LAYER_FIELDS for f in fields
) + (
    ("divisors.recertify_ratio", "ratio", "lower"),
    ("tables.mismatches", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.exit2.count", "count", "lower"),
    ("cli.failed_ops_ratio", "ratio", "lower"),
    ("cli.known_defect_jobs.count", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_times(env):
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in sleeps of up to 50 ms
        rc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            stdout=subprocess.DEVNULL).returncode
        times.append(time.perf_counter() - t0)
        if rc != 0:
            fail(f"set-up probe exited with {rc}")
    return times


def run_worker(env, tmp, cfg, tag):
    cfg = dict(cfg, tmp=tmp, result=os.path.join(tmp, f"{tag}.json"))
    config_path = os.path.join(tmp, f"{tag}-config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    try:
        rc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), config_path],
                            env=env, timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the worker
        fail(f"{tag} worker did not finish within {WORKER_TIMEOUT_S} s")
    if rc != 0:
        fail(f"{tag} worker exited with {rc}")
    with open(cfg["result"], encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(res, setup_s):
    lat = sorted(res["latencies"])
    if len(lat) < 100:
        fail(f"only {len(lat)} successful jobs; a p90 needs ten beyond it")
    values = {
        "setup_s": setup_s,
        "job_p50_s": statistics.median(lat),
        "job_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "cells_per_s": res["cells"] / res["work_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(res, untraced):
    layers = dict(res["layers"])
    layers["cli.failed_ops_ratio"] = res["failed"] / res["attempted"]
    layers["cli.known_defect_jobs.count"] = sum(res["known_defects"].values())
    layers["trace.overhead_ratio"] = res["busy_s"] / untraced["busy_s"]
    return {name: {"value": layers.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("relations", "regions"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fuzzdec", "cli.py")):
        fail("run from the root of a fuzzdec checkout (src/fuzzdec/cli.py not found)")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.pop("FUZZDEC_SEED", None)
    if subprocess.run([sys.executable, "-m", "compileall", "-q", src], env=env).returncode:
        fail("byte-compiling src failed")

    tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        cfg = {"workload": args.workload, "seed": args.seed}
        if args.trace:
            cfg["jobs"] = TRACE_JOBS[args.workload]
            untraced = run_worker(env, tmp, dict(cfg, trace=False), "untraced")
            res = run_worker(env, tmp, dict(cfg, trace=True), "traced")
            if res["missing"]:
                fail("traced run never called " + ", ".join(res["missing"])
                     + "; a wrapper was not rebound")
            metrics = per_layer(res, untraced)
        else:
            setup = setup_times(env)
            jobs = workloads.job_count(args.workload, args.seconds)
            res = run_worker(env, tmp, dict(cfg, trace=False, jobs=jobs), "run")
            setup += setup_times(env)
            metrics = end_to_end(res, statistics.median(setup))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    for line in res["unexplained"]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"jobs attempted {res['attempted']}, failed {res['failed']} "
          f"(documented defects {res['known_defects'] or 'none'}), "
          f"{len(res['latencies'])} latency samples")
    print(json.dumps({
        "correct": not res["unexplained"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
