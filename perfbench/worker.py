"""One measured run in a fresh interpreter: ``python3 perfbench/worker.py CONFIG``.

CONFIG is a JSON file with the workload, seed, job count, whether to trace,
the scratch directory and the path of the result file.
Jobs run one after another (a closed loop with one client) through
``fuzzdec.cli.main``, each with stdout and stderr sent to files; each job's
output is checked after its timer stops.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

import checks
import workloads


def job_sequence(name, seed, tmp):
    if name == "regions":
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "golden_regions.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        return workloads.regions(seed, tmp, golden)
    return getattr(workloads, name)(seed, tmp)


def run_job(job, cli, out_path, err_path):
    """Run one job with its output in files; return (rc, seconds)."""
    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = job.run() if job.run else cli.main(job.argv)
            except Exception:  # a crash is a failed job, not a failed run
                rc = "exception"
                traceback.print_exc()
            dt = time.perf_counter() - t0
    return rc, dt


def main(config_path):
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    import fuzzdec.cli

    tracer = None
    if cfg["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    tmp = cfg["tmp"]
    out_path, err_path = os.path.join(tmp, "job.out"), os.path.join(tmp, "job.err")
    latencies, cells, work_s, busy = [], 0, 0.0, 0.0
    attempted, failed, known, wrong = 0, 0, {}, []
    mismatches = 0
    for job in job_sequence(cfg["workload"], cfg["seed"], tmp):
        if job.prepare:
            job.prepare()
        if tracer:
            tracer.job = attempted
        rc, dt = run_job(job, fuzzdec.cli, out_path, err_path)
        attempted += 1
        busy += dt
        with open(out_path, encoding="utf-8") as fh:
            out = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            err = fh.read()
        reason = job.check(rc, out, err) if rc != "exception" else "exception"
        if job.kind == "tables":
            mismatches += checks.tables_mismatches(out) or 0
        for path in job.files:
            if os.path.exists(path):
                os.remove(path)
        if reason is None:
            latencies.append(dt)
            if job.cells:
                cells += job.cells
                work_s += dt
        else:
            failed += 1
            defect = checks.known_defect(job, rc, out, err)
            if defect:
                known[defect] = known.get(defect, 0) + 1
            else:
                wrong.append(f"{job.label}: {reason}; {err.strip()[-300:]}")
        if attempted >= cfg["jobs"]:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "known_defects": known,
        "unexplained": wrong,
        "latencies": latencies,
        "cells": cells,
        "work_s": work_s,
        "busy_s": busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        layer = tracer.metrics()
        layer["tables.mismatches"] = mismatches
        result["layers"] = layer
        result["missing"] = tracer.missing(cfg["workload"])
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
