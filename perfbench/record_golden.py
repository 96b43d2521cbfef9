"""Record the golden region rasters the ``regions`` workload checks against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Writes ``perfbench/golden_regions.json``: for every (job kind, operators,
connecting conorm, resolution) the workload can draw, the digest of the
membership raster (``region``) or the verdict (``restricted``).  Record it
once from a commit whose regions are trusted; a later change must leave
every raster and verdict unchanged.
"""

from __future__ import annotations

import json
import os

import checks
import workloads
from fuzzdec import Kind, parse_op_spec, restricted_decomposability, strong_region, weak_region
from fuzzdec.verdicts import Verdict


def ops(mode, op):
    norm, conorm = (None, op) if mode == "weak" else op
    T = parse_op_spec(norm, Kind.NORM) if norm else None
    return T, parse_op_spec(conorm, Kind.CONORM)


def main():
    golden = {}
    for kind, mode, resolutions in workloads.region_slots():
        for conn, op, res in workloads.region_pool(kind, mode, resolutions):
            T, S = ops(mode, op)
            if kind == "region":
                grid = weak_region(S, 1.0 / res) if T is None else strong_region(T, S, 1.0 / res)
                value = checks.membership_digest(grid.membership)
            else:
                S_prime = parse_op_spec(conn, Kind.CONORM)
                verdict = restricted_decomposability(S_prime, S, T, 1.0 / res).verdict
                value = "FAILS" if verdict is Verdict.FAILS else "HOLDS"
            golden[workloads.golden_key(kind, mode, conn, op, res)] = value
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_regions.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} entries to {path}")


if __name__ == "__main__":
    main()
