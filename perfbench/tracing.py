"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds every name in every loaded ``fuzzdec`` module that refers to the
original, so calls through ``from .divisors import one_interval`` are seen
too.  Operator evaluators are wrapped as each ``BinaryOp`` is built.

Each wrapped function records ``calls``, ``total_s`` and ``self_s``; self
time is the call's duration minus the time of the wrapped calls nested in
it.  Some functions also record a count of work done (``cells``, ``bytes``)
or ``peak_alloc_mb`` from tracemalloc.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (metric prefix, module, attribute, extra field)
TRACED = (
    ("relations.parse_relation", "fuzzdec.relations", "parse_relation", None),
    ("relations.format_relation", "fuzzdec.relations", "format_relation", "bytes"),
    ("relations.is_t_transitive", "fuzzdec.relations", "is_t_transitive", None),
    ("operators.check_first_coordinate_continuity", "fuzzdec.operators",
     "check_first_coordinate_continuity", None),
    ("divisors.strong_existence", "fuzzdec.divisors", "strong_existence", "pairs"),
    ("divisors.strong_uniqueness", "fuzzdec.divisors", "strong_uniqueness", None),
    ("divisors.one_interval", "fuzzdec.divisors", "one_interval", None),
    ("divisors.zero_interval", "fuzzdec.divisors", "zero_interval", None),
    ("decompose.canonical_decompose", "fuzzdec.decompose", "canonical_decompose", None),
    ("decompose.strong_decompose", "fuzzdec.decompose", "strong_decompose", None),
    ("decompose.verify_weak", "fuzzdec.decompose", "verify_weak", None),
    ("decompose.verify_strong", "fuzzdec.decompose", "verify_strong", None),
    ("decompose.residual_array", "fuzzdec.decompose", "residual_array", "cells"),
    ("preferences.audit_fp", "fuzzdec.preferences", "audit_fp", None),
    ("preferences.classify_rule", "fuzzdec.preferences", "classify_rule", None),
    ("regions.weak_region", "fuzzdec.regions", "weak_region", None),
    ("regions.strong_region", "fuzzdec.regions", "strong_region", None),
    ("regions.restricted_decomposability", "fuzzdec.regions", "restricted_decomposability", None),
    ("regions.t_transitive_closure", "fuzzdec.regions", "t_transitive_closure", "peak_alloc_mb"),
    ("tables.generate_table1", "fuzzdec.tables", "generate_table1", None),
    ("tables.generate_table2", "fuzzdec.tables", "generate_table2", None),
    ("cli.main", "fuzzdec.cli", "main", "exit2"),
)
TO_CSV = "regions.RegionGrid.to_csv"
EVALUATOR = "operators.evaluator"

# functions each workload must reach, so that a missed rebinding fails loudly
REQUIRED = {
    "relations": (
        "relations.parse_relation", "relations.format_relation", "relations.is_t_transitive",
        EVALUATOR, "decompose.canonical_decompose", "decompose.strong_decompose",
        "decompose.verify_weak", "decompose.verify_strong", "decompose.residual_array",
        "preferences.audit_fp", "regions.t_transitive_closure", "cli.main",
    ),
    "regions": (
        "regions.weak_region", "regions.strong_region", TO_CSV,
        "regions.restricted_decomposability", "divisors.one_interval",
        "divisors.zero_interval", "decompose.residual_array", EVALUATOR,
        "operators.check_first_coordinate_continuity", "divisors.strong_existence",
        "divisors.strong_uniqueness", "preferences.classify_rule",
        "tables.generate_table1", "tables.generate_table2", "cli.main",
    ),
}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._children = []  # time of wrapped calls nested in each open call
        self._pairs = set()
        self.job = 0  # index of the running job; custom operators are keyed by it

    def _timed(self, name, fn, args, kwargs):
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._children.pop()
            rec = self.stats[name]
            rec["calls"] += 1
            rec["total_s"] += dt
            rec["self_s"] += dt - child
            if self._children:
                self._children[-1] += dt

    def wrap(self, name, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.stats[name]
            if extra == "peak_alloc_mb":
                tracemalloc.start()
                try:
                    return self._timed(name, fn, args, kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    rec["peak_alloc_mb"] = max(rec["peak_alloc_mb"], peak)
            out = self._timed(name, fn, args, kwargs)
            if extra == "bytes":
                rec["bytes"] += len(out.encode("utf-8"))
            elif extra == "cells":
                rec["cells"] += np.size(out)
            elif extra == "exit2":
                rec["exit2"] += out == 2
            elif extra == "pairs":
                self._pairs.add(tuple(self._op_key(op) for op in args[:2]))
            return out

        return traced

    def _op_key(self, op):
        return (op.kind, op.family, op.parameter, self.job if op.family == "custom" else None)

    def install(self):
        import fuzzdec.operators as operators
        import fuzzdec.regions as regions

        modules = [m for name, m in list(sys.modules.items()) if name.startswith("fuzzdec")]
        for name, module, attr, extra in TRACED:
            original = getattr(importlib.import_module(module), attr)
            wrapped = self.wrap(name, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        regions.RegionGrid.to_csv = self.wrap(TO_CSV, regions.RegionGrid.to_csv, "bytes")

        original_init = operators.BinaryOp.__init__

        def init(op, *args, **kwargs):
            original_init(op, *args, **kwargs)
            if op.evaluator is not None:
                object.__setattr__(op, "evaluator", self.wrap(EVALUATOR, op.evaluator, "cells"))

        operators.BinaryOp.__init__ = init

    def metrics(self):
        """Flat ``<module>.<function>.<field>`` values."""
        out = {}
        for name, rec in self.stats.items():
            for fieldname, value in rec.items():
                out[f"{name}.{fieldname}"] = value
        main = self.stats["cli.main"]
        out["cli.exit2.count"] = main.get("exit2", 0.0)
        out.pop("cli.main.exit2", None)
        existence = self.stats["divisors.strong_existence"]["calls"]
        out["divisors.recertify_ratio"] = existence / len(self._pairs) if self._pairs else 0.0
        return out

    def missing(self, workload):
        return [name for name in REQUIRED[workload] if not self.stats[name]["calls"]]
