"""Every function the benchmark traces exists in the package.

`perfbench/tracing.py` wraps the functions of its ``TRACED`` table by module
and attribute name, so a renamed function would be noticed only by a traced
benchmark run.  Its tables are read with `ast`, without importing the
benchmark; one test runs its tracer in a subprocess, so that the wrapping
stays out of this process.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from fuzzdec.operators import BinaryOp

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"

# Installs the tracer as the benchmark worker does, then runs the relations
# workload's kinds of job once each on an n = 30 grid relation.
RELATIONS_RUN = """
import contextlib, io, os, sys
import numpy as np
import fuzzdec.cli
import tracing

tracer = tracing.Tracer()
tracer.install()
from fuzzdec import FuzzyRelation, make_norm, regions, relations, save_relation

n = 30
m = np.random.default_rng(0).integers(0, 21, size=(n, n)) / 20
np.fill_diagonal(m, 1.0)
R = FuzzyRelation(tuple(f"x{k}" for k in range(n)), m)
path = os.path.join(sys.argv[1], "grid30.rel")
save_relation(R, path)
for command in ("decompose", "audit"):
    for norm in ([], ["--norm", "lukasiewicz"]):
        argv = [command, "--relation", path, "--conorm", "lukasiewicz", *norm]
        with contextlib.redirect_stdout(io.StringIO()):
            assert fuzzdec.cli.main(argv) == 0, argv
T = make_norm("product")
assert relations.is_t_transitive(regions.t_transitive_closure(R, T), T)
print(tracer.missing("relations"))
"""


class _Inline(ast.NodeTransformer):
    """Replaces each name by the constant assigned to it earlier."""

    def __init__(self, constants):
        self.constants = constants

    def visit_Name(self, node):
        return ast.Constant(self.constants[node.id])


def tracing_constants() -> dict:
    """The tracer's module-level assignments, each as its literal value."""
    constants = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            constants[node.targets[0].id] = ast.literal_eval(_Inline(constants).visit(node.value))
    return constants


def resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for attr in dotted.split("."):
        obj = getattr(obj, attr)
    return obj


def test_every_traced_function_resolves_to_a_callable():
    c = tracing_constants()
    assert len(c["TRACED"]) >= 20
    for prefix, module, attr, _ in c["TRACED"]:
        assert module.startswith("fuzzdec."), prefix
        assert callable(resolve(module, attr)), prefix
    assert c["TO_CSV"] == "regions.RegionGrid.to_csv"
    assert callable(resolve("fuzzdec.regions", "RegionGrid.to_csv"))
    # the evaluator is wrapped on each operator as it is built
    assert c["EVALUATOR"] == "operators.evaluator" and "evaluator" in BinaryOp.__dataclass_fields__


def test_every_required_name_is_traced():
    c = tracing_constants()
    traced = {prefix for prefix, *_ in c["TRACED"]} | {c["TO_CSV"], c["EVALUATOR"]}
    assert set(c["REQUIRED"]) == {"relations", "regions"}
    for workload, names in c["REQUIRED"].items():
        assert set(names) <= traced, (workload, set(names) - traced)


def test_the_relations_jobs_reach_every_required_name(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", RELATIONS_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
