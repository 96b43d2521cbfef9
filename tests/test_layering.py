"""The package's modules import one another in one direction only.

Each module may import from the modules before it in `ORDER` and from no
module after it, so no two modules import each other and the package
loads whatever order `__init__` lists them in.
"""

import ast
from pathlib import Path

import pytest

ORDER = (
    "verdicts", "families", "operators", "relations", "divisors", "decompose",
    "reference", "preferences", "regions", "tables", "cli",
)
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fuzzdec"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_module_has_a_place_in_the_order():
    assert MODULES == sorted(ORDER)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_earlier_modules(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        assert node.module is not None, f"{module}: 'from . import' at line {node.lineno}"
        assert ORDER.index(node.module) < ORDER.index(module), (
            f"{module} imports {node.module} at line {node.lineno}"
        )
