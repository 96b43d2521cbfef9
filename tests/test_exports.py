"""Every name the package exports has a user outside the tests.

A name counts as used when it appears, other than on its own ``def`` or
``class`` line, in a package module, a demo, the benchmark or the README.
Code only the tests call belongs with the tests (`oracles`).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fuzzdec"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def user_lines():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    files.append(ROOT / "README.md")
    return [line for p in files for line in p.read_text(encoding="utf-8").splitlines()]


def test_every_export_has_a_user_outside_the_tests():
    lines = user_lines()
    unused = []
    for name in exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
