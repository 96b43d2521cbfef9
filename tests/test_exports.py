"""Every name the package exports has a user outside the tests.

A name counts as used when it is a name, an attribute or an imported name
in the code of a package module, a demo or a benchmark script, or when it
appears inside a code span or a code fence of the README.  Prose does not
count, and neither does a name's own ``def`` or ``class``.  Code only the
tests call belongs with the tests (`oracles`).
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


def used_names():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.name.rpartition(".")[2], node.asname))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for code in re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S):
        names.update(re.findall(r"\w+", code))
    return names


def test_every_export_has_a_user_outside_the_tests():
    used = used_names()
    assert [name for name in exported_names() if name not in used] == []
