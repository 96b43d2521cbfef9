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



def private_names(node):
    """The underscore-prefixed names a top-level statement defines: a
    function, a class or an assigned constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def read_names(node):
    """The names ``node`` reads: loaded names, attributes and imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield from (n.name.rpartition(".")[2], n.asname)


def test_every_private_top_level_name_has_a_user_in_the_package():
    statements = [node for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    # a name counts as used where a statement other than its own definition reads it
    readers = {}
    for k, node in enumerate(statements):
        for name in read_names(node):
            readers.setdefault(name, set()).add(k)
    orphans = [name for k, node in enumerate(statements) for name in private_names(node)
               if not readers.get(name, set()) - {k}]
    assert orphans == []
