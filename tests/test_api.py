"""The library ships only what something uses.

A public top-level function or class of ``src/ergot`` must be read by other
library code, documented in the README, or be a console-script entry point.
Test oracles and test-only helpers live under ``tests/`` instead.
"""

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "ergot"


def test_every_public_name_has_a_user():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # every read of a name, as (file, line), outside the package's re-exports
    uses: dict[str, list[tuple[str, int]]] = {}
    for file, tree in trees.items():
        if file == "__init__.py":
            continue
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                uses.setdefault(name, []).append((file, node.lineno))
    readme = (ROOT / "README.md").read_text()
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    entry_points = {target.rpartition(":")[2] for target in scripts.values()}

    unused = []
    for file, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            outside = [(f, line) for f, line in uses.get(node.name, ())
                       if not (f == file and node.lineno <= line <= node.end_lineno)]
            if (outside or re.search(rf"\b{node.name}\b", readme)
                    or node.name in entry_points):
                continue
            unused.append(f"{file[:-3]}.{node.name}")
    assert not unused, "public names with no user: " + ", ".join(unused)
