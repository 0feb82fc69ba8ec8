"""The library ships only what something uses.

A public top-level function or class of ``src/ergot`` must be read by other
library code, documented in the README, or be a console-script entry point.
A private top-level function or class and a module-level UPPER_CASE constant
must be read by library code outside their own definition or be named in the
README.
Test oracles and test-only helpers live under ``tests/`` instead.
"""

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "ergot"
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def top_level_names():
    """(file, name, node) for each top-level def, class and UPPER_CASE constant of src/ergot."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield file, node.name, node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                        yield file, target.id, node


def unread(names, entry_points=()):
    """file.name for each of names with no reader in src/ergot outside its own definition.

    Reads in the package's re-exports (__init__.py) do not count; a mention
    in the README or an entry among entry_points does.
    """
    uses: dict[str, list[tuple[str, int]]] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                uses.setdefault(name, []).append((path.name, node.lineno))
    readme = (ROOT / "README.md").read_text()
    return [f"{file[:-3]}.{name}" for file, name, node in names
            if not (any(not (f == file and node.lineno <= line <= node.end_lineno)
                        for f, line in uses.get(name, ()))
                    or re.search(rf"\b{name}\b", readme) or name in entry_points)]


def test_every_public_name_has_a_user():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    entry_points = {target.rpartition(":")[2] for target in scripts.values()}
    public = [(file, name, node) for file, name, node in top_level_names()
              if not isinstance(node, (ast.Assign, ast.AnnAssign)) and not name.startswith("_")]
    unused = unread(public, entry_points)
    assert not unused, "public names with no user: " + ", ".join(unused)


def test_every_private_function_and_constant_has_a_reader():
    private = [(file, name, node) for file, name, node in top_level_names()
               if isinstance(node, (ast.Assign, ast.AnnAssign)) or name.startswith("_")]
    assert any(name == "TAU_LP" for _, name, _ in private)
    unused = unread(private)
    assert not unused, "private functions and constants with no reader: " + ", ".join(unused)
