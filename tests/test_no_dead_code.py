"""Every public function, class, method and property in the library or the
benchmark has a caller there: a name that only its own test reaches is
dead code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "decor").glob("*.py") if p.name != "__init__.py"]
    + [p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")]
)


def _names(node: ast.AST) -> list[str]:
    """Every name `node` reads, imports or looks up as an attribute."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.append(sub.attr)
        elif isinstance(sub, ast.alias):
            found.append(sub.name)
    return found


def _definitions(tree: ast.Module):
    """The module's top-level functions and classes, and the methods and
    properties of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (member for member in node.body if isinstance(member, ast.FunctionDef))


def test_every_public_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    uses: dict[str, int] = {}
    for tree in trees.values():
        for name in _names(tree):
            uses[name] = uses.get(name, 0) + 1
    unused = []
    for path, tree in trees.items():
        for node in _definitions(tree):
            if not node.name.startswith("_"):
                # references inside its own body (recursion) do not count
                if uses.get(node.name, 0) == _names(node).count(node.name):
                    unused.append(f"{path.relative_to(ROOT)}: {node.name}")
    assert unused == []
