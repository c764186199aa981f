"""No dead private helpers in the package.

Every private top-level function, class or constant of ``src/toepcalc``, and
every private method, must be read somewhere in the package outside its own
definition: as a loaded name or a loaded attribute.  An import alone is not a
use, and a helper read only by the tests is dead code of the package.  A
recursive call reads the name inside the definition, and does count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toepcalc"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def definitions(tree: ast.Module) -> set[str]:
    """The private names a module defines at its top level and as methods of its top-level classes."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return set(filter(is_private, names))


def reads(tree: ast.Module) -> set[str]:
    """The names a module loads, bare or as attributes."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_private_helper_is_read_outside_its_definition():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    assert len(trees) >= 10
    defined = set().union(*map(definitions, trees))
    read = set().union(*map(reads, trees))
    assert len(defined) > 50 and sorted(defined - read) == []


def test_the_walk_sees_dead_and_recursive_helpers():
    tree = ast.parse(
        "_UNUSED = 1\n_USED = 2\n"
        "def _dead():\n    return _USED\n"
        "def _recursive(n):\n    return n and _recursive(n - 1)\n"
        "class _Box:\n    def _spare(self):\n        pass\n    def _kept(self):\n        return self._kept\n"
        "from x import _imported\n"
    )
    assert definitions(tree) == {"_UNUSED", "_USED", "_dead", "_recursive", "_Box", "_spare", "_kept"}
    assert definitions(tree) - reads(tree) == {"_UNUSED", "_dead", "_Box", "_spare"}
