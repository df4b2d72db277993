"""Every public function, method, module-level class and module-level
constant of the package is referenced, by name or attribute, somewhere in
``src/ubmend`` or ``perfbench/``: an API that only tests use is deleted
with its last user.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ubmend").glob("*.py"))
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
# ``logging.Handler.emit`` is called by the standard library
EXCEPTIONS = {"emit"}


def referenced(sources: list[str]) -> set[str]:
    """Every name read and attribute named in ``sources``; a name only
    assigned is not read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def _module_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each class and each name assigned at module level."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return names


def unreferenced(defining: str, used: set[str]) -> list[str]:
    """Public functions, module-level classes and module-level constants
    defined in ``defining`` whose names are not in ``used``."""
    tree = ast.parse(defining)
    defined = [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ] + _module_level_names(tree)
    return [
        f"{name} (line {lineno})"
        for name, lineno in sorted(defined, key=lambda item: item[1])
        if not name.startswith("_") and name not in used | EXCEPTIONS
    ]


def test_the_check_sees_an_unreferenced_function():
    source = "class A:\n    def f(self): return g()\n    def h(self): pass\n    def _i(self): pass\ndef g(): pass\nA().f\n"
    assert unreferenced(source, referenced([source])) == ["h (line 3)"]


def test_the_check_sees_an_unreferenced_class_and_constant():
    source = "class A: pass\nclass B: pass\nX = 1\nY: int = 2\n_Z = 3\nB(); print(Y)\n"
    assert unreferenced(source, referenced([source])) == ["A (line 1)", "X (line 3)"]


def test_every_public_function_is_referenced_by_the_program():
    used = referenced([path.read_text(encoding="utf-8") for path in READERS])
    found = {path.name: unreferenced(path.read_text(encoding="utf-8"), used) for path in MODULES}
    assert {name: names for name, names in found.items() if names} == {}
