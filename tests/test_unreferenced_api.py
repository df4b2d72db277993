"""Every public function and method of the package is referenced, by name
or attribute, somewhere in ``src/ubmend`` or ``perfbench/``: an API that
only tests call is deleted with its last caller.
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
    """Every name read and attribute named in ``sources``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def unreferenced(defining: str, used: set[str]) -> list[str]:
    """Public functions defined in ``defining`` whose names are not in ``used``."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(defining))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in used | EXCEPTIONS
    ]


def test_the_check_sees_an_unreferenced_function():
    source = "class A:\n    def f(self): return g()\n    def h(self): pass\n    def _i(self): pass\ndef g(): pass\nA().f\n"
    assert unreferenced(source, referenced([source])) == ["h (line 3)"]


def test_every_public_function_is_referenced_by_the_program():
    used = referenced([path.read_text(encoding="utf-8") for path in READERS])
    found = {path.name: unreferenced(path.read_text(encoding="utf-8"), used) for path in MODULES}
    assert {name: names for name, names in found.items() if names} == {}
