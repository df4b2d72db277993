"""Every parameter with a default, of a function in ``src/ubmend``, is
passed by keyword or by position by some call in ``src/ubmend`` or
``perfbench/``: a knob no caller turns is deleted, and its default becomes
the code.

Calls are matched to definitions by name, so a call passes its arguments to
every function of that name; ``C(...)`` calls ``C.__init__``. A call through
a module-level dict of functions (``AGENT_FUNCTIONS[kind](...)``) is a call
of each function in the dict. A ``*args`` passes every position from its
own on, and a ``**kwargs`` every keyword.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ubmend").glob("*.py"))
CALLERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
# test seams the acceptance tests pin: acceptance 05 passes compute_ci a
# confidence, and acceptance 03 scripts the mock's answers with rules
EXCEPTIONS = {"compute_ci(confidence)", "ScriptedMockProvider(rules)"}


@dataclass
class Call:
    positions: int  # positional arguments before the first ``*args``
    starred: bool
    keywords: set[str]
    double_starred: bool

    def passes(self, param: str, position: int | None) -> bool:
        if param in self.keywords or self.double_starred:
            return True
        return position is not None and (position < self.positions or self.starred)


def knobs(source: str) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position in a call) of each parameter with a
    default; a method's positions count from after ``self``, and a
    keyword-only parameter has none."""
    tree = ast.parse(source)
    owner: dict[int, str] = {}  # id of a method that takes self or cls -> its class
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not any(
                    getattr(d, "id", None) == "staticmethod" for d in item.decorator_list
                ):
                    owner[id(item)] = cls.name
    out: list[tuple[str, str, int | None]] = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = owner[id(fn)] if fn.name == "__init__" and id(fn) in owner else fn.name
        skip = 1 if id(fn) in owner else 0
        positional = [*fn.args.posonlyargs, *fn.args.args]
        first = len(positional) - len(fn.args.defaults)
        out += [(name, arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
        out += [
            (name, arg.arg, None)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None
        ]
    return out


def _function_tables(trees: list[ast.Module]) -> dict[str, list[str]]:
    """Name -> function names of each module-level dict whose values are names."""
    return {
        target.id: [value.id for value in node.value.values]
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and node.value.values and all(isinstance(v, ast.Name) for v in node.value.values)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def calls(sources: list[str]) -> dict[str, list[Call]]:
    """Callee name -> every call of that name in ``sources``."""
    trees = [ast.parse(source) for source in sources]
    tables = _function_tables(trees)
    out: dict[str, list[Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Subscript):
                table = func.value
                names = tables.get(getattr(table, "id", None) or getattr(table, "attr", None), [])
            else:
                names = [getattr(func, "id", None) or getattr(func, "attr", None)]
            stars = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)]
            call = Call(
                positions=stars[0] if stars else len(node.args),
                starred=bool(stars),
                keywords={k.arg for k in node.keywords if k.arg is not None},
                double_starred=any(k.arg is None for k in node.keywords),
            )
            for name in names:
                out.setdefault(name, []).append(call)
    return out


def unturned(defining: str, seen: dict[str, list[Call]]) -> list[str]:
    """``function(parameter)`` for each knob of ``defining`` no call passes."""
    return [
        f"{name}({param})"
        for name, param, position in knobs(defining)
        if not any(call.passes(param, position) for call in seen.get(name, ()))
        and f"{name}({param})" not in EXCEPTIONS
    ]


def test_the_check_sees_a_knob_no_call_turns():
    source = (
        "class A:\n"
        "    def __init__(self, a=1, b=2): pass\n"
        "    def f(self, x, y=0, *, z=None): pass\n"
        "def g(p, q=1, r=2): pass\n"
        "def h(s=0): pass\n"
        "T = {1: h}\n"
        "A(5).f(1, z=3)\n"
        "g(*[1, 2])\n"
        "T[1](7)\n"
    )
    assert unturned(source, calls([source])) == ["A(b)", "f(y)"]


def test_every_knob_is_turned_by_the_program():
    seen = calls([path.read_text(encoding="utf-8") for path in CALLERS])
    found = {path.name: unturned(path.read_text(encoding="utf-8"), seen) for path in MODULES}
    assert {name: knobs for name, knobs in found.items() if knobs} == {}
