"""A run's working copy, case memo and memoised provider are made in
``cli.py`` (``cmd_fix``, ``_bench_case``, ``repair_one``) and passed down:
no other module of ``src/ubmend`` makes one, by a call or as a dataclass
field's ``default_factory``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "ubmend"
RUN_STATE = {"CaseMemo", "WorkingCopy", "MemoizedProvider"}


def _made(node: ast.AST) -> str | None:
    """The run-state class that ``node`` calls, or names as a default factory."""
    if not isinstance(node, ast.Call):
        return None
    for made in [node.func, *(kw.value for kw in node.keywords if kw.arg == "default_factory")]:
        name = getattr(made, "id", getattr(made, "attr", None))
        if name in RUN_STATE:
            return name
    return None


def test_only_cli_makes_a_runs_copy_memo_and_provider():
    made = [
        (path.name, node.lineno, name)
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (name := _made(node)) is not None
    ]
    assert [m for m in made if m[0] != "cli.py"] == []
    assert {name for _, _, name in made} == RUN_STATE
