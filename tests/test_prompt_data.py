"""Every shipped prompt template is used, and every mock marker is shipped.

The scripted mock keys its answers off phrases the templates open with, so
a template no module names, or a ``MARKER_*`` phrase no template holds, is
dead weight a deletion left behind. Both checks read the sources with
``ast``, like ``test_unused_imports.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ubmend"
TEMPLATES = sorted((PACKAGE / "data" / "prompts").glob("*.txt"))


def _string_literals(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _markers(path: Path) -> dict[str, str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MARKER_")
    }


def test_every_prompt_template_is_named_in_the_package():
    literals = set().union(*(_string_literals(p) for p in PACKAGE.glob("*.py")))
    assert TEMPLATES
    assert [p.name for p in TEMPLATES if p.name not in literals] == []


def test_every_mock_marker_is_in_a_shipped_template():
    texts = [p.read_text(encoding="utf-8") for p in TEMPLATES]
    markers = _markers(PACKAGE / "provider.py")
    assert markers
    assert [name for name, phrase in markers.items() if not any(phrase in t for t in texts)] == []
