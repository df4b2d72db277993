"""README's Layout section names every module of the package."""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _layout_modules(text: str) -> set[str]:
    """The module names that open a line of the Layout section's listing."""
    section = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^  (\S+\.py) ", section, flags=re.MULTILINE))


def test_layout_lists_exactly_the_package_modules():
    modules = {path.name for path in (REPO / "src" / "ubmend").glob("*.py")}
    assert _layout_modules((REPO / "README.md").read_text(encoding="utf-8")) == modules
