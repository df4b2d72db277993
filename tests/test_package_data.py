"""Every data file the package reads is one an installed wheel would carry.

Tests run from ``src/``, where every file is present, so a data file that
no ``[tool.setuptools.package-data]`` glob in ``pyproject.toml`` names would
only go missing after ``pip install``. The entry is parsed by hand:
``tomllib`` is not in Python 3.10.
"""
from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ubmend"


def _package_data_globs() -> dict[str, list[str]]:
    """The ``[tool.setuptools.package-data]`` table: package -> globs."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[tool\.setuptools\.package-data\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section is not None, "pyproject.toml has no [tool.setuptools.package-data] table"
    return {
        name: re.findall(r'"([^"]*)"', items)
        for name, items in re.findall(r"^([\w.-]+)\s*=\s*\[(.*?)\]", section.group(1), re.M | re.S)
    }


def test_package_data_globs_parse():
    assert _package_data_globs() == {"ubmend": ["data/*.tsv", "data/prompts/*.txt"]}


def test_every_data_file_matches_a_package_data_glob():
    shipped = {path for pattern in _package_data_globs()["ubmend"] for path in PACKAGE.glob(pattern)}
    data = {path for path in (PACKAGE / "data").rglob("*") if path.is_file()}
    assert data, "no data files found"
    assert sorted(str(p.relative_to(PACKAGE)) for p in data - shipped) == []
