"""README's flag documentation matches the argument parser."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from ubmend.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _options(parser: argparse.ArgumentParser) -> set[str]:
    return {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(sub.choices)


def _shared_flags_table(text: str) -> set[str]:
    """The flags named in the first column of the "Shared flags" table."""
    rows = text.split("Shared flags:", 1)[1].strip().split("\n\n", 1)[0].splitlines()
    flags: set[str] = set()
    for row in rows[2:]:  # after the header and the separator
        flags.update(re.findall(r"--[a-z][a-z-]*", row.split("|")[1]))
    return flags


def test_shared_flags_table_lists_exactly_the_shared_options():
    commands = _subcommands()
    shared = set.intersection(*(_options(p) for p in commands.values()))
    assert _shared_flags_table(README.read_text(encoding="utf-8")) == shared


def test_readme_names_each_subcommand_option():
    commands = _subcommands()
    shared = set.intersection(*(_options(p) for p in commands.values()))
    own = {name: _options(p) - shared for name, p in commands.items()}
    assert own == {"fix": {"--reference"}, "bench": {"--jobs"}}
    text = README.read_text(encoding="utf-8")
    for name, options in own.items():
        for option in options:
            assert f"`{name}` also takes `{option}" in text
