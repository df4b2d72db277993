"""Prompt template loading. Templates are editable package data files."""
from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    return (resources.files("ubmend") / f"data/prompts/{name}").read_text("utf-8")


def fill(template: str, **values: str) -> str:
    """Each ``{key}`` of the template replaced by its value, in one pass:
    a value is never searched for placeholders, so code such as
    ``println!("{context}")`` reaches the prompt as it is."""
    return _PLACEHOLDER_RE.sub(lambda m: values.get(m.group(1), m.group(0)), template)
