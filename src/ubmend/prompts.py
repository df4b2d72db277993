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
    ``println!("{context}")`` reaches the prompt as it is.

    ValueError when a keyword names no placeholder of the template, or a
    placeholder is given no value: a value no template reads is computed
    for nothing, and an unfilled one would reach the model as it is."""
    names = set(_PLACEHOLDER_RE.findall(template))
    if names != values.keys():
        unused, missing = sorted(values.keys() - names), sorted(names - values.keys())
        raise ValueError(f"template placeholders unmatched: unused {unused}, missing {missing}")
    return _PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], template)
