"""``prompts.fill``: every placeholder filled, every value used, values left as they are."""

from __future__ import annotations

import pytest

from ubmend.prompts import fill


def test_fill_replaces_each_placeholder():
    assert fill("a {x} b {y} c {x}", x="1", y="2") == "a 1 b 2 c 1"


def test_a_value_no_placeholder_takes_is_an_error():
    with pytest.raises(ValueError, match=r"unused \['stale'\]"):
        fill("plan for {features}", features="F", stale="computed for nothing")


def test_a_placeholder_left_unfilled_is_an_error():
    with pytest.raises(ValueError, match=r"missing \['tried'\]"):
        fill("plan for {features}\n{tried}", features="F")


def test_code_in_a_value_is_not_searched_for_placeholders():
    code = 'println!("{context} {x}")'
    assert fill("Region:\n{snippet}\nContext:\n{context}", snippet=code, context="ctx") == (
        'Region:\nprintln!("{context} {x}")\nContext:\nctx'
    )
