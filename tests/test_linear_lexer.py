"""The one-pass lexer against the character-stepping scans it replaced.

``mask_comments_and_strings`` jumps between token starts and
``locate_unsafe_regions`` pairs braces once; the reference versions below
step one character at a time and rescan the file for every region, as the
lexer used to. They are kept here as oracles only.
"""
from __future__ import annotations

import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ubmend import classifier
from ubmend.classifier import locate_unsafe_regions
from ubmend.errors import LexFailure
from ubmend.lexutil import brace_pairs, keyword_occurrences, mask_comments_and_strings

_CHAR_LIT_RE = re.compile(r"'(\\[^']*|[^'\\])'")
_PREFIXED_RAW = re.compile(r'(?<!\w)[bc]r[#"]')

MASK_TEXT = st.text(alphabet=list("/*\"'rbc#\\\n{}a_ "), max_size=60)
RUST_TOKENS = [
    "unsafe ", "unsafe", "fn ", "fn f() ", "fn() ", "impl ", "impl T for S ", ": ", "]", "{", "}", ";",
    "\n", " ", "x", "*p", "//", "/*", "*/", '"', "'", "'a", 'r#"', '"#', 'br"', "\\",
]
RUST_TEXT = st.lists(st.sampled_from(RUST_TOKENS), max_size=40).map("".join)


def _stepping_lex(source: str) -> tuple[str, bool]:
    """The masker as it was before prefixed raw strings: one character per step.

    Also says whether the source ends inside an ordinary string, whose last
    character this masker left unblanked.
    """
    out = list(source)
    i, n = 0, len(source)
    open_at_end = False

    def blank(a: int, b: int) -> None:
        for j in range(a, min(b, n)):
            if out[j] != "\n":
                out[j] = " "

    def skip_raw_string(start: int) -> int:
        j = start + 1
        hashes = 0
        while j < n and source[j] == "#":
            hashes += 1
            j += 1
        if j >= n or source[j] != '"':
            return start
        closer = '"' + "#" * hashes
        end = source.find(closer, j + 1)
        end = n if end == -1 else end + len(closer)
        blank(start, end)
        return end

    while i < n:
        c = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = source.find("\n", i)
            j = n if j == -1 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            depth, j = 1, i + 2
            while j < n and depth:
                if source.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif source.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif c == "r" and nxt in ('"', "#") and (i == 0 or not source[i - 1].isalnum() and source[i - 1] != "_"):
            j = skip_raw_string(i)
            i = j if j > i else i + 1
        elif c == "b" and nxt == '"':
            i += 1
        elif c == '"':
            j = i + 1
            while j < n:
                if source[j] == "\\":
                    j += 2
                elif source[j] == '"':
                    j += 1
                    break
                else:
                    j += 1
            else:
                open_at_end = True
            blank(i + 1, j - 1)
            i = j
        elif c == "'":
            m = _CHAR_LIT_RE.match(source, i)
            if m:
                blank(i + 1, m.end() - 1)
                i = m.end()
            else:
                i += 1
        else:
            i += 1
    return "".join(out), open_at_end


def _forward_close(masked: str, open_idx: int) -> int | None:
    """The ``}`` closing ``masked[open_idx]`` by a forward depth count."""
    depth = 0
    for j in range(open_idx, len(masked)):
        if masked[j] == "{":
            depth += 1
        elif masked[j] == "}":
            depth -= 1
            if depth == 0:
                return j
    return None


def _rescanning_locate(source: str) -> list[tuple]:
    """Region location that rescans the file for every region's enclosing item."""
    masked = mask_comments_and_strings(source)
    regions: list[tuple] = []
    for start in keyword_occurrences(masked, "unsafe"):
        if regions and start < regions[-1][0][1]:
            continue
        brace = masked.find("{", start)
        semi = masked.find(";", start)
        if brace == -1 and semi == -1:
            line = source.count("\n", 0, start) + 1
            raise LexFailure(f"main.rs:{line}: unterminated unsafe item at offset {start}")
        if brace != -1 and (semi == -1 or brace < semi):
            close = _forward_close(masked, brace)
            if close is None:
                line = source.count("\n", 0, brace) + 1
                raise LexFailure(f"main.rs:{line}: unbalanced braces from offset {brace}")
            end = close + 1
        else:
            end = semi + 1
        best = None
        for kw in ("fn", "impl"):
            for kw_start in keyword_occurrences(masked, kw):
                if kw_start >= start:
                    break
                # ``fn`` with no name and ``impl`` where no item can start are types
                if kw == "fn" and not re.match(r"fn\s+(r#)?[A-Za-z_]", masked[kw_start:]):
                    continue
                if kw == "impl" and not re.search(r"(\A|[;{}\]]|\bunsafe|\bdefault)\s*\Z", masked[:kw_start]):
                    continue
                item_brace = masked.find("{", kw_start)
                item_close = None if item_brace == -1 else _forward_close(masked, item_brace)
                if item_close is not None and end <= item_close + 1:
                    if best is None or kw_start > best[0]:
                        best = (kw_start, item_close + 1)
        if best:
            context = source[best[0]:best[1]]
        else:
            line_start = source.rfind("\n", 0, start) + 1
            ctx_end = source.find("\n", min(len(source), end))
            context = source[line_start:len(source) if ctx_end == -1 else ctx_end]
        regions.append(((start, end), source[start:end], context))
    return regions


def _outcome(locate, source: str):
    try:
        return locate(source)
    except LexFailure as exc:
        return str(exc)


def _located(source: str) -> list[tuple]:
    return [
        (r.byte_span, r.snippet, r.enclosing_context)
        for r in locate_unsafe_regions(source, "main.rs")
    ]


@settings(max_examples=400, deadline=None)
@given(MASK_TEXT)
def test_mask_matches_stepping_masker(source):
    # the intended differences: prefixed raw strings (br"..", cr#".."#), and
    # an ordinary string left open at the end, now blanked to the end
    assume(not _PREFIXED_RAW.search(source))
    masked, open_at_end = _stepping_lex(source)
    assume(not open_at_end)
    assert mask_comments_and_strings(source) == masked


@settings(max_examples=400, deadline=None)
@given(MASK_TEXT)
def test_mask_only_blanks(source):
    masked = mask_comments_and_strings(source)
    assert len(masked) == len(source)
    for ch, out in zip(source, masked):
        assert out == ch or (out == " " and ch != "\n")


@settings(max_examples=300, deadline=None)
@given(RUST_TEXT)
def test_brace_pairs_match_forward_depth_count(source):
    masked = mask_comments_and_strings(source)
    pairs = brace_pairs(masked)
    for i, ch in enumerate(masked):
        if ch == "{":
            assert pairs.get(i) == _forward_close(masked, i)
    assert all(masked[i] == "{" for i in pairs)


@settings(max_examples=400, deadline=None)
@given(RUST_TEXT)
def test_locate_matches_rescanning_oracle(source):
    assert _outcome(_located, source) == _outcome(_rescanning_locate, source)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_locate_matches_rescanning_oracle_on_large_targets(perfbench_gen, seed):
    rng = random.Random(f"large-target:{seed}")
    for count, size in perfbench_gen.LARGE_TARGETS:
        source, _ = perfbench_gen.large_target(rng, count, size)
        located = _located(source)
        assert len(located) == count
        assert located == _rescanning_locate(source)


def test_locate_lexes_the_file_once(monkeypatch):
    calls = {"mask": 0, "pairs": 0, "keywords": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(classifier, "mask_comments_and_strings", counted("mask", mask_comments_and_strings))
    monkeypatch.setattr(classifier, "brace_pairs", counted("pairs", brace_pairs))
    monkeypatch.setattr(classifier, "keyword_occurrences", counted("keywords", keyword_occurrences))
    source = "".join(
        f"fn f{i}(p: *const u8) -> u8 {{\n    let v = unsafe {{ *p }};\n    v\n}}\n" for i in range(20)
    )
    assert len(locate_unsafe_regions(source, "main.rs")) == 20
    assert calls["mask"] == 1
    assert calls["pairs"] == 1
    assert calls["keywords"] <= 3
