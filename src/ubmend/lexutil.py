"""Lexical helpers shared by the region locator and the AST builder.

Everything operates on plain text. The goal is robustness on sources the
detection tool itself rejects, not parsing fidelity.
"""
from __future__ import annotations

import re

RUST_KEYWORDS = frozenset(
    """
    as async await break const continue crate dyn else enum extern false fn
    for if impl in let loop match mod move mut pub ref return self Self
    static struct super trait true type union unsafe use where while
    """.split()
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CHAR_LIT_RE = re.compile(r"'(\\[^']*|[^'\\])'")
# Where a comment, string or char literal can start. A raw-string prefix
# must not continue an identifier.
_TOKEN_START_RE = re.compile(r"""//|/\*|["']|(?<!\w)[bc]?r[#"]""")
_BLOCK_DELIM_RE = re.compile(r"/\*|\*/")
_STRING_STOP_RE = re.compile(r'[\\"]')
_BRACE_RE = re.compile(r"[{}]")


def mask_comments_and_strings(source: str) -> str:
    """Return ``source`` with comment and string interiors blanked to spaces.

    Offsets and newlines are preserved, so spans computed on the masked text
    are valid in the original. Handles line comments, nested block comments,
    raw strings (``r"..."``, ``r#"..."#`` and their ``b``/``c`` prefixed
    forms), byte strings, and char literals. Lifetimes (``'a``) pass through
    untouched.
    """
    spans: list[tuple[int, int]] = []
    i, n = 0, len(source)
    while True:
        m = _TOKEN_START_RE.search(source, i)
        if m is None:
            break
        i = m.start()
        tok = m.group(0)
        if tok == "//":
            j = source.find("\n", i)
            j = n if j == -1 else j
            spans.append((i, j))
        elif tok == "/*":
            depth, j = 1, i + 2
            while depth:
                d = _BLOCK_DELIM_RE.search(source, j)
                if d is None:
                    j = n
                    break
                depth += 1 if d.group(0) == "/*" else -1
                j = d.end()
            spans.append((i, j))
        elif tok == '"':
            j, end = i + 1, n  # an unterminated string runs to the end of the file
            while j < n:
                d = _STRING_STOP_RE.search(source, j)
                if d is None:
                    break
                if d.group(0) == "\\":
                    j = d.start() + 2
                else:
                    end = d.start()
                    break
            spans.append((i + 1, end))
            j = end + 1
        elif tok == "'":
            c = _CHAR_LIT_RE.match(source, i)
            if c:
                spans.append((i + 1, c.end() - 1))
            j = c.end() if c else i + 1
        else:  # r, br or cr, then a hash or the opening quote
            j = _raw_string_end(source, i + len(tok) - 1)
            if j == -1:
                j = i + 1
            else:
                spans.append((i, j))
        i = j
    out: list[str] = []
    done = 0
    for a, b in spans:
        b = min(b, n)
        if a >= b:
            continue
        out.append(source[done:a])
        out.append("\n".join(" " * len(part) for part in source[a:b].split("\n")))
        done = b
    out.append(source[done:])
    return "".join(out)


def _raw_string_end(source: str, hashes_at: int) -> int:
    """End offset of the raw string whose ``#``s or quote start at ``hashes_at``.

    Returns -1 when no quote follows the hashes (``r#ident``, say).
    """
    j = hashes_at
    while j < len(source) and source[j] == "#":
        j += 1
    if j >= len(source) or source[j] != '"':
        return -1
    closer = '"' + "#" * (j - hashes_at)
    end = source.find(closer, j + 1)
    return len(source) if end == -1 else end + len(closer)


def brace_pairs(masked: str) -> dict[int, int]:
    """Map each ``{`` offset in ``masked`` to the offset of its matching ``}``.

    One stack pass; a ``{`` that is never closed is absent, and a stray
    ``}`` closes nothing.
    """
    pairs: dict[int, int] = {}
    stack: list[int] = []
    for m in _BRACE_RE.finditer(masked):
        if m.group(0) == "{":
            stack.append(m.start())
        elif stack:
            pairs[stack.pop()] = m.start()
    return pairs


def identifiers(text: str) -> set[str]:
    """Non-keyword identifiers occurring in ``text``."""
    return {m.group(0) for m in _IDENT_RE.finditer(text)} - RUST_KEYWORDS


def keyword_occurrences(masked: str, keyword: str) -> list[int]:
    """Offsets of whole-word ``keyword`` in already-masked text."""
    return [m.start() for m in re.finditer(rf"\b{re.escape(keyword)}\b", masked)]


def estimate_tokens(text: str) -> int:
    """Cheap provider-token estimate, about four characters per token."""
    return max(1, (len(text) + 3) // 4)


def line_of_offset(source: str, offset: int) -> int:
    """1-based line number containing ``offset``."""
    return source.count("\n", 0, max(0, offset)) + 1


def line_span(source: str, line: int) -> tuple[int, int]:
    """(start, end) offsets of a 1-based line, excluding the newline."""
    start = 0
    for _ in range(line - 1):
        nl = source.find("\n", start)
        if nl == -1:
            return len(source), len(source)
        start = nl + 1
    end = source.find("\n", start)
    return start, len(source) if end == -1 else end
