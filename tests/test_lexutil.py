"""Masking and offset helpers."""

from __future__ import annotations

import random

import pytest

from ubmend.lexutil import (
    brace_pairs,
    estimate_tokens,
    identifiers,
    keyword_occurrences,
    line_of_offset,
    line_span,
    mask_comments_and_strings,
)

SAMPLE = '''\
// leading comment with unsafe keyword
fn main() {
    let s = "unsafe { not code }";
    let c = 'u';
    /* block
       comment unsafe */
    unsafe { work(s, c); }
}
'''


def test_mask_preserves_length_and_newlines():
    masked = mask_comments_and_strings(SAMPLE)
    assert len(masked) == len(SAMPLE)
    assert [i for i, ch in enumerate(SAMPLE) if ch == "\n"] == [
        i for i, ch in enumerate(masked) if ch == "\n"
    ]


def test_mask_blanks_comments_and_strings_only():
    masked = mask_comments_and_strings(SAMPLE)
    assert "not code" not in masked
    assert "leading comment" not in masked
    assert "block" not in masked
    # code-level unsafe survives, commented/quoted ones do not
    assert len(keyword_occurrences(masked, "unsafe")) == 1
    assert "fn main" in masked
    assert "work(s, c)" in masked


def test_mask_handles_nested_block_comments():
    src = "a /* x /* y */ z */ b"
    masked = mask_comments_and_strings(src)
    assert masked.startswith("a ")
    assert masked.endswith(" b")
    assert "y" not in masked and "z" not in masked


def test_mask_handles_escapes_and_lifetimes():
    src = "let s = \"quote \\\" inside\"; let r: &'a str = s; let c = '\\n';"
    masked = mask_comments_and_strings(src)
    assert "inside" not in masked
    # lifetime tick must not open a char literal and eat the rest
    assert "str" in masked


def test_brace_pairs():
    src = "fn f() { if x { y } else { z } }"
    pairs = brace_pairs(mask_comments_and_strings(src))
    open_idx = src.index("{")
    assert pairs[open_idx] == len(src) - 1
    inner = src.index("{", open_idx + 1)
    assert src[pairs[inner]] == "}"


def test_brace_pairs_unbalanced():
    src = "fn f() { oops"
    assert src.index("{") not in brace_pairs(mask_comments_and_strings(src))
    assert 0 not in brace_pairs(src)


@pytest.mark.parametrize("prefix", ["br", "cr"])
def test_mask_prefixed_raw_string_ends_at_its_quote(prefix):
    # a backslash does not escape in a raw string, so the literal ends at
    # the second quote and the block's closing brace stays code
    src = f'let v = unsafe {{ *q + {prefix}"\\".len() as u8 }};\nfn next() {{}}\n'
    masked = mask_comments_and_strings(src)
    assert masked == src.replace(f'{prefix}"\\"', " " * 5)
    assert brace_pairs(masked)[src.index("{")] == src.index("}")


@pytest.mark.parametrize("literal", ['br"C:\\"', 'br#"C:\\"#', 'cr"C:\\"', 'cr#"C:\\"#'])
def test_mask_prefixed_raw_string_before_code(literal):
    src = f"let p = {literal};\nunsafe {{ *q }}\n"
    masked = mask_comments_and_strings(src)
    assert masked == src.replace(literal, " " * len(literal))


def test_mask_raw_prefix_inside_identifier_is_not_raw():
    # `xbr` and `cbr` are identifiers; only the string after them is masked
    src = 'xbr"a\\"b"; cbr#x'
    assert mask_comments_and_strings(src) == 'xbr"    "; cbr#x'


@pytest.mark.parametrize(
    ("src", "masked"),
    [
        ('let s = "ab{', 'let s = "   '),
        ('let s = "ab\\', 'let s = "   '),
        ('let s = "a\\"}', 'let s = "    '),
    ],
)
def test_mask_unterminated_string_runs_to_end_of_file(src, masked):
    # the last character of an unterminated string is string, not code
    assert mask_comments_and_strings(src) == masked
    assert brace_pairs(masked) == {}


def test_identifiers_exclude_keywords():
    assert identifiers("let total_x = foo(bar2);") == {"total_x", "foo", "bar2"}
    assert identifiers("") == set()


def test_keyword_occurrences_word_boundary():
    masked = "unsafe unsafely not_unsafe unsafe"
    hits = keyword_occurrences(masked, "unsafe")
    assert hits == [0, len(masked) - 6]


def test_line_helpers():
    src = "aa\nbbb\n\ncc"
    assert line_of_offset(src, 0) == 1
    assert line_of_offset(src, 3) == 2
    assert line_of_offset(src, 8) == 4
    assert line_span(src, 1) == (0, 2)
    assert line_span(src, 2) == (3, 6)
    assert line_span(src, 3) == (7, 7)
    assert line_span(src, 4) == (8, 10)
    assert line_span(src, 99) == (len(src), len(src))


def test_line_span_round_trip_random():
    rng = random.Random(11)
    chars = "ab{}\"'/\n \n"
    for _ in range(50):
        src = "".join(rng.choice(chars) for _ in range(rng.randrange(1, 80)))
        for line in range(1, src.count("\n") + 2):
            start, end = line_span(src, line)
            assert 0 <= start <= end <= len(src)
            for off in range(start, end):
                assert line_of_offset(src, off) == line


def test_estimate_tokens_monotone():
    short = estimate_tokens("let x = 1;")
    long = estimate_tokens("let x = 1;\n" * 50)
    assert 0 < short < long


@pytest.mark.parametrize("src", ["", "//only comment", '"only string"'])
def test_mask_degenerate_inputs(src):
    assert len(mask_comments_and_strings(src)) == len(src)
