"""``hashed_features`` walks up the parse tree; the span search it replaced
is kept here as the reference.

The reference gives a node the smallest node of the pruned list whose span
holds its own, the earlier in pre-order on a tie, and never makes the later
of two nodes with one span the earlier's parent. Both must give the same
features and vectors on every fixture, on the large benchmark targets and
on generated nests of items, a file with no trailing newline among them,
where a top-level item spans as much as the root.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR
from ubmend.detector import UbKind, UbReport
from ubmend.errors import LexFailure
from ubmend.kb import VECTOR_DIMS, AstNode, FeatureVector, _bucket, extract_ast, hashed_features, prune, vectorize

UB_MARK = re.compile(r"//~UB")


def containment_features(pruned: list[AstNode], ub_kinds=()) -> list[str]:
    feats: list[str] = []
    for n in pruned:
        parent: AstNode | None = None
        for m in pruned:
            if m.id == n.id:
                continue
            if m.span[0] <= n.span[0] and n.span[1] <= m.span[1]:
                if m.span == n.span and m.id > n.id:
                    continue
                if parent is None or (m.span[1] - m.span[0]) < (parent.span[1] - parent.span[0]):
                    parent = m
        feats.append(f"{parent.kind}>{n.kind}" if parent else f"^{n.kind}")
    feats.extend(f"ub:{k.value}" for k in ub_kinds)
    return feats


def containment_vector(pruned: list[AstNode], ub_kinds=()) -> FeatureVector:
    values = [0.0] * VECTOR_DIMS
    for feat in containment_features(pruned, ub_kinds):
        values[_bucket(feat)] += 1.0
    return FeatureVector(values)


def assert_same_as_containment(source: str, reports: list[UbReport]) -> None:
    ast = extract_ast(source)
    kinds = sorted({r.kind for r in reports}, key=lambda k: k.value)
    for pruned in (ast.nodes, prune(ast), prune(ast, reports)):
        assert hashed_features(pruned, kinds) == containment_features(pruned, kinds)
        assert vectorize(pruned, kinds) == containment_vector(pruned, kinds)


def _marked_reports(source: str) -> list[UbReport]:
    """A report on each line the stub detector would flag."""
    return [
        UbReport(UbKind.UNKNOWN, "main.rs", n, "marked")
        for n, line in enumerate(source.splitlines(), 1)
        if UB_MARK.search(line)
    ]


FIXTURE_SOURCES = sorted(FIXTURES_DIR.rglob("*.rs"))


@pytest.mark.parametrize("path", FIXTURE_SOURCES, ids=lambda p: str(p.relative_to(FIXTURES_DIR)))
def test_parent_walk_matches_containment_on_each_fixture(path: Path):
    source = path.read_text(encoding="utf-8")
    try:
        extract_ast(source)
    except LexFailure:
        pytest.skip("the fixture does not lex")
    assert_same_as_containment(source, _marked_reports(source))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parent_walk_matches_containment_on_the_large_targets(seed, tmp_path, perfbench_gen):
    for case in perfbench_gen.large_cases(seed, tmp_path):
        source = case.path.read_text(encoding="utf-8")
        assert_same_as_containment(source, _marked_reports(source))


def test_a_whole_file_item_gives_way_to_the_root():
    # no trailing newline: ``fn main`` spans the whole file, as the root does
    source = "fn main() { unsafe { f() } }"
    ast = extract_ast(source)
    assert ast.nodes[1].span == ast.nodes[0].span
    assert hashed_features(ast.nodes) == ["^file", "file>fn", "file>unsafe_block"]
    assert_same_as_containment(source, [])


_HEADS = (
    "", "fn f()", "unsafe fn g(p: *mut i32)", "impl S", "mod m", "loop", "while go",
    "for i in v", "let y = unsafe", "unsafe", "match p", "struct T", "unsafe impl Send for S",
)
_LINES = ("", "p += 1;", "let q = *p;", "call(p);", "// unsafe in a comment", 'let s = "unsafe";')


def _render(node, indent: str) -> str:
    head, line, children = node
    body = "".join(_render(child, indent + "    ") for child in children)
    opener = f"{head} {{" if head else "{"
    return f"{indent}{opener}\n{indent}    {line}\n{body}{indent}}}\n"


_ITEMS = st.recursive(
    st.tuples(st.sampled_from(_HEADS), st.sampled_from(_LINES), st.just(())),
    lambda inner: st.tuples(
        st.sampled_from(_HEADS), st.sampled_from(_LINES), st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=12,
)


@st.composite
def _files(draw) -> tuple[str, list[UbReport]]:
    items = draw(st.lists(_ITEMS, min_size=1, max_size=3))
    source = draw(st.sampled_from(["", "\n", "use std::ptr;\n"])) + "".join(_render(i, "") for i in items)
    if not draw(st.booleans()):
        source = source.rstrip("\n")
    lines = source.count("\n") + 1
    reports = [
        UbReport(draw(st.sampled_from(list(UbKind))), "main.rs", line, "generated")
        for line in draw(st.lists(st.integers(1, lines), max_size=3))
    ]
    return source, reports


@settings(max_examples=300, deadline=None)
@given(_files())
@example(("unsafe fn f(p: *mut i32) {\n    loop {\n        unsafe { *p += 1 }\n    }\n}", []))
@example(("fn main() {\n    let y = unsafe {\n        call(p);\n    };\n}", [UbReport(UbKind.ALLOC, "main.rs", 3, "m")]))
def test_parent_walk_matches_containment_on_generated_nests(case):
    source, reports = case
    assert_same_as_containment(source, reports)
