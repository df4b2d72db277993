"""Unsafe-region location, operation classification, and fix-agent order."""

from __future__ import annotations

import pytest

from ubmend import classifier
from ubmend.classifier import (
    FIX_AGENTS,
    AgentKind,
    CodeFeature,
    UnsafeOpKind,
    UnsafeRegion,
    agent_order,
    classify_ops,
    has_safe_api_match,
    load_policy_table,
    locate_unsafe_regions,
)
from ubmend.detector import UbKind
from ubmend.errors import LexFailure, Unclassifiable


def _region(snippet: str, context: str = "") -> UnsafeRegion:
    return UnsafeRegion(
        file="main.rs",
        byte_span=(0, len(snippet)),
        snippet=snippet,
        enclosing_context=context or snippet,
    )


def _feature(snippet: str, context: str = "", ub_kinds=frozenset()) -> CodeFeature:
    region = _region(snippet, context)
    try:
        ops = classify_ops(region)
    except Unclassifiable:
        ops = frozenset()
    return CodeFeature(
        region=region, op_kinds=ops, ub_kinds=frozenset(ub_kinds), ref="main.rs#0",
    )


# --- locating regions ---


def test_locate_block_region():
    src = 'fn main() {\n    let x = unsafe { *p };\n    println!("{x}");\n}\n'
    regions = locate_unsafe_regions(src, "main.rs")
    assert len(regions) == 1
    r = regions[0]
    assert r.snippet == "unsafe { *p }"
    assert src[r.byte_span[0]:r.byte_span[1]] == r.snippet
    assert "fn main()" in r.enclosing_context


def test_locate_fn_and_bodyless_items():
    src = (
        "unsafe fn raw() -> i32 { 1 }\n"
        'extern "C" { fn imported(); }\n'
        "unsafe trait Marker;\n"
    )
    regions = locate_unsafe_regions(src, "lib.rs")
    assert [r.snippet.split()[1] for r in regions] == ["fn", "trait"]
    assert regions[0].snippet.endswith("{ 1 }")
    assert regions[1].snippet.endswith(";")


def test_locate_folds_nested_unsafe():
    src = "unsafe fn outer() {\n    unsafe { inner() }\n}\n"
    regions = locate_unsafe_regions(src, "main.rs")
    assert len(regions) == 1


def test_locate_ignores_masked_occurrences():
    src = '// unsafe\nlet s = "unsafe";\nfn main() {}\n'
    assert locate_unsafe_regions(src, "main.rs") == []


def test_locate_unterminated_raises():
    with pytest.raises(LexFailure, match="^main.rs:2: unterminated unsafe item at offset 3$"):
        locate_unsafe_regions("//\nunsafe", "main.rs")


def test_locate_multiple_in_file_order():
    src = "fn a() { unsafe { x() } }\nfn b() { unsafe { y() } }\n"
    regions = locate_unsafe_regions(src, "main.rs")
    assert len(regions) == 2
    assert regions[0].byte_span[1] <= regions[1].byte_span[0]


def test_a_function_pointer_type_opens_no_item():
    src = (
        "fn answer() -> i32 { 42 }\n"
        "fn main() {\n"
        "    let table: [fn() -> i32; 1] = [answer];\n"
        "    let via = unsafe { std::mem::transmute::<fn() -> i32, usize>(table[0]) };\n"
        "}\n"
    )
    (region,) = locate_unsafe_regions(src, "main.rs")
    assert region.enclosing_context == src[src.index("fn main"):].rstrip("\n")


def test_an_impl_trait_argument_opens_no_item():
    src = (
        "fn show(x: impl std::fmt::Display) -> impl Copy {\n"
        "    let p = &x as *const _;\n"
        "    unsafe { let _ = &*p; }\n"
        "    0\n"
        "}\n"
    )
    (region,) = locate_unsafe_regions(src, "main.rs")
    assert region.enclosing_context == src.rstrip("\n")


def test_a_top_level_unsafe_fn_is_its_own_context():
    src = "fn a() {}\nunsafe fn b(p: *const i32) -> i32 {\n    *p\n}\n"
    (region,) = locate_unsafe_regions(src, "main.rs")
    assert region.enclosing_context == region.snippet


def test_locate_after_prefixed_raw_string_with_backslash():
    # br"\\" is a raw byte string: the backslash escapes nothing
    src = 'fn main() {\n    let v = unsafe { *q + br"\\".len() as u8 };\n}\n'
    regions = locate_unsafe_regions(src, "main.rs")
    assert [r.snippet for r in regions] == ['unsafe { *q + br"\\".len() as u8 }']
    assert regions[0].enclosing_context == src.rstrip("\n")


def test_locate_region_after_raw_byte_path():
    src = 'fn main() {\n    let p = br"C:\\";\n    let v = unsafe { *q };\n}\n'
    regions = locate_unsafe_regions(src, "main.rs")
    assert [r.snippet for r in regions] == ["unsafe { *q }"]


def test_locate_unbalanced_block_raises():
    src = "fn main() {\n    unsafe {\n        *p;\n"
    brace = src.index("{", 12)
    with pytest.raises(LexFailure, match=f"^main.rs:2: unbalanced braces from offset {brace}$"):
        locate_unsafe_regions(src, "main.rs")


# --- classifying operations ---


def test_classify_raw_pointer_deref():
    ops = classify_ops(_region("unsafe { *ptr }"))
    assert UnsafeOpKind.RAW_POINTER_DEREF in ops


def test_classify_multiplication_is_not_deref():
    with pytest.raises(Unclassifiable):
        classify_ops(_region("unsafe { a * b }"))


def test_classify_raw_pointer_type_is_not_deref():
    # *const in a cast position must not read as a deref
    with pytest.raises(Unclassifiable):
        classify_ops(_region("unsafe { p as *const i32; }"))


def test_classify_unsafe_api_call():
    ops = classify_ops(_region("unsafe { v.get_unchecked(0) }"))
    assert ops == frozenset({UnsafeOpKind.UNSAFE_FN_CALL})


def test_classify_local_unsafe_fn_call():
    ctx = "unsafe fn danger() {}\nfn main() { unsafe { danger() } }"
    ops = classify_ops(_region("unsafe { danger() }", context=ctx))
    assert UnsafeOpKind.UNSAFE_FN_CALL in ops


def test_classify_extern_fn_call_qualifier_form():
    ctx = 'extern "C" fn callback(x: i32) -> i32 { x }\nfn main() { unsafe { callback(-1) } }'
    ops = classify_ops(_region("unsafe { callback(-1) }", context=ctx))
    assert UnsafeOpKind.UNSAFE_FN_CALL in ops


def test_classify_extern_block_call_falls_through():
    # declarations inside extern blocks are not resolved; the region stays
    # unclassified and downstream policy treats it semantics-first
    ctx = 'extern "C" { fn abs(x: i32) -> i32; }\nfn main() { unsafe { abs(-1) } }'
    with pytest.raises(Unclassifiable):
        classify_ops(_region("unsafe { abs(-1) }", context=ctx))


def test_classify_mutable_static_needs_declaration():
    ctx = "static mut COUNTER: i32 = 0;\nfn main() { unsafe { COUNTER += 1; } }"
    ops = classify_ops(_region("unsafe { COUNTER += 1; }", context=ctx))
    assert UnsafeOpKind.MUTABLE_STATIC_ACCESS in ops
    # same snippet without the declaration in scope stays unclassified
    with pytest.raises(Unclassifiable):
        classify_ops(_region("unsafe { COUNTER += 1; }", context="fn main() {}"))


def test_classify_union_field_access():
    ctx = "union Bits { i: i32, f: f32 }\nfn main() { let b = Bits { i: 1 }; }"
    ops = classify_ops(_region("unsafe { b.f }", context=ctx))
    assert UnsafeOpKind.UNION_FIELD_ACCESS in ops


def test_classify_unsafe_trait_impl():
    ops = classify_ops(_region("unsafe impl Send for Holder {}"))
    assert ops == frozenset({UnsafeOpKind.UNSAFE_TRAIT_IMPL})


def test_classify_directives_in_comments_are_invisible():
    snippet = "unsafe {\n    // *ptr deref mentioned in comment only\n    work()\n}"
    with pytest.raises(Unclassifiable):
        classify_ops(_region(snippet))


def test_classify_multiple_ops():
    ctx = "static mut FLAG: bool = false;\n"
    snippet = "unsafe { FLAG = true; *ptr.offset(1) }"
    ops = classify_ops(_region(snippet, context=ctx + snippet))
    assert UnsafeOpKind.MUTABLE_STATIC_ACCESS in ops
    assert UnsafeOpKind.UNSAFE_FN_CALL in ops
    assert UnsafeOpKind.RAW_POINTER_DEREF in ops


# --- catalogue and agent order ---


def test_catalogue_matches():
    assert has_safe_api_match("v.get_unchecked(i)")
    assert has_safe_api_match("mem::transmute::<u32, f32>(x)")
    assert not has_safe_api_match("slots[0] + slots[1]")


def test_policy_table_rows_are_permutations():
    table = load_policy_table()
    assert "default" in table
    for order in table.values():
        assert sorted(order) == sorted(FIX_AGENTS)


def test_a_policy_row_that_is_no_permutation_of_the_fix_agents_is_rejected_with_its_line(tmp_path, monkeypatch):
    # a row in the names the table no longer takes, or naming an agent that
    # patches nothing, fails the load with the line it stands on
    table = tmp_path / "data" / "strategy_policy.tsv"
    table.parent.mkdir()
    monkeypatch.setattr(classifier.resources, "files", lambda package: tmp_path)
    try:
        for row in ("SafeAlternative,AddAssertion,ModifySemantics", "Reason,AddAssertion,ModifySemantics"):
            table.write_text(f"# header\ndefault\tSafeReplace,AddAssertion,ModifySemantics\nvalidity\t{row}\n")
            load_policy_table.cache_clear()
            with pytest.raises(ValueError, match=rf"policy row 3 must permute the fix agents, not '{row}'"):
                load_policy_table()
    finally:
        load_policy_table.cache_clear()


def test_agent_order_kind_specific():
    f = _feature("unsafe { *ptr }", ub_kinds={UbKind.STACK_BORROW})
    assert agent_order(f)[0] == AgentKind.MODIFY_SEMANTICS
    f2 = _feature("unsafe { *ptr }", ub_kinds={UbKind.UNALIGNED_POINTER})
    assert agent_order(f2)[0] == AgentKind.ADD_ASSERTION


def _row_features(snippet: str) -> list[tuple[list[AgentKind], CodeFeature]]:
    """Each policy row, without SafeReplace, with a feature of ``snippet``
    whose UB kinds read that row."""
    rows = []
    for key, row in load_policy_table().items():
        kinds = set() if key == "default" else {UbKind(key)}
        rest = [a for a in row if a is not AgentKind.SAFE_REPLACE]
        rows.append((rest, _feature(snippet, ub_kinds=kinds)))
    return rows


def test_agent_order_catalogue_promotion():
    # on every row; the others follow in row order
    for rest, f in _row_features("unsafe { v.get_unchecked(0) }"):
        assert agent_order(f) == [AgentKind.SAFE_REPLACE, *rest]


def test_agent_order_puts_an_unmatched_safe_replace_last():
    # the rows that lead with SafeReplace too: without a catalogue match
    # the agent refuses before asking the model, so it is tried last
    assert not has_safe_api_match("unsafe { *ptr }")
    for rest, f in _row_features("unsafe { *ptr }"):
        assert agent_order(f) == [*rest, AgentKind.SAFE_REPLACE]


def test_agent_order_merges_ranks():
    # two kinds with conflicting leads resolve by rank sum, default order on ties
    f = _feature(
        "unsafe { *ptr }", ub_kinds={UbKind.STACK_BORROW, UbKind.VALIDITY}
    )
    order = agent_order(f)
    assert sorted(order) == sorted(FIX_AGENTS)


def test_a_rows_safe_alternative_slot_counts_in_the_merge():
    # stack_borrow (MS, SR, AA) with validity (SR, AA, MS) sums MS 2 and
    # AA 3; with SafeReplace's slot dropped the two would tie at 1, and the
    # default row's order would put AddAssertion first
    f = _feature("unsafe { *ptr }", ub_kinds={UbKind.STACK_BORROW, UbKind.VALIDITY})
    assert agent_order(f) == [
        AgentKind.MODIFY_SEMANTICS,
        AgentKind.ADD_ASSERTION,
        AgentKind.SAFE_REPLACE,
    ]


def test_default_agent_order_constant():
    assert tuple(load_policy_table()["default"]) == (
        AgentKind.SAFE_REPLACE,
        AgentKind.ADD_ASSERTION,
        AgentKind.MODIFY_SEMANTICS,
    )
