"""Patch application and the three repair agents."""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import CORPUS_DIR

from ubmend.agents import (
    PatchRecord,
    add_assertion,
    apply_patch,
    build_prompt,
    insert_only_diff,
    modify_semantics,
    revert_patch,
    safe_replace,
)
from ubmend.classifier import CodeFeature, locate_unsafe_regions
from ubmend.detector import TargetPackage, UbKind
from ubmend.errors import (
    AgentFailure,
    NoGuardExpressible,
    NoSafeEquivalent,
    ProviderFailure,
)
from ubmend.fast import AgentKind
from ubmend.provider import ProviderConfig, PromptRecord, ScriptedMockProvider
from ubmend.workspace import WorkingCopy

SOURCE = (
    "fn main() {\n"
    "    let v = vec![1, 2, 3];\n"
    "    let x = unsafe { *v.get_unchecked(0) };\n"
    '    println!("{x}");\n'
    "}\n"
)


@pytest.fixture
def ws(tmp_path):
    f = tmp_path / "main.rs"
    f.write_text(SOURCE)
    copy = WorkingCopy(TargetPackage.from_path(f))
    yield copy
    copy.cleanup()


def _region_feature(source=SOURCE, ub=UbKind.STACK_BORROW):
    region = locate_unsafe_regions(source, "main.rs")[0]
    feature = CodeFeature(
        region=region,
        op_kinds=frozenset(),
        ub_kinds=frozenset({ub}),
        ref="main.rs#0",
    )
    return region, feature


def _scripted(response: str) -> ScriptedMockProvider:
    return ScriptedMockProvider(ProviderConfig(), rules=[("", response)])


def test_apply_then_revert_round_trip(ws):
    region, _ = _region_feature()
    patch = PatchRecord(
        file="main.rs",
        before_span=region.byte_span,
        before_text=region.snippet,
        after_text="v[0]",
        agent=AgentKind.MODIFY_SEMANTICS,
    )
    before = ws.files()
    apply_patch(patch, ws)
    assert "get_unchecked" not in ws.read("main.rs")
    revert_patch(patch, ws)
    assert ws.files() == before


def test_apply_rejects_drifted_region(ws):
    region, _ = _region_feature()
    patch = PatchRecord(
        file="main.rs",
        before_span=region.byte_span,
        before_text="something else entirely",
        after_text="v[0]",
        agent=AgentKind.MODIFY_SEMANTICS,
    )
    with pytest.raises(AgentFailure):
        apply_patch(patch, ws)


def test_revert_rejects_drifted_region(ws):
    region, _ = _region_feature()
    patch = PatchRecord(
        file="main.rs",
        before_span=region.byte_span,
        before_text=region.snippet,
        after_text="v[0]",
        agent=AgentKind.MODIFY_SEMANTICS,
    )
    apply_patch(patch, ws)
    ws.write("main.rs", ws.read("main.rs").replace("v[0]", "v[1]"))
    with pytest.raises(AgentFailure):
        revert_patch(patch, ws)


def test_insert_only_diff():
    before = "unsafe {\n    *p\n}"
    with_guard = "unsafe {\n    assert!(!p.is_null());\n    *p\n}"
    assert insert_only_diff(before, with_guard) == ["    assert!(!p.is_null());"]
    assert insert_only_diff(before, before) == []
    rewritten = "unsafe {\n    *q\n}"
    assert insert_only_diff(before, rewritten) is None
    deleted = "unsafe {\n}"
    assert insert_only_diff(before, deleted) is None


def test_build_prompt_carries_snippet_errors_and_knowledge():
    region, feature = _region_feature()
    prompt = build_prompt(AgentKind.SAFE_REPLACE, region, feature.ub_kinds, "do it", "- prior fix")
    assert region.snippet in prompt
    assert "stack_borrow" in prompt
    assert "\nInstruction: do it\n" in prompt
    assert "Knowledge from previous repairs:\n- prior fix" in prompt


def test_build_prompt_keeps_placeholder_names_in_code_as_they_are():
    # Rust format strings name variables in braces, as templates do
    source = 'fn main() {\n    let context = 1;\n    unsafe { println!("{context} {errors}") };\n}\n'
    region, feature = _region_feature(source)
    prompt = build_prompt(AgentKind.MODIFY_SEMANTICS, region, feature.ub_kinds, "fix {snippet}")
    assert prompt.count('println!("{context} {errors}")') == 1
    assert "\nInstruction: fix {snippet}\n" in prompt


FIX_AGENTS = (AgentKind.SAFE_REPLACE, AgentKind.ADD_ASSERTION, AgentKind.MODIFY_SEMANTICS)
# an unsafe fn that is its own context, and two blocks that share main's
THREE_REGIONS = (
    "unsafe fn raw_read(p: *const i32) -> i32 {\n"
    "    *p\n"
    "}\n"
    "\n"
    "fn main() {\n"
    "    let v = vec![1, 2, 3];\n"
    "    let a = unsafe { *v.get_unchecked(0) };\n"
    "    let b = unsafe { raw_read(&v[1]) };\n"
    '    println!("{a} {b}");\n'
    "}\n"
)
FIX_PROMPT_SOURCES = {
    **{p.parent.name: p.read_text() for p in sorted(CORPUS_DIR.glob("*/main.rs"))},
    "three_regions": THREE_REGIONS,
}


@pytest.mark.parametrize("name", sorted(FIX_PROMPT_SOURCES))
def test_a_fix_prompt_shows_its_region_once(name):
    regions = locate_unsafe_regions(FIX_PROMPT_SOURCES[name], "main.rs")
    assert regions
    for region in regions:
        for agent in FIX_AGENTS:
            prompt = build_prompt(agent, region, frozenset({UbKind.STACK_BORROW}), "fix it")
            assert prompt.count(region.snippet) == 1, (name, region.byte_span, agent)


def test_a_fix_prompt_marks_where_its_region_stood():
    fn_region, first, second = locate_unsafe_regions(THREE_REGIONS, "main.rs")
    assert fn_region.snippet.startswith("unsafe fn raw_read")
    prompt = build_prompt(AgentKind.MODIFY_SEMANTICS, fn_region, frozenset(), "fix it")
    assert "\nContext:\n(the region above is the whole enclosing item)\n" in prompt
    prompt = build_prompt(AgentKind.MODIFY_SEMANTICS, first, frozenset(), "fix it")
    context = prompt.split("\nContext:\n", 1)[1]
    assert "    let a = /* the region above */;\n" in context
    # the other region of main is code around this one, shown as it is
    assert second.snippet in context
    # a batch member's region, moved by an earlier patch, asks the same prompt
    moved = replace(
        first,
        byte_span=(first.start + 7, first.end + 7),
        context_span=(first.context_span[0] + 7, first.context_span[1] + 7),
    )
    assert build_prompt(AgentKind.MODIFY_SEMANTICS, moved, frozenset(), "fix it") == prompt


def test_a_context_whose_span_does_not_hold_the_region_is_kept_whole():
    region, _ = _region_feature()
    for drifted in (
        replace(region, byte_span=(region.start + 1, region.end + 1)),
        replace(region, context_span=None),
    ):
        prompt = build_prompt(AgentKind.MODIFY_SEMANTICS, drifted, frozenset(), "fix it")
        assert prompt.count(region.snippet) == 2
        assert "the region above" not in prompt


def test_the_knowledge_heading_appears_only_with_reason_knowledge():
    # a plan step's instruction is no knowledge from earlier repairs
    region, feature = _region_feature()
    for agent in (AgentKind.SAFE_REPLACE, AgentKind.ADD_ASSERTION, AgentKind.MODIFY_SEMANTICS):
        for knowledge in (None, ""):
            prompt = build_prompt(agent, region, feature.ub_kinds, "do it", knowledge)
            assert "\nInstruction: do it\n" in prompt
            assert "Knowledge from previous repairs" not in prompt


def test_safe_replace_happy_path(mock_provider):
    region, feature = _region_feature()
    patch = safe_replace(region, feature.ub_kinds, mock_provider)
    assert patch.agent == AgentKind.SAFE_REPLACE
    assert "get_unchecked" not in patch.after_text
    assert patch.before_text == region.snippet


def test_safe_replace_gate_abstains_without_catalogue_match(mock_provider):
    src = "fn main() { let y = unsafe { *p };\n}\n"
    region, feature = _region_feature(src)
    with pytest.raises(NoSafeEquivalent):
        safe_replace(region, feature.ub_kinds, mock_provider)
    assert mock_provider.calls == 0


def test_safe_replace_rejects_non_reducing_answer():
    region, feature = _region_feature()
    echo = f"no change\n\n```rust\n{region.snippet}\n```"
    with pytest.raises(NoSafeEquivalent):
        safe_replace(region, feature.ub_kinds, _scripted(echo))


def test_safe_replace_provider_abstention():
    region, feature = _region_feature()
    with pytest.raises(NoSafeEquivalent):
        safe_replace(region, feature.ub_kinds, _scripted("NO SAFE EQUIVALENT"))


MULTILINE = (
    "fn main() {\n"
    "    let v = vec![1, 2, 3];\n"
    "    let x = unsafe {\n"
    "        *v.get_unchecked(0)\n"
    "    };\n"
    '    println!("{x}");\n'
    "}\n"
)


def test_add_assertion_happy_path():
    region, feature = _region_feature(MULTILINE)
    guarded = region.snippet.replace(
        "unsafe {\n", "unsafe {\n        debug_assert!(!v.is_empty());\n", 1
    )
    patch = add_assertion(region, feature.ub_kinds, _scripted(f"guard first\n\n```rust\n{guarded}\n```"))
    inserted = insert_only_diff(patch.before_text, patch.after_text)
    assert inserted and all("debug_assert" in l or not l.strip() for l in inserted)


def test_add_assertion_rejects_rewrites():
    region, feature = _region_feature()
    rewritten = "rewrote instead\n\n```rust\nunsafe { *v.get_unchecked(1) }\n```"
    with pytest.raises(NoGuardExpressible):
        add_assertion(region, feature.ub_kinds, _scripted(rewritten))


def test_add_assertion_rejects_non_guard_insertions():
    region, feature = _region_feature()
    sneaky = region.snippet.replace("unsafe {", 'unsafe {\n    launch_missiles();', 1)
    with pytest.raises(NoGuardExpressible):
        add_assertion(region, feature.ub_kinds, _scripted(f"x\n\n```rust\n{sneaky}\n```"))


def test_add_assertion_rejects_empty_insertion():
    region, feature = _region_feature()
    with pytest.raises(NoGuardExpressible):
        add_assertion(region, feature.ub_kinds, _scripted(f"x\n\n```rust\n{region.snippet}\n```"))


@pytest.mark.parametrize(
    "inserted",
    [
        "    //~UB Undefined Behavior: trying to retag from <90> for Unique permission",
        "    // SAFETY: checked above\n",
        "    #[allow(unused)]",
    ],
)
def test_add_assertion_rejects_comment_only_insertions(inserted):
    region, feature = _region_feature(MULTILINE)
    commented = region.snippet.replace("unsafe {\n", f"unsafe {{\n{inserted}\n", 1)
    with pytest.raises(NoGuardExpressible, match="inserts no guard"):
        add_assertion(region, feature.ub_kinds, _scripted(f"x\n\n```rust\n{commented}\n```"))


def test_add_assertion_keeps_comments_beside_a_guard():
    region, feature = _region_feature(MULTILINE)
    guarded = region.snippet.replace(
        "unsafe {\n", "unsafe {\n        // bounds first\n\n        assert!(!v.is_empty());\n", 1
    )
    patch = add_assertion(region, feature.ub_kinds, _scripted(f"x\n\n```rust\n{guarded}\n```"))
    assert patch.after_text == guarded


def test_modify_semantics_free_form():
    region, feature = _region_feature()
    patch = modify_semantics(region, feature.ub_kinds, _scripted("why\n\n```rust\nv[0]\n```"))
    assert patch.after_text == "v[0]"
    assert patch.rationale == "why"


def test_agents_raise_on_missing_fence():
    region, feature = _region_feature()
    with pytest.raises(ProviderFailure):
        modify_semantics(region, feature.ub_kinds, _scripted("no code block here"))
