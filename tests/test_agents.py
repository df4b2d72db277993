"""Patch application and the three repair agents."""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import CORPUS_DIR, SpyProvider, copy_fixture, run_session_on_copy, stub_detector_config

from ubmend import cli
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
from ubmend.classifier import (
    CodeFeature,
    gate_safe_replace,
    has_safe_api_match,
    locate_unsafe_regions,
)
from ubmend.detector import CaseMemo, TargetPackage, UbKind, UbReport, run_detection
from ubmend.errors import (
    AgentFailure,
    NoGuardExpressible,
    NoSafeEquivalent,
    ProviderFailure,
)
from ubmend.fast import AgentKind, CodeBlock, RepairSolution, RepairStep, parse_plan
from ubmend.feedback import EvalTriplet, FeedbackEngine
from ubmend.kb import KnowledgeBase, KnowledgeEntry, feature_vector
from ubmend.provider import (
    MARKER_FIX,
    MARKER_PLAN,
    MemoizedProvider,
    ProviderConfig,
    PromptRecord,
    ScriptedMockProvider,
)
from ubmend.slow import SessionConfig, Verdict, propose_step
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


@pytest.mark.parametrize(
    "body",
    [
        "debug_assert!(true); //~GUARD no-op\n    *p + 51",
        '*p + "get_unchecked(".len() as i32 /* v.get_unchecked(0) */',
    ],
)
def test_safe_replace_gate_reads_code_not_comments_or_strings(mock_provider, body):
    # a catalogue name inside a comment or a string is no safe counterpart
    src = f"fn main() {{ let y = unsafe {{ {body} }};\n}}\n"
    region, feature = _region_feature(src)
    assert not has_safe_api_match(region.snippet)
    with pytest.raises(NoSafeEquivalent, match="no catalogued equivalent"):
        safe_replace(region, feature.ub_kinds, mock_provider)
    assert mock_provider.calls == 0
    order = [AgentKind.SAFE_REPLACE, AgentKind.ADD_ASSERTION, AgentKind.MODIFY_SEMANTICS]
    assert gate_safe_replace(order, region.snippet)[-1] is AgentKind.SAFE_REPLACE


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


# --- code a plan wrote for a fix step ---------------------------------------

GUARDED = "debug_assert!(!v.is_empty());\nunsafe { *v.get_unchecked(0) }"


def _written_step(agent: AgentKind, after: str, before: str = "unsafe { *v.get_unchecked(0) }") -> RepairStep:
    return RepairStep(agent, "main.rs#0", "tighten the region", code=CodeBlock(before, after))


def _propose_written(ws, step, spy, stored=None):
    """The thought of ``step`` on the first region of ``ws``, asked through
    a memo of its own, and that memo."""
    region = locate_unsafe_regions(ws.read("main.rs"), "main.rs")[0]
    memo = CaseMemo(stored)
    provider = MemoizedProvider(spy, memo, lambda: 0.0)
    report = UbReport(kind=UbKind.STACK_BORROW, file="main.rs", line=3, message="m", raw="")
    return propose_step(step, region, [report], ws, provider, 0, 1), memo


@pytest.mark.parametrize(
    ("agent", "after"),
    [
        (AgentKind.SAFE_REPLACE, "v[0]"),
        (AgentKind.ADD_ASSERTION, GUARDED),
        (AgentKind.MODIFY_SEMANTICS, "v[0]"),
    ],
)
def test_plan_code_that_passes_its_agents_check_answers_without_a_call(ws, agent, after):
    spy = SpyProvider(ProviderConfig())
    thought, memo = _propose_written(ws, _written_step(agent, after), spy)
    assert thought.patch is not None and thought.patch.after_text == after
    assert (spy.calls, spy.tokens_used) == (0, 0)
    # kept as the answer to the agent's prompt, at no cost
    ((key, entry),) = memo.answers()
    assert key == f"mock:{spy.hash_of(thought.patch.prompt)}" and MARKER_FIX in entry.prompt.text()
    assert (entry.fields, entry.wall_time) == ({"answer": f"```rust\n{after}\n```"}, 0.0)


@pytest.mark.parametrize(
    ("agent", "after"),
    [
        # rewrites the unsafe expression: not insert-only
        (AgentKind.ADD_ASSERTION, "v[0]"),
        # keeps the unsafe region as large as it was
        (AgentKind.SAFE_REPLACE, "unsafe { *v.get_unchecked(0) + 0 }"),
    ],
)
def test_plan_code_its_agent_refuses_falls_back_to_exactly_one_agent_call(ws, agent, after):
    spy = SpyProvider(ProviderConfig())
    thought, memo = _propose_written(ws, _written_step(agent, after), spy)
    assert spy.calls == 1
    answer = spy._complete(thought.patch.prompt)
    assert thought.patch.after_text != after and thought.patch.after_text in answer
    # the memo keeps the fetched answer, not the refused code
    assert [e.fields["answer"] for _, e in memo.answers()] == [answer]


def test_a_gate_that_refuses_before_any_answer_skips_the_step_without_a_call(tmp_path):
    source = "fn main() {\n    let p = &1u8 as *const u8;\n    let x = unsafe { *p };\n}\n"
    (tmp_path / "main.rs").write_text(source)
    copy = WorkingCopy(TargetPackage.from_path(tmp_path / "main.rs"))
    try:
        spy = SpyProvider(ProviderConfig())
        step = _written_step(AgentKind.SAFE_REPLACE, "p.read()", before="unsafe { *p }")
        thought, _ = _propose_written(copy, step, spy)
        assert thought.patch is None and thought.note.startswith("skipped: ")
        assert spy.calls == 0
    finally:
        copy.cleanup()


def test_an_answer_the_store_holds_wins_over_plan_code(ws):
    spy = SpyProvider(ProviderConfig())
    region = locate_unsafe_regions(ws.read("main.rs"), "main.rs")[0]
    prompt = PromptRecord.user(
        build_prompt(AgentKind.MODIFY_SEMANTICS, region, frozenset({UbKind.STACK_BORROW}), "tighten the region")
    )
    stored = {f"mock:{spy.hash_of(prompt)}": {"answer": "kept\n\n```rust\nv[0] + 0\n```"}}
    thought, memo = _propose_written(ws, _written_step(AgentKind.MODIFY_SEMANTICS, "v[0]"), spy, stored)
    assert thought.patch.after_text == "v[0] + 0"
    assert (spy.calls, memo.store_hits["answers"]) == (0, 1)


def _stack_borrow(tmp_path):
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path) / "main.rs"
    source = case.read_text(encoding="utf-8")
    return TargetPackage.from_path(case), source, locate_unsafe_regions(source, "main.rs")[0].snippet


def _clean(snippet: str) -> str:
    return "\n".join(line for line in snippet.splitlines() if "//~UB" not in line)


def test_plan_code_for_a_region_an_earlier_step_patched_asks_the_agent(tmp_path):
    target, _, snippet = _stack_borrow(tmp_path)
    # the first step's code changes the region and keeps its UB; the second
    # step's code was written for the region as the plan saw it
    kept = snippet.replace("*first += 1;", "*first += 2;")
    steps = [
        RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#0", "first", code=CodeBlock(snippet, kept)),
        RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#0", "second", code=CodeBlock(snippet, _clean(snippet))),
    ]
    spy = SpyProvider(ProviderConfig())
    out = run_session_on_copy(
        target, [RepairSolution("s01", steps)], provider=spy, config=SessionConfig(memo=CaseMemo(), detector=stub_detector_config())
    )
    assert out.verdict is Verdict.PASS and out.trace.counts == [1, 1, 0]
    # one call: the second step's, on the region the first step left
    (asked,) = spy.prompts
    assert "Instruction: second" in asked and kept in asked
    assert out.trace.thoughts[1].patch.before_text == kept


@pytest.mark.parametrize("knowledge", [True, False])
def test_plan_code_after_a_reason_step_that_found_knowledge_asks_the_agent_with_it(tmp_path, knowledge):
    target, source, snippet = _stack_borrow(tmp_path)
    config = SessionConfig(memo=CaseMemo(), detector=stub_detector_config())
    kb = KnowledgeBase()
    if knowledge:
        reports = run_detection(target, config=config.detector, memo=CaseMemo()).reports
        kb.insert(
            KnowledgeEntry(
                vector=feature_vector(source, reports, "main.rs"),
                ub_kind=reports[0].kind,
                solution={"steps": [{"agent": "ModifySemantics", "instruction": "drop the retag"}]},
                triplet=EvalTriplet(True, True, 1.0, 10),
            )
        )
    written = _clean(snippet).replace("value[0] + value[1]", "value[0] + value[1] + 0")
    steps = [
        RepairStep(AgentKind.REASON, "main.rs#0", "consult"),
        RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#0", "rewrite", code=CodeBlock(snippet, written)),
    ]
    spy = SpyProvider(ProviderConfig())
    out = run_session_on_copy(target, [RepairSolution("s01", steps)], provider=spy, config=config, kb=kb)
    assert out.verdict is Verdict.PASS
    if knowledge:
        (asked,) = spy.prompts
        assert "prior fix (similarity" in asked and "drop the retag" in asked
        assert out.trace.thoughts[0].patch.after_text == _clean(snippet)
    else:
        assert spy.prompts == []
        assert out.trace.thoughts[0].patch.after_text == written


class _NoCodeForRegionOne(SpyProvider):
    """The spy mock, answering every fix prompt of the region that holds
    ``alloc101`` with no code."""

    def _fix(self, text: str) -> str:
        return "no code" if "alloc101" in text else super()._fix(text)


def test_plan_code_on_a_follow_up_page_for_a_region_patched_since_asks_the_agent(tmp_path):
    from test_batch_verify import regions_source

    path = tmp_path / "main.rs"
    path.write_text(regions_source(2), encoding="utf-8")
    region = locate_unsafe_regions(regions_source(2), "main.rs")[1]
    spy = _NoCodeForRegionOne(ProviderConfig())
    guarded = region.snippet.replace("unsafe {", "unsafe {\n        debug_assert!(!ptr.is_null());", 1)
    stale = "\n".join(line for line in region.snippet.splitlines() if "//~UB" not in line)
    # s01 repairs region 0 only, so the follow-up page shows region 1 alone;
    # its first solution, s02, guards region 1, then rewrites it with code
    # written for the region as the page showed it, which the guard has
    # patched since
    spy.rules = [(
        "TRIED s01",
        "SOLUTION 2:\n"
        "STEP 1: AddAssertion main.rs#1 :: guard the read\n"
        f"```rust\n{guarded}\n```\n"
        "STEP 2: ModifySemantics main.rs#1 :: drop the marked line\n"
        f"```rust\n{stale}\n```\n",
    )]
    settings = SessionConfig(memo=CaseMemo(), detector=stub_detector_config(), solutions_k=2, kb_enabled=False, clock=cli.LogicalClock())
    outcome, _, _ = cli.repair_one(TargetPackage.from_path(path), spy, FeedbackEngine(), settings)
    plans = [i for i, p in enumerate(spy.prompts) if MARKER_PLAN in p]
    assert len(plans) == 2
    follow_up = spy.prompts[plans[1]]
    assert "FEATURE main.rs#1 " in follow_up and "FEATURE main.rs#0 " not in follow_up
    ((guard, rewrite),) = parse_plan(spy.rules[0][1], {"main.rs#1": region.snippet})
    assert guard.code.before == rewrite.code.before == region.snippet
    # the guard's block is taken as written; the rewrite's is stale, so its
    # agent is asked, on the region as the guard left it, and abstains
    (asked,) = [p for p in spy.prompts[plans[1] + 1:] if MARKER_FIX in p]
    assert guarded in asked and "Instruction: drop the marked line" in asked
    guarded_thought, rewrite_thought = outcome.trace.thoughts
    assert guarded_thought.patch.after_text == guarded and rewrite_thought.patch is None
    # applied, the stale block would have repaired the target
    assert outcome.verdict is Verdict.FAILED and outcome.solution_id == "s02"
