"""Fast path: feature extraction and solution planning."""

from __future__ import annotations

import json

import pytest

from ubmend.agents import build_prompt
from ubmend.classifier import (
    CodeFeature,
    UnsafeOpKind,
    UnsafeRegion,
    agent_order,
    locate_unsafe_regions,
)
from ubmend.detector import TargetPackage, UbKind, UbReport
from ubmend.fast import (
    AgentKind,
    CodeBlock,
    Provenance,
    RepairSolution,
    RepairStep,
    _report_hits_region,
    extract_features,
    fallback_solutions,
    generate_solutions,
    normalize_steps,
    parse_plan,
    stand_in_features,
)
from ubmend.feedback import EvalTriplet, ExperienceRecord, FeedbackEngine, signature_of
from ubmend.kb import KnowledgeBase, feature_vector
from ubmend.provider import MARKER_FIX, PromptRecord, ProviderConfig, ScriptedMockProvider
from ubmend.slow import ErrorTrace

UNSAFE_MAIN = (
    "fn main() {\n"
    "    let mut v = vec![1, 2, 3];\n"
    "    let x = unsafe { *v.as_mut_ptr() };\n"
    '    println!("{x}");\n'
    "}\n"
)


def _target(tmp_path, source=UNSAFE_MAIN, name="main.rs"):
    (tmp_path / name).write_text(source)
    return TargetPackage.from_path(tmp_path / name)


def _report(line, kind=UbKind.STACK_BORROW, file="main.rs"):
    return UbReport(kind=kind, file=file, line=line, message="m", raw="")


def _feature(ub_kinds=frozenset({UbKind.STACK_BORROW}), ops=frozenset(), ref="main.rs#0"):
    region = UnsafeRegion(
        file="main.rs", byte_span=(0, 10), snippet="unsafe { }", enclosing_context=""
    )
    return CodeFeature(
        region=region, op_kinds=ops, ub_kinds=frozenset(ub_kinds), ref=ref,
    )


# --- parse_plan ---


def test_parse_plan_grammar():
    text = (
        "SOLUTION 1:\n"
        "STEP 1: SafeReplace main.rs#0 :: swap to safe API\n"
        "STEP 2: AddAssertion main.rs#0 :: guard it\n"
        "SOLUTION 2:\n"
        "STEP 1: ModifySemantics main.rs#1 :: rewrite\n"
    )
    plans = parse_plan(text, {})
    assert len(plans) == 2
    assert [s.agent for s in plans[0]] == [AgentKind.SAFE_REPLACE, AgentKind.ADD_ASSERTION]
    assert plans[1][0].target_region == "main.rs#1"
    assert plans[1][0].instruction == "rewrite"


def test_parse_plan_tolerates_noise_and_case():
    text = (
        "Here is my thinking...\n"
        "solution 9:\n"
        "  STEP 1:  modifysemantics   main.rs#0 ::   do the thing  \n"
        "unparseable line\n"
        "STEP x: Bogus main.rs#0 :: skipped, bad number\n"
        "STEP 2: NotAnAgent main.rs#0 :: skipped, unknown agent\n"
    )
    plans = parse_plan(text, {})
    assert len(plans) == 1
    (step,) = plans[0]
    assert step.agent == AgentKind.MODIFY_SEMANTICS
    assert step.instruction == "do the thing"


def test_parse_plan_steps_without_solution_header():
    plans = parse_plan("STEP 1: Reason main.rs#0 :: consult past fixes\n", {})
    assert len(plans) == 1
    assert plans[0][0].agent == AgentKind.REASON


def test_parse_plan_empty():
    assert parse_plan("nothing useful", {}) == []


def test_normalize_steps_collapses_formatting():
    a = [RepairStep(AgentKind.SAFE_REPLACE, "main.rs#0", "Swap  To   safe")]
    b = [RepairStep(AgentKind.SAFE_REPLACE, "main.rs#0", "swap to safe")]
    assert normalize_steps(a) == normalize_steps(b)


# --- agent order and fallbacks ---


def test_agent_order_unclassifiable_goes_semantics_first():
    # whatever the UB kind; SafeReplace comes last unless the catalogue
    # gate passes
    region = UnsafeRegion(file="main.rs", byte_span=(0, 21), snippet="unsafe { v.as_ptr() }", enclosing_context="")
    for kind in (UbKind.VALIDITY, UbKind.UNALIGNED_POINTER, UbKind.STACK_BORROW):
        unmatched = _feature(ub_kinds={kind}, ops=frozenset())
        assert agent_order(unmatched) == [
            AgentKind.MODIFY_SEMANTICS, AgentKind.ADD_ASSERTION, AgentKind.SAFE_REPLACE,
        ]
        matched = CodeFeature(region=region, op_kinds=frozenset(), ub_kinds=frozenset({kind}), ref="main.rs#0")
        assert agent_order(matched) == [
            AgentKind.MODIFY_SEMANTICS, AgentKind.SAFE_REPLACE, AgentKind.ADD_ASSERTION,
        ]


def test_fallback_solutions_one_per_strategy():
    f = _feature(ub_kinds={UbKind.VALIDITY}, ops=frozenset())
    plans = fallback_solutions([f])
    assert len(plans) == 3
    agents = [plan[0].agent for plan in plans]
    assert agents[0] == AgentKind.MODIFY_SEMANTICS
    assert set(agents) == {
        AgentKind.SAFE_REPLACE, AgentKind.ADD_ASSERTION, AgentKind.MODIFY_SEMANTICS
    }
    assert fallback_solutions([]) == []


# --- extract_features ---


def test_extract_features_maps_reports_to_regions(tmp_path, mock_provider):
    target = _target(tmp_path)
    line = UNSAFE_MAIN[: UNSAFE_MAIN.index("as_mut_ptr")].count("\n") + 1
    feats = extract_features(target, [_report(line)])
    assert len(feats) == 1
    assert feats[0].ref == "main.rs#0"
    assert feats[0].ub_kinds == {UbKind.STACK_BORROW}
    assert mock_provider.calls == 0


def test_extract_features_empty_without_reports(tmp_path):
    assert extract_features(_target(tmp_path), []) == []


def test_extract_features_whole_file_fallback(tmp_path):
    # a file without an unsafe region has nothing a step could patch
    source = "fn main() {\n    let x = 1;\n}\n"
    target = _target(tmp_path, source)
    assert extract_features(target, [_report(2)]) == []


def test_extract_features_unmatched_line_falls_back_to_first_region(tmp_path):
    # report at a line outside every unsafe span still yields a usable feature
    target = _target(tmp_path)
    feats = extract_features(target, [_report(1)]) or stand_in_features(target, [_report(1)])
    assert len(feats) == 1
    assert feats[0].ref == "main.rs#0"


def test_extract_features_two_regions(tmp_path):
    source = (
        "fn a() { unsafe { one() } }\n"
        "fn b() { unsafe { two() } }\n"
    )
    target = _target(tmp_path, source)
    feats = extract_features(target, [_report(1), _report(2)])
    assert [f.ref for f in feats] == ["main.rs#0", "main.rs#1"]


# --- generate_solutions ---


def _tried(solutions):
    return [(s, ErrorTrace(counts=[1, 1], thoughts=[], iteration_budget=5)) for s in solutions]


# eight plans, each its own variant
MANY = "".join(f"SOLUTION {i}:\nSTEP 1: ModifySemantics main.rs#0 :: variant {i}\n" for i in range(1, 9))


def _spied(provider) -> list[str]:
    """The text of every prompt ``provider`` is asked."""
    prompts: list[str] = []
    complete = provider.complete
    provider.complete = lambda prompt: prompts.append(prompt.text()) or complete(prompt)
    return prompts


def test_generate_solutions_happy_path(mock_provider):
    feats = [_feature(ops=frozenset({UnsafeOpKind.RAW_POINTER_DEREF}))]
    sols = generate_solutions(feats, k=4, provider=mock_provider)
    assert 1 <= len(sols) <= 4
    assert [s.id for s in sols] == [f"s{i + 1:02d}" for i in range(len(sols))]
    assert all(s.provenance == Provenance.GENERATED for s in sols)
    assert all(isinstance(s, RepairSolution) for s in sols)


def test_plan_prompt_holds_each_region_snippet_once_in_feature_order(tmp_path):
    # one plan call carries every region's code; a snippet that holds a
    # placeholder name of the template reaches the prompt as it is
    source = (
        "fn a() { unsafe { one() } }\n"
        "fn b() { unsafe { two() } }\n"
        'fn c() { unsafe { println!("{errors}") } }\n'
    )
    feats = extract_features(_target(tmp_path, source), [_report(3), _report(2), _report(1)])
    provider = ScriptedMockProvider(ProviderConfig())
    prompts = _spied(provider)
    generate_solutions(feats, k=2, provider=provider)
    (prompt,) = prompts
    snippets = ["unsafe { one() }", "unsafe { two() }", 'unsafe { println!("{errors}") }']
    assert [prompt.count(s) for s in snippets] == [1, 1, 1]
    regions = prompt.split("Regions under repair:\n", 1)[1].split("\n\nSolutions tried", 1)[0].splitlines()
    assert [line.split(" ::")[0] for line in regions[::4]] == [
        "FEATURE main.rs#0", "FEATURE main.rs#1", "FEATURE main.rs#2",
    ]
    assert [regions[i + 1: i + 4] for i in range(0, len(regions), 4)] == [
        ["```rust", s, "```"] for s in snippets
    ]


def test_generate_solutions_validates_inputs(mock_provider):
    with pytest.raises(ValueError):
        generate_solutions([], k=3, provider=mock_provider)
    with pytest.raises(ValueError):
        generate_solutions([_feature()], k=0, provider=mock_provider)


def test_generate_solutions_dedups_identical_plans():
    plan = "SOLUTION 1:\nSTEP 1: ModifySemantics main.rs#0 :: same\n"
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", plan * 3)])
    sols = generate_solutions([_feature()], k=5, provider=provider)
    assert len(sols) == 1


def test_generate_solutions_caps_at_k():
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", MANY)])
    first = generate_solutions([_feature()], k=3, provider=provider)
    second = generate_solutions([_feature()], k=3, provider=provider, tried=_tried(first))
    assert [s.id for s in first + second] == ["s01", "s02", "s03"]
    assert generate_solutions([_feature()], k=3, provider=provider, tried=_tried(first + second)) == []
    assert provider.calls == 2


def test_a_page_with_nothing_tried_asks_for_one_solution():
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", MANY)])
    prompts = _spied(provider)
    sols = generate_solutions([_feature()], k=10, provider=provider)
    assert [(s.id, s.steps[0].instruction) for s in sols] == [("s01", "variant 1")]
    (prompt,) = prompts
    # the one-solution grammar: step lines alone, neither numbered nor counted twice
    assert "Produce one solution in exactly this grammar" in " ".join(prompt.split())
    assert "SOLUTION <i>" not in prompt and "numbered from" not in prompt
    assert "solutions requested" not in prompt and "first solution only" not in prompt
    # nothing was tried: the prompt ends on the regions, with no tried section
    assert prompt.endswith("```\n") and "tried" not in prompt.lower()


def test_a_follow_up_page_asks_for_a_full_page_after_the_first():
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", MANY)])
    prompts = _spied(provider)
    first = generate_solutions([_feature()], k=10, provider=provider)
    second = generate_solutions([_feature()], k=10, provider=provider, tried=_tried(first))
    assert "SOLUTION <i>:" in prompts[1] and "solutions requested" not in prompts[1]
    assert (
        "Produce up to 3 solutions not yet tried, most promising first, numbered from 2."
        in " ".join(prompts[1].split())
    )
    assert "Solutions tried so far, each with its verdict:\nTRIED s01: ended at 1 errors, baseline 1" in prompts[1]
    # the answer repeats the first page's plan: the follow-up page skips it
    assert [(s.id, s.steps[0].instruction) for s in second] == [
        ("s02", "variant 2"), ("s03", "variant 3"), ("s04", "variant 4"),
    ]


def test_a_follow_up_page_of_one_under_the_cap_asks_for_one_solution_not_yet_tried():
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", MANY)])
    prompts = _spied(provider)
    first = generate_solutions([_feature()], k=2, provider=provider)
    second = generate_solutions([_feature()], k=2, provider=provider, tried=_tried(first))
    assert [s.id for s in second] == ["s02"]
    assert "SOLUTION <i>:" in prompts[1] and "solutions requested" not in prompts[1]
    assert "Produce one solution not yet tried, numbered from 2." in " ".join(prompts[1].split())
    assert "TRIED s01" in prompts[1]


def test_a_page_of_repeats_ends_the_drawing_after_one_call():
    plan = "SOLUTION 1:\nSTEP 1: ModifySemantics main.rs#0 :: same\n"
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", plan)])
    first = generate_solutions([_feature()], k=5, provider=provider)
    assert generate_solutions([_feature()], k=5, provider=provider, tried=_tried(first)) == []
    assert provider.calls == 2


def test_a_degenerate_follow_up_page_does_not_re_add_the_template_plans():
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", "no steps here")])
    first = generate_solutions([_feature()], k=10, provider=provider)
    assert [s.steps[0].agent for s in first] == [AgentKind.MODIFY_SEMANTICS]
    # the follow-up page takes the template plans not yet tried, and the
    # page after it none
    second = generate_solutions([_feature()], k=10, provider=provider, tried=_tried(first))
    assert [(s.id, s.steps[0].agent) for s in second] == [
        ("s02", AgentKind.ADD_ASSERTION), ("s03", AgentKind.SAFE_REPLACE),
    ]
    assert generate_solutions([_feature()], k=10, provider=provider, tried=_tried(first + second)) == []
    assert provider.calls == 6


def test_ids_continue_across_pages_after_a_seed():
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", MANY)])
    seed = RepairSolution(id="s00", steps=[RepairStep(AgentKind.ADD_ASSERTION, "main.rs#0", "seed")])
    first = generate_solutions([_feature()], k=5, provider=provider, tried=_tried([seed]))
    second = generate_solutions([_feature()], k=5, provider=provider, tried=_tried([seed, *first]))
    assert [s.id for s in first + second] == ["s01", "s02", "s03", "s04", "s05"]
    # the answer repeats the first page's plans: the second page skips them
    assert [s.steps[0].instruction for s in second] == ["variant 4", "variant 5"]
    assert generate_solutions(
        [_feature()], k=5, provider=provider, tried=_tried([seed, *first, *second])
    ) == []
    assert provider.calls == 2


def test_generate_solutions_retry_then_fallback():
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", "no steps here")])
    sols = generate_solutions([_feature()], k=5, provider=provider)
    # both attempts degenerate; the first template plan fills the page of one
    assert provider.calls == 2
    assert [s.steps[0].agent for s in sols] == [AgentKind.MODIFY_SEMANTICS]


# --- code the plan writes for the first solution ---

SHOWN = {"main.rs#0": "unsafe { *p }"}


def test_parse_plan_reads_no_plan_line_inside_a_fence():
    text = (
        "SOLUTION 1:\n"
        "STEP 1: ModifySemantics main.rs#0 :: rewrite\n"
        "```rust\n"
        "SOLUTION 2:\n"
        "STEP 1: SafeReplace main.rs#0 :: inside the fence\n"
        "```\n"
        "STEP 2: AddAssertion main.rs#0 :: guard\n"
    )
    (solution,) = parse_plan(text, SHOWN)
    assert [s.agent for s in solution] == [AgentKind.MODIFY_SEMANTICS, AgentKind.ADD_ASSERTION]
    assert solution[0].code == CodeBlock(
        "unsafe { *p }", "SOLUTION 2:\nSTEP 1: SafeReplace main.rs#0 :: inside the fence"
    )
    assert solution[1].code is None
    # without the code the prompt showed, the block is dropped, and still read as no plan
    (plain,) = parse_plan(text, {})
    assert [s.agent for s in plain] == [s.agent for s in solution]
    assert all(s.code is None for s in plain)


def test_parse_plan_drops_every_block_but_one_right_after_a_first_solution_fix_step():
    text = (
        "```rust\nbefore any step\n```\n"
        "SOLUTION 1:\n"
        "STEP 1: Reason main.rs#0 :: consult\n"
        "```rust\nafter a reason step\n```\n"
        "STEP 2: SafeReplace main.rs#0 :: swap\n"
        "a stray line\n"
        "```rust\nunsafe { p.read() }\n```\n"
        "```rust\na second block\n```\n"
        "STEP 3: Rollback main.rs#0 :: back\n"
        "```rust\nafter a rollback step\n```\n"
        "STEP 4: ModifySemantics main.rs#1 :: a region the prompt did not show\n"
        "```rust\nunshown\n```\n"
        "SOLUTION 2:\n"
        "STEP 1: ModifySemantics main.rs#0 :: later solution\n"
        "```rust\nlater\n```\n"
    )
    first, second = parse_plan(text, SHOWN)
    assert [s.code for s in first] == [None, CodeBlock("unsafe { *p }", "unsafe { p.read() }"), None, None]
    assert [s.code for s in second] == [None]


@pytest.mark.parametrize("wrapper", ["```", "```text"])
def test_parse_plan_keeps_the_steps_of_an_answer_wrapped_in_a_fence(wrapper):
    text = (
        f"{wrapper}\n"
        "SOLUTION 1:\n"
        "STEP 1: ModifySemantics main.rs#0 :: rewrite\n"
        "\n"
        "```rust\n{ p.read() }\n```\n"
        "STEP 2: AddAssertion main.rs#0 :: guard\n"
        "SOLUTION 2:\n"
        "STEP 1: SafeReplace main.rs#0 :: swap\n"
        "```\n"
    )
    first, second = parse_plan(text, SHOWN)
    assert [s.agent for s in first] == [AgentKind.MODIFY_SEMANTICS, AgentKind.ADD_ASSERTION]
    assert [s.code for s in first] == [CodeBlock("unsafe { *p }", "{ p.read() }"), None]
    assert [(s.agent, s.code) for s in second] == [(AgentKind.SAFE_REPLACE, None)]


def test_plan_code_is_no_part_of_a_steps_record_signature_or_rank(tmp_path):
    text = "SOLUTION 1:\nSTEP 1: ModifySemantics main.rs#0 :: rewrite\n```rust\n{ p.read() }\n```\n"
    coded = RepairSolution("s01", parse_plan(text, SHOWN)[0])
    plain = RepairSolution("s01", parse_plan(text, {})[0])
    assert coded.steps[0].code is not None and plain.steps[0].code is None
    assert coded == plain and coded.to_dict() == plain.to_dict()
    assert normalize_steps(coded.steps) == normalize_steps(plain.steps)
    assert signature_of(coded) == signature_of(plain)
    vector = feature_vector(UNSAFE_MAIN, [_report(3)], "main.rs")
    logs = []
    for name, solution in (("coded", coded), ("plain", plain)):
        engine = FeedbackEngine(tmp_path / f"{name}.jsonl", kb=KnowledgeBase())
        record = ExperienceRecord(
            vector, UbKind.STACK_BORROW, solution.id, EvalTriplet(True, True, 1.0, 10), signature_of(solution)
        )
        engine.record_experience(record, solution=solution)
        other = RepairSolution("s02", [RepairStep(AgentKind.SAFE_REPLACE, "main.rs#0", "swap")])
        ranked = engine.rank_solutions([other, solution], vector)
        entries = [json.dumps(e.solution, sort_keys=True) for e in engine.kb.entries]
        logs.append(((tmp_path / f"{name}.jsonl").read_bytes(), entries, [s.id for s in ranked]))
    assert logs[0] == logs[1]


def _mock_code(step: RepairStep, feature: CodeFeature, mock: ScriptedMockProvider) -> str:
    prompt = build_prompt(step.agent, feature.region, feature.ub_kinds, step.instruction)
    answer = mock.complete(PromptRecord.user(prompt))
    return answer[answer.index("```rust\n") + 8: answer.rindex("\n```")]


def test_the_mock_writes_its_own_fix_answers_for_the_first_solution_only(tmp_path):
    source = (
        "fn a(v: &[u8]) -> u8 { unsafe { *v.get_unchecked(0) } }\n"
        "fn b(p: *const u8) -> u8 { unsafe { *p } }\n"
    )
    feats = extract_features(_target(tmp_path, source), [_report(1), _report(2)])
    # a page after a tried seed holds three solutions
    seed = RepairSolution(id="s00", steps=[RepairStep(AgentKind.ADD_ASSERTION, feats[0].ref, "seed")])
    mock = ScriptedMockProvider(ProviderConfig())
    first, *rest = generate_solutions(feats, k=3, provider=mock, tried=_tried([seed]))
    assert [s.target_region for s in first.steps] == [f.ref for f in feats]
    for step, feature in zip(first.steps, feats):
        expected = _mock_code(step, feature, ScriptedMockProvider(ProviderConfig()))
        assert step.code == CodeBlock(feature.region.snippet, expected)
    assert rest and all(step.code is None for s in rest for step in s.steps)


def test_a_rule_that_abstains_or_gives_no_code_leaves_the_step_without_a_block(tmp_path):
    feats = extract_features(_target(tmp_path), [_report(3)])
    for answer in ("NO SAFE EQUIVALENT", "NO GUARD EXPRESSIBLE", "no code here"):
        mock = ScriptedMockProvider(ProviderConfig(), rules=[(MARKER_FIX, answer)])
        first = generate_solutions(feats, k=1, provider=mock)[0]
        assert first.steps[0].code is None
    # a rule that keeps the region, UB and all, gives that same region back
    snippet = feats[0].region.snippet
    keep = ScriptedMockProvider(ProviderConfig(), rules=[(MARKER_FIX, f"kept\n\n```rust\n{snippet}\n```")])
    first = generate_solutions(feats, k=1, provider=keep)[0]
    assert first.steps[0].code == CodeBlock(snippet, snippet)


def test_extract_features_names_each_report_once_and_counts_each_region_once(tmp_path, monkeypatch):
    import ubmend.fast as fast

    source = "".join(f"fn f{i}(p: *const u8) -> u8 {{\n    unsafe {{ *p }}\n}}\n" for i in range(4))
    (tmp_path / "main.rs").write_text(source)
    target = TargetPackage.from_path(tmp_path)
    reports = [_report(line) for line in (2, 5, 8, 13)]
    calls = {"named": 0, "lines": 0}
    named, line_of_offset = fast._named_file, fast.line_of_offset

    def counted_named(*args):
        calls["named"] += 1
        return named(*args)

    def counted_lines(*args):
        calls["lines"] += 1
        return line_of_offset(*args)

    monkeypatch.setattr(fast, "_named_file", counted_named)
    monkeypatch.setattr(fast, "line_of_offset", counted_lines)
    features = extract_features(target, reports)
    assert [f.ref for f in features] == ["main.rs#0", "main.rs#1", "main.rs#2"]
    # one name per report, and a first and last line per region
    assert calls == {"named": len(reports), "lines": 2 * 4}


# --- a report names its file ---


def test_a_report_in_one_mod_rs_hits_no_region_of_another(tmp_path):
    source = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n"
    for module in ("fs", "net"):
        (tmp_path / "src" / module).mkdir(parents=True)
        (tmp_path / "src" / module / "mod.rs").write_text(source)
    target = TargetPackage.from_path(tmp_path)
    assert target.entry_files == ["src/fs/mod.rs", "src/net/mod.rs"]
    region = locate_unsafe_regions(source, "src/fs/mod.rs")[0]
    report = _report(2, file="src/net/mod.rs")
    assert not _report_hits_region(report, "src/fs/mod.rs", source, region, target.entry_files)
    assert _report_hits_region(report, "src/net/mod.rs", source, region, target.entry_files)
    assert [f.ref for f in extract_features(target, [report])] == ["src/net/mod.rs#0"]
    # a report in no region falls back to its own file's first region
    outside = [_report(1, file="src/net/mod.rs")]
    assert [f.ref for f in extract_features(target, outside) or stand_in_features(target, outside)] == ["src/net/mod.rs#0"]
    # a path names the entry file that shares the most trailing components
    elsewhere = _report(2, file="/build/checkout/fs/mod.rs")
    assert _report_hits_region(elsewhere, "src/fs/mod.rs", source, region, target.entry_files)
    assert not _report_hits_region(elsewhere, "src/net/mod.rs", source, region, target.entry_files)
    # a bare basename two entry files share names neither
    bare = _report(2, file="mod.rs")
    for rel in target.entry_files:
        assert not _report_hits_region(bare, rel, source, region, target.entry_files)
