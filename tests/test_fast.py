"""Fast path: feature extraction and solution planning."""

from __future__ import annotations

import pytest

from ubmend.classifier import CodeFeature, FixStrategy, UnsafeOpKind, UnsafeRegion
from ubmend.detector import TargetPackage, UbKind, UbReport
from ubmend.fast import (
    AgentKind,
    Provenance,
    RepairSolution,
    RepairStep,
    extract_features,
    fallback_solutions,
    generate_solutions,
    normalize_steps,
    parse_plan,
    strategy_order,
)
from ubmend.provider import ProviderConfig, ScriptedMockProvider
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
    plans = parse_plan(text)
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
    plans = parse_plan(text)
    assert len(plans) == 1
    (step,) = plans[0]
    assert step.agent == AgentKind.MODIFY_SEMANTICS
    assert step.instruction == "do the thing"


def test_parse_plan_steps_without_solution_header():
    plans = parse_plan("STEP 1: Reason main.rs#0 :: consult past fixes\n")
    assert len(plans) == 1
    assert plans[0][0].agent == AgentKind.REASON


def test_parse_plan_empty():
    assert parse_plan("nothing useful") == []


def test_normalize_steps_collapses_formatting():
    a = [RepairStep(AgentKind.SAFE_REPLACE, "main.rs#0", "Swap  To   safe")]
    b = [RepairStep(AgentKind.SAFE_REPLACE, "main.rs#0", "swap to safe")]
    assert normalize_steps(a) == normalize_steps(b)


# --- strategy order and fallbacks ---


def test_strategy_order_unclassifiable_goes_semantics_first():
    order = strategy_order(_feature(ops=frozenset()))
    assert order[0] == FixStrategy.SEMANTIC_MODIFICATION


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
    source = "fn main() {\n    let x = 1;\n}\n"
    target = _target(tmp_path, source)
    feats = extract_features(target, [_report(2)])
    assert len(feats) == 1
    assert feats[0].region.snippet == source
    assert feats[0].op_kinds == frozenset()


def test_extract_features_unmatched_line_falls_back_to_first_region(tmp_path):
    # report at a line outside every unsafe span still yields a usable feature
    target = _target(tmp_path)
    feats = extract_features(target, [_report(1)])
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
    prompts: list[str] = []
    complete = provider.complete
    provider.complete = lambda prompt: prompts.append(prompt.text()) or complete(prompt)
    generate_solutions(feats, k=2, provider=provider)
    (prompt,) = prompts
    snippets = ["unsafe { one() }", "unsafe { two() }", 'unsafe { println!("{errors}") }']
    assert [prompt.count(s) for s in snippets] == [1, 1, 1]
    regions = prompt.split("and code:\n", 1)[1].split("\n\nSolutions tried", 1)[0].splitlines()
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
    many = "".join(
        f"SOLUTION {i}:\nSTEP 1: ModifySemantics main.rs#0 :: variant {i}\n"
        for i in range(1, 9)
    )
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", many)])
    sols = generate_solutions([_feature()], k=3, provider=provider)
    assert len(sols) == 3


def _tried(solutions):
    return [(s, ErrorTrace(counts=[1, 1], thoughts=[], iteration_budget=5)) for s in solutions]


def test_a_page_of_repeats_ends_the_drawing_after_one_call():
    plan = "SOLUTION 1:\nSTEP 1: ModifySemantics main.rs#0 :: same\n"
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", plan)])
    first = generate_solutions([_feature()], k=5, provider=provider)
    assert generate_solutions([_feature()], k=5, provider=provider, tried=_tried(first)) == []
    assert provider.calls == 2


def test_a_degenerate_follow_up_page_does_not_re_add_the_template_plans():
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", "no steps here")])
    first = generate_solutions([_feature()], k=10, provider=provider)
    assert len(first) == 3
    assert generate_solutions([_feature()], k=10, provider=provider, tried=_tried(first)) == []
    assert provider.calls == 4


def test_ids_continue_across_pages_after_a_seed():
    many = "".join(
        f"SOLUTION {i}:\nSTEP 1: ModifySemantics main.rs#0 :: variant {i}\n" for i in range(1, 9)
    )
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("", many)])
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
    # both attempts degenerate; template plans fill in
    assert provider.calls == 2
    assert len(sols) == 3
    assert sols[0].steps[0].agent == AgentKind.MODIFY_SEMANTICS
