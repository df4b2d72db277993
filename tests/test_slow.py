"""Session loop: rollback trigger, budgets, skip/revert handling, verdicts."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from conftest import SpyProvider, run_session_on_copy, stub_detector_config
from ubmend import detector, slow
from ubmend.cli import repair_one
from ubmend.detector import CaseMemo, TargetPackage, run_detection
from ubmend.fast import AgentKind, RepairSolution, RepairStep, parse_region_ref
from ubmend.feedback import EvalTriplet, FeedbackEngine
from ubmend.kb import KnowledgeBase, KnowledgeEntry, extract_ast, prune, vectorize
from ubmend.provider import ProviderConfig, ProviderMode, ScriptedMockProvider
from ubmend.slow import (
    SessionConfig,
    Verdict,
    should_rollback,
)
from ubmend.workspace import WorkingCopy

UB_LINE = "//~UB Undefined Behavior: trying to retag from <{tag}> for Unique permission"


def _source(directives: int) -> str:
    body = ["        let probe = 1i32;"]
    for i in range(directives):
        body.append("        " + UB_LINE.format(tag=40 + i))
    body.append("        let _ = probe;")
    inner = "\n".join(body)
    return (
        "fn main() {\n"
        "    let mut value = 7i32;\n"
        "    let alias = &mut value as *mut i32;\n"
        "    unsafe {\n"
        f"{inner}\n"
        "    }\n"
        "    let _ = alias;\n"
        "    println!(\"done\");\n"
        "}\n"
    )


def _region_block(directives: int, variant: int) -> str:
    """Rewritten unsafe block carrying the given number of directives."""
    lines = ["unsafe {", f"        let probe = {variant}i32;"]
    for i in range(directives):
        lines.append("        " + UB_LINE.format(tag=60 + 10 * variant + i))
    lines.append("        let _ = probe;")
    lines.append("    }")
    return "\n".join(lines)


def _fix_response(directives: int, variant: int) -> str:
    return f"scripted rewrite\n\n```rust\n{_region_block(directives, variant)}\n```"


def _provider(rules) -> ScriptedMockProvider:
    return ScriptedMockProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK), rules=rules)


def _steps(*instructions: str, agent: AgentKind = AgentKind.MODIFY_SEMANTICS) -> list[RepairStep]:
    return [RepairStep(agent=agent, target_region="main.rs#0", instruction=i) for i in instructions]


def _session_config(budget: int = 5) -> SessionConfig:
    return SessionConfig(memo=CaseMemo(), detector=stub_detector_config(), budget=budget, kb_enabled=False)


def _target(tmp_path: Path, source: str) -> TargetPackage:
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "main.rs"
    path.write_text(source, encoding="utf-8")
    return TargetPackage.from_path(path)


@pytest.mark.parametrize(
    ("counts", "expected"),
    [
        ([3, 1, 5], True),  # 5 > 2 * min
        ([1, 3], True),  # factor trip without a full window
        ([3, 1], False),
        ([2, 3, 4], True),  # strictly increasing window
        ([2, 2, 2], False),
        ([1, 2], False),  # boundary: 2 is not > 2.0 * 1
        ([0, 1], True),  # any regression from a zero-error point trips
        ([4], False),
        ([], False),
    ],
)
def test_should_rollback_truth_table(counts, expected):
    assert should_rollback(counts) is expected


def test_should_rollback_respects_window_and_factor():
    # three rising counts trip the window; 7 <= 2 * 5 keeps the factor quiet
    assert should_rollback([5, 6, 7]) is True
    assert should_rollback([6, 7]) is False
    assert should_rollback([4, 9]) is True
    assert should_rollback([4, 8]) is False


def test_budget_must_be_positive(tmp_path):
    target = _target(tmp_path, _source(0))
    with pytest.raises(ValueError):
        run_session_on_copy(
            target,
            [],
            provider=_provider([]),
            config=_session_config(budget=0),
        )


def test_ub_free_target_passes_without_thoughts(tmp_path):
    target = _target(tmp_path, _source(0))
    out = run_session_on_copy(target, [], provider=_provider([]), config=_session_config())
    assert out.verdict is Verdict.PASS
    assert out.trace.counts == [0]
    assert out.trace.thoughts == []
    assert out.solution_id is None
    assert out.final_errors == 0
    assert out.final_source["main.rs"] == _source(0)


def test_single_fix_step_reaches_pass(tmp_path):
    target = _target(tmp_path, _source(1))
    provider = _provider([("variant 1", _fix_response(0, 1))])
    solution = RepairSolution(id="s01", steps=_steps("variant 1"))
    out = run_session_on_copy(target, [solution], provider=provider, config=_session_config())
    assert out.verdict is Verdict.PASS
    assert out.trace.counts == [1, 0]
    assert len(out.trace.thoughts) == 1
    assert out.trace.thoughts[0].patch is not None
    assert out.solution_id == "s01"
    assert out.final_errors == 0
    assert "//~UB" not in out.final_source["main.rs"]


def test_abstaining_step_is_skipped_with_count_unchanged(tmp_path):
    target = _target(tmp_path, _source(1))
    provider = _provider([("variant 2", _fix_response(0, 2))])
    steps = [
        # no replacement catalogue entry matches the probe region, so the
        # gate abstains before spending a provider call
        RepairStep(agent=AgentKind.SAFE_REPLACE, target_region="main.rs#0", instruction="swap"),
        RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region="main.rs#0", instruction="variant 2"),
    ]
    out = run_session_on_copy(
        target,
        [RepairSolution(id="s01", steps=steps)],
        provider=provider,
        config=_session_config(),
    )
    assert out.verdict is Verdict.PASS
    assert out.trace.counts == [1, 1, 0]
    skipped = out.trace.thoughts[0]
    assert skipped.note.startswith("skipped:")
    assert skipped.patch is None
    assert skipped.resulting_errors == 1


def test_unresolvable_region_is_skipped(tmp_path):
    target = _target(tmp_path, _source(1))
    provider = _provider([("variant 3", _fix_response(0, 3))])
    steps = [
        RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region="main.rs#5", instruction="x"),
        RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region="main.rs#0", instruction="variant 3"),
    ]
    out = run_session_on_copy(
        target,
        [RepairSolution(id="s01", steps=steps)],
        provider=provider,
        config=_session_config(),
    )
    assert out.verdict is Verdict.PASS
    assert out.trace.thoughts[0].note == "region unresolvable"
    assert out.trace.counts == [1, 1, 0]


def test_a_negative_region_ordinal_is_unresolvable(tmp_path):
    target = _target(tmp_path, _source(1))
    provider = _provider([("variant 3", _fix_response(0, 3))])
    steps = [RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region="main.rs#-1", instruction="variant 3")]
    out = run_session_on_copy(
        target,
        [RepairSolution(id="s01", steps=steps)],
        provider=provider,
        config=_session_config(),
    )
    assert out.verdict is Verdict.FAILED
    assert out.trace.thoughts[0].note == "region unresolvable"
    with pytest.raises(ValueError):
        parse_region_ref("main.rs#-1")


def test_a_region_ref_outside_the_working_copy_is_unresolvable(tmp_path):
    target = _target(tmp_path / "pkg", _source(1))
    outside = tmp_path / "elsewhere" / "lib.rs"
    outside.parent.mkdir()
    outside.write_text(_source(1), encoding="utf-8")
    provider = _provider([("variant 3", _fix_response(0, 3))])
    steps = [RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region=f"{outside}#0", instruction="variant 3")]
    out = run_session_on_copy(
        target,
        [RepairSolution(id="s01", steps=steps)],
        provider=provider,
        config=_session_config(),
    )
    assert out.trace.thoughts[0].note == "region unresolvable"
    assert outside.read_text(encoding="utf-8") == _source(1)


def test_a_step_on_a_file_that_does_not_lex_is_unresolvable(tmp_path):
    target = _target(tmp_path, _source(1))
    (tmp_path / "util.rs").write_text("fn g() { unsafe {\n", encoding="utf-8")
    provider = _provider([("variant 3", _fix_response(0, 3))])
    steps = [
        RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region="util.rs#0", instruction="x"),
        RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region="main.rs#0", instruction="variant 3"),
    ]
    out = run_session_on_copy(
        target,
        [RepairSolution(id="s01", steps=steps)],
        provider=provider,
        config=_session_config(),
    )
    assert out.verdict is Verdict.PASS
    assert out.trace.thoughts[0].note == "region unresolvable"


def test_working_copy_reads_and_writes_only_under_its_root(tmp_path):
    outside = tmp_path / "outside.rs"
    outside.write_text("fn f() {}\n", encoding="utf-8")
    ws = WorkingCopy(_target(tmp_path / "pkg", _source(0)))
    try:
        for rel in (str(outside), os.path.relpath(outside, ws.root), "sub/../../outside.rs", ""):
            with pytest.raises(FileNotFoundError):
                ws.read(rel)
            with pytest.raises(FileNotFoundError):
                ws.write(rel, "fn g() {}\n")
        ws.write("sub/../main.rs", "fn main() {}\n")
        assert ws.read("main.rs") == "fn main() {}\n"
    finally:
        ws.cleanup()
    assert outside.read_text(encoding="utf-8") == "fn f() {}\n"


def test_compile_breaking_patch_is_reverted(tmp_path):
    source = _source(1)
    target = _target(tmp_path, source)
    broken = "unsafe {\n        //~COMPILE-ERROR\n        let probe = 9i32;\n    }"
    provider = _provider([("variant 1", f"oops\n\n```rust\n{broken}\n```")])
    solution = RepairSolution(id="s01", steps=_steps("variant 1"))
    out = run_session_on_copy(target, [solution], provider=provider, config=_session_config())
    assert out.verdict is Verdict.FAILED
    thought = out.trace.thoughts[0]
    assert thought.note == "patch reverted: compile failure"
    assert thought.patch is not None
    assert thought.resulting_errors == 1
    assert out.trace.counts == [1, 1]
    assert out.final_source["main.rs"] == source
    assert out.final_errors == 1


def test_budget_exhausted_when_steps_remain(tmp_path):
    target = _target(tmp_path, _source(1))
    provider = _provider(
        [
            ("variant 1", _fix_response(1, 1)),
            ("variant 2", _fix_response(1, 2)),
            ("variant 3", _fix_response(0, 3)),
        ]
    )
    solution = RepairSolution(id="s01", steps=_steps("variant 1", "variant 2", "variant 3"))
    out = run_session_on_copy(
        target,
        [solution],
        provider=provider,
        config=_session_config(budget=2),
    )
    assert out.verdict is Verdict.BUDGET_EXHAUSTED
    assert out.trace.counts == [1, 1, 1]
    assert len(out.trace.thoughts) == 2
    assert out.trace.iteration_budget == 2
    assert out.final_errors == 1


def test_failed_run_restores_baseline_and_counts_discards(tmp_path):
    source = _source(1)
    target = _target(tmp_path, source)
    provider = _provider([("variant 1", _fix_response(4, 1))])
    solution = RepairSolution(id="s01", steps=_steps("variant 1"))
    out = run_session_on_copy(target, [solution], provider=provider, config=_session_config())
    assert out.verdict is Verdict.FAILED
    assert out.trace.counts == [1, 4]
    assert out.final_source["main.rs"] == source
    assert out.final_errors == 1
    assert out.stats.rollback_count >= 1
    assert out.stats.discarded_thoughts >= 1


def test_explicit_rollback_step_restores_best_snapshot(tmp_path):
    target = _target(tmp_path, _source(1))
    # 1 -> 2 stays under both triggers, so only the scripted Rollback
    # step returns the copy to baseline before the cleaning rewrite
    provider = _provider(
        [
            ("variant 1", _fix_response(2, 1)),
            ("variant 2", _fix_response(0, 2)),
        ]
    )
    steps = [
        RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region="main.rs#0", instruction="variant 1"),
        RepairStep(agent=AgentKind.ROLLBACK, target_region="main.rs#0", instruction="restore"),
        RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region="main.rs#0", instruction="variant 2"),
    ]
    out = run_session_on_copy(
        target,
        [RepairSolution(id="s01", steps=steps)],
        provider=provider,
        config=_session_config(),
    )
    assert out.verdict is Verdict.PASS
    # restores never append to the trace
    assert out.trace.counts == [1, 2, 0]
    assert out.stats.rollback_count == 1
    assert out.stats.discarded_thoughts == 1


def test_auto_rollback_fires_on_factor_blowup(tmp_path):
    target = _target(tmp_path, _source(1))
    provider = _provider(
        [
            ("variant 1", _fix_response(3, 1)),
            ("variant 2", _fix_response(0, 2)),
        ]
    )
    solution = RepairSolution(id="s01", steps=_steps("variant 1", "variant 2"))
    out = run_session_on_copy(target, [solution], provider=provider, config=_session_config())
    assert out.verdict is Verdict.PASS
    assert out.trace.counts == [1, 3, 0]
    assert out.stats.rollback_count == 1


def test_second_solution_starts_from_best_state(tmp_path):
    source = _source(1)
    target = _target(tmp_path, source)
    seen: list[str] = []

    def _first(_prompt: str) -> str:
        seen.append("first")
        return _fix_response(4, 1)

    def _second(prompt: str) -> str:
        seen.append("second")
        # the worsening rewrite was rolled back before this solution ran
        assert "let probe = 1i32;" in prompt
        return _fix_response(0, 2)

    provider = _provider([("variant 1", _first), ("variant 2", _second)])
    solutions = [
        RepairSolution(id="s01", steps=_steps("variant 1")),
        RepairSolution(id="s02", steps=_steps("variant 2")),
    ]
    out = run_session_on_copy(target, solutions, provider=provider, config=_session_config())
    assert out.verdict is Verdict.PASS
    assert out.solution_id == "s02"
    assert seen == ["first", "second"]
    # the reported trace belongs to the solution that finished
    assert out.trace.counts == [1, 0]


def _consult_then_fix(tmp_path: Path, reason_ref: str) -> tuple[SpyProvider, Verdict]:
    """A session whose Reason step on ``reason_ref`` consults a store that
    holds one prior fix of ``_source(1)``, then fixes region 0."""
    source = _source(1)
    target = _target(tmp_path, source)
    det = stub_detector_config()
    provider = SpyProvider(
        ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK),
        rules=[("variant 1", _fix_response(0, 1))],
    )
    baseline = run_detection(_target(tmp_path / "probe", source), config=det, memo=CaseMemo())
    vector = vectorize(
        prune(extract_ast(source), baseline),
        ub_kinds=(r.kind for r in baseline),
    )
    kb = KnowledgeBase()
    kb.insert(
        KnowledgeEntry(
            vector=vector,
            ub_kind=baseline[0].kind,
            solution={"steps": [{"agent": "ModifySemantics", "instruction": "drop the retag"}]},
            triplet=EvalTriplet(True, True, 1.0, 10),
        )
    )
    config = SessionConfig(memo=CaseMemo(), detector=det)
    steps = [
        RepairStep(agent=AgentKind.REASON, target_region=reason_ref, instruction="consult"),
        RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region="main.rs#0", instruction="variant 1"),
    ]
    out = run_session_on_copy(
        target,
        [RepairSolution(id="s01", steps=steps)],
        provider=provider,
        config=config,
        kb=kb,
    )
    return provider, out.verdict


def test_reason_step_feeds_prior_fixes_into_next_prompt(tmp_path):
    provider, verdict = _consult_then_fix(tmp_path, "main.rs#0")
    assert verdict is Verdict.PASS
    enriched = [p for p in provider.prompts if "prior fix (similarity" in p]
    assert len(enriched) == 1
    assert "drop the retag" in enriched[0]
    assert "variant 1" in enriched[0]


@pytest.mark.parametrize("reason_ref", ["main.rs#x", "main.rs", "/nowhere/lib.rs#0", "../main.rs#0"])
def test_reason_step_on_a_ref_naming_no_region_searches_with_the_entry_file(tmp_path, reason_ref):
    provider, verdict = _consult_then_fix(tmp_path, reason_ref)
    assert verdict is Verdict.PASS
    enriched = [p for p in provider.prompts if "prior fix (similarity 1.00," in p]
    assert len(enriched) == 1 and "drop the retag" in enriched[0]


def test_reason_step_is_inert_when_kb_disabled(tmp_path):
    target = _target(tmp_path, _source(1))
    provider = SpyProvider(
        ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK),
        rules=[("variant 1", _fix_response(0, 1))],
    )
    steps = [
        RepairStep(agent=AgentKind.REASON, target_region="main.rs#0", instruction="consult"),
        RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region="main.rs#0", instruction="variant 1"),
    ]
    out = run_session_on_copy(
        target,
        [RepairSolution(id="s01", steps=steps)],
        provider=provider,
        config=_session_config(),
    )
    assert out.verdict is Verdict.PASS
    assert not any("prior fix (similarity" in p for p in provider.prompts)


def test_the_knowledge_heading_appears_only_when_a_reason_step_found_knowledge(tmp_path):
    provider, _ = _consult_then_fix(tmp_path / "found", "main.rs#0")
    (fix,) = provider.prompts
    assert "\nInstruction: variant 1\n" in fix
    assert "\n\nKnowledge from previous repairs:\n- prior fix (similarity 1.00," in fix
    target = _target(tmp_path / "none", _source(1))
    provider = SpyProvider(
        ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK),
        rules=[("variant 1", _fix_response(0, 1))],
    )
    run_session_on_copy(
        target,
        [RepairSolution(id="s01", steps=_steps("variant 1"))],
        provider=provider,
        config=_session_config(),
        kb=KnowledgeBase(),
    )
    (fix,) = provider.prompts
    assert "\nInstruction: variant 1\n" in fix
    assert "Knowledge from previous repairs" not in fix


def test_outcome_serializes_to_stable_json(tmp_path):
    target = _target(tmp_path, _source(1))
    provider = _provider([("variant 1", _fix_response(0, 1))])
    solution = RepairSolution(id="s01", steps=_steps("variant 1"))
    out = run_session_on_copy(target, [solution], provider=provider, config=_session_config())
    payload = out.to_dict()
    assert payload["schema_version"] == 1
    assert payload["verdict"] == "pass"
    assert set(payload) == {"schema_version", "verdict", "final_source", "trace"}
    thought = payload["trace"]["thoughts"][0]
    assert set(thought) == {"index", "step", "patch", "resulting_errors", "note"}
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        json.loads(json.dumps(payload)), sort_keys=True
    )


def test_detection_timeout_mid_session_fails_closed(tmp_path, monkeypatch):
    spawns = []
    real_run_group = detector.run_group

    def counted_run_group(argv, *args, **kwargs):
        spawns.append(argv)
        return real_run_group(argv, *args, **kwargs)

    monkeypatch.setattr(detector, "run_group", counted_run_group)
    target = _target(tmp_path, _source(1))
    sleeper = "unsafe {\n        //~SLEEP 5\n        let probe = 4i32;\n    }"
    provider = _provider([("variant 1", f"stall\n\n```rust\n{sleeper}\n```")])
    config = SessionConfig(memo=CaseMemo(), detector=stub_detector_config(timeout=0.5), kb_enabled=False)
    solution = RepairSolution(id="s01", steps=_steps("variant 1"))
    out = run_session_on_copy(target, [solution], provider=provider, config=config)
    assert out.verdict is Verdict.FAILED
    assert out.final_errors == 1
    # the aborted step never enters the trace, and its bytes leave the copy
    assert out.trace.counts == [1]
    assert out.final_source == {"main.rs": _source(1)}  # no //~SLEEP left
    # the baseline and the timed-out patch; the session ends on the baseline
    # snapshot without detecting its bytes again
    assert len(spawns) == 2


def test_session_ends_on_an_earlier_solutions_snapshot_without_detecting_again(tmp_path, monkeypatch):
    detected = []  # the bytes of each detection the session asks for
    real_detect = slow._detect

    def recorded_detect(target, config):
        detected.append((target.root_path / "main.rs").read_text(encoding="utf-8"))
        return real_detect(target, config)

    monkeypatch.setattr(slow, "_detect", recorded_detect)
    target = _target(tmp_path, _source(2))
    provider = _provider([("variant 1", _fix_response(1, 1)), ("variant 2", _fix_response(2, 2))])
    solutions = [
        RepairSolution(id="s01", steps=_steps("variant 1")),
        RepairSolution(id="s02", steps=_steps("variant 2")),
    ]
    out = run_session_on_copy(target, solutions, provider=provider, config=_session_config())
    assert out.verdict is Verdict.FAILED
    assert out.trace.counts == [1, 2]  # s02 started from s01's snapshot and made it worse
    # the baseline and one detection per step; none after s02's step
    assert len(detected) == 3
    assert out.final_errors == 1
    assert out.final_source == {"main.rs": detected[1]}  # the bytes s01's step left
    assert UB_LINE.format(tag=70) in detected[1]


def test_outcome_reports_session_baseline_and_every_thought(tmp_path):
    target = _target(tmp_path, _source(2))
    provider = _provider([("variant 1", _fix_response(1, 1)), ("variant 2", _fix_response(0, 2))])
    solutions = [
        RepairSolution(id="s01", steps=_steps("variant 1")),
        RepairSolution(id="s02", steps=_steps("variant 2")),
    ]
    out = run_session_on_copy(target, solutions, provider=provider, config=_session_config())
    assert out.verdict is Verdict.PASS
    assert out.trace.counts == [1, 0]  # the last solution's own trace
    assert out.baseline_errors == 2
    assert out.thought_count == 2
    assert out.final_errors == 0


def test_reason_step_finds_the_stored_entry_for_the_same_program(tmp_path):
    # two reports of one kind: the stored vector and the searched vector
    # must count the kind the same number of times
    source = _source(2)
    engine = FeedbackEngine(None, kb=KnowledgeBase())
    stored, _, _ = repair_one(
        _target(tmp_path / "first", source),
        _provider([]),
        engine,
        SessionConfig(memo=CaseMemo(), detector=stub_detector_config()),
    )
    assert stored.verdict is Verdict.PASS
    assert len(engine.kb.entries) == 1
    provider = SpyProvider(
        ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK),
        rules=[("variant 1", _fix_response(0, 1))],
    )
    steps = [
        RepairStep(agent=AgentKind.REASON, target_region="main.rs#0", instruction="consult"),
        RepairStep(agent=AgentKind.MODIFY_SEMANTICS, target_region="main.rs#0", instruction="variant 1"),
    ]
    run_session_on_copy(
        _target(tmp_path / "second", source),
        [RepairSolution(id="s01", steps=steps)],
        provider=provider,
        config=SessionConfig(memo=CaseMemo(), detector=stub_detector_config()),
        kb=engine.kb,
    )
    enriched = [p for p in provider.prompts if "prior fix (similarity" in p]
    assert len(enriched) == 1
    assert "prior fix (similarity 1.00," in enriched[0]
