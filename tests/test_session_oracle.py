"""Differential oracle for the session loop.

``reference_run_session`` is the loop as it stood when the session tracked
its state in separate counters, report maps and snapshot indices. It stays
here as the reference that ``run_session`` must match on every plan: the
same outcome, statistics, prompts and final bytes. Its one change since is
that a detection timeout puts the copy back to the last recorded state
before the solution loop ends, as ``run_session`` does.
No benchmark workload rolls back, so these plans are where rollbacks,
aborts, abstentions and Reason steps meet.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SpyProvider, run_stub_in_process, stub_detector_config
from ubmend import detector
from ubmend.detector import TargetPackage, UbReport, run_detection
from ubmend.errors import DetectionTimeout, NonUbCompileError
from ubmend.fast import FIX_AGENTS, AgentKind, RepairSolution, RepairStep
from ubmend.feedback import EvalTriplet
from ubmend.kb import KnowledgeBase, KnowledgeEntry, feature_vector
from ubmend.provider import ProviderConfig, ProviderMode
from ubmend.rollback import SnapshotStore
from ubmend.slow import (
    ErrorTrace,
    SessionConfig,
    SessionOutcome,
    Verdict,
    _detect,
    _knowledge_context,
    execute_step,
    run_session,
    should_rollback,
)
from ubmend.workspace import WorkingCopy

UB_LINE = "//~UB Undefined Behavior: trying to retag from <{tag}> for Unique permission"


def reference_run_session(target, solutions, *, provider, config, kb=None) -> SessionOutcome:
    budget = config.budget
    ws = WorkingCopy(target)
    try:
        baseline = _detect(ws.target, config)
        store = SnapshotStore()
        store.record(0, ws.files(), baseline.error_count)
        reports_at: dict[int, list[UbReport]] = {0: list(baseline.reports)}
        if baseline.error_count == 0:
            trace = ErrorTrace(counts=[0], thoughts=[], iteration_budget=budget)
            return SessionOutcome(Verdict.PASS, ws.files(), trace, stats=store.stats)

        current_count = baseline.error_count
        current_reports = list(baseline.reports)
        ws_at: int | None = 0
        trace = ErrorTrace(counts=[current_count], thoughts=[], iteration_budget=budget)
        passed = False
        budget_hit_last = False
        attempted_id: str | None = None
        thought_count = 0

        for solution in solutions:
            attempted_id = solution.id
            trace = ErrorTrace(counts=[current_count], thoughts=[], iteration_budget=budget)
            reason_context: str | None = None
            budget_hit_last = False
            aborted = False
            for step in solution.steps:
                if step.agent is AgentKind.REASON:
                    reason_context = _knowledge_context(step, ws, current_reports, provider, config, kb)
                    continue
                if step.agent is AgentKind.ROLLBACK:
                    target_idx = store.select_rollback_target()
                    snap = store.restore(target_idx, ws)
                    current_count = snap.error_count
                    current_reports = list(reports_at.get(target_idx, current_reports))
                    ws_at = target_idx
                    continue
                if step.agent not in FIX_AGENTS:
                    continue
                if len(trace.thoughts) >= budget:
                    budget_hit_last = True
                    break
                try:
                    thought, detection = execute_step(
                        step,
                        ws,
                        current_reports,
                        provider,
                        config,
                        index=len(trace.thoughts),
                        prev_count=current_count,
                        context=reason_context,
                    )
                except DetectionTimeout:
                    ws.restore(store.snapshots[ws_at].files)
                    aborted = True
                    break
                reason_context = None
                thought_count += 1
                trace.thoughts.append(thought)
                trace.counts.append(thought.resulting_errors)
                snap_index = store.latest_index() + 1
                store.record(snap_index, ws.files(), thought.resulting_errors)
                if detection is not None:
                    reports_at[snap_index] = list(detection.reports)
                    current_reports = list(detection.reports)
                else:
                    reports_at[snap_index] = list(current_reports)
                current_count = thought.resulting_errors
                ws_at = snap_index
                if current_count == 0:
                    passed = True
                    break
                if should_rollback(trace):
                    target_idx = store.select_rollback_target()
                    snap = store.restore(target_idx, ws)
                    current_count = snap.error_count
                    current_reports = list(reports_at.get(target_idx, current_reports))
                    ws_at = target_idx
            if passed or aborted:
                break
            best = store.select_rollback_target()
            if ws_at != best:
                snap = store.restore(best, ws)
                current_count = snap.error_count
                current_reports = list(reports_at.get(best, current_reports))
                ws_at = best

        if not passed:
            best = store.select_rollback_target()
            if ws_at != best:
                store.restore(best, ws)
                ws_at = best
        try:
            verify = _detect(ws.target, config)
            final_clean = verify.clean
            final_errors = verify.error_count
        except (NonUbCompileError, DetectionTimeout):
            final_clean = False
            final_errors = current_count
        if final_clean:
            verdict = Verdict.PASS
        elif budget_hit_last:
            verdict = Verdict.BUDGET_EXHAUSTED
        else:
            verdict = Verdict.FAILED
        return SessionOutcome(
            verdict,
            ws.files(),
            trace,
            stats=store.stats,
            solution_id=attempted_id,
            final_errors=final_errors,
            baseline_errors=baseline.error_count,
            thought_count=thought_count,
        )
    finally:
        ws.cleanup()


@pytest.fixture(scope="module", autouse=True)
def _in_process_detector():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector, "run_group", run_stub_in_process)
        yield


# --- plans -----------------------------------------------------------------


def _source(directives: int) -> str:
    body = ["        let probe = 1i32;"]
    body += ["        " + UB_LINE.format(tag=40 + i) for i in range(directives)]
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
        "}\n"
    )


def _fenced(lines: list[str]) -> str:
    block = "\n".join(["unsafe {", *("        " + ln for ln in lines), "    }"])
    return f"scripted rewrite\n\n```rust\n{block}\n```"


def _response(kind: str, arg: int, k: int) -> str:
    """The provider's answer to fix step ``k`` of the plan."""
    if kind == "fix":
        ub = [UB_LINE.format(tag=1000 + 10 * k + i) for i in range(arg)]
        return _fenced([f"let probe = {k}i32;", *ub, "let _ = probe;"])
    if kind == "compile":
        return _fenced(["//~COMPILE-ERROR", f"let probe = {k}i32;"])
    if kind == "sleep":
        return _fenced(["//~SLEEP 5", f"let probe = {k}i32;"])
    return "no fenced block in this answer"  # "nofence": the agent gives up


_STEP = st.one_of(
    st.tuples(st.just("fix"), st.integers(0, 6)),
    st.tuples(st.sampled_from(["compile", "sleep", "nofence", "swap", "lost", "reason", "rollback"]), st.just(0)),
)
_PLAN = st.lists(st.lists(_STEP, min_size=0, max_size=6), min_size=1, max_size=3)


def _solutions(plan) -> tuple[list[RepairSolution], list[tuple[str, str]]]:
    solutions, rules = [], []
    k = 0
    for s, steps in enumerate(plan):
        built = []
        for kind, arg in steps:
            k += 1
            instruction = f"<step {k:03d}>"
            if kind == "reason":
                built.append(RepairStep(AgentKind.REASON, "main.rs#0", "consult"))
            elif kind == "rollback":
                built.append(RepairStep(AgentKind.ROLLBACK, "main.rs#0", "restore"))
            elif kind == "swap":
                # no catalogue entry matches the probe region: the gate abstains
                built.append(RepairStep(AgentKind.SAFE_REPLACE, "main.rs#0", instruction))
            elif kind == "lost":
                built.append(RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#5", instruction))
            else:
                built.append(RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#0", instruction))
                rules.append((instruction, _response(kind, arg, k)))
        solutions.append(RepairSolution(id=f"s{s + 1:02d}", steps=built))
    return solutions, rules


@pytest.fixture(scope="module")
def targets(tmp_path_factory) -> dict[int, TargetPackage]:
    out = {}
    for directives in (0, 1, 2, 3):
        path = tmp_path_factory.mktemp(f"baseline{directives}") / "main.rs"
        path.write_text(_source(directives), encoding="utf-8")
        out[directives] = TargetPackage.from_path(path)
    return out


@pytest.fixture(scope="module")
def kb(targets) -> KnowledgeBase:
    """One prior fix the Reason steps find for every target."""
    target = targets[2]
    source = (target.root_path / "main.rs").read_text(encoding="utf-8")
    reports = run_detection(target, config=stub_detector_config()).reports
    base = KnowledgeBase()
    base.insert(
        KnowledgeEntry(
            vector=feature_vector(source, reports),
            ub_kind=reports[0].kind,
            solution={"steps": [{"agent": "ModifySemantics", "instruction": "drop the retag"}]},
            triplet=EvalTriplet(True, True, 1.0, 10),
            created=1.0,
        )
    )
    return base


def _run(session, target, plan, budget, kb):
    solutions, rules = _solutions(plan)
    provider = SpyProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK), rules=rules)
    config = SessionConfig(detector=stub_detector_config(), budget=budget)
    outcome = session(target, solutions, provider=provider, config=config, kb=kb)
    return outcome, provider


@settings(max_examples=150, deadline=None)
@given(baseline=st.integers(0, 3), budget=st.integers(1, 5), plan=_PLAN)
# a detour rolled back by the factor trigger, then a clean rewrite
@example(baseline=1, budget=5, plan=[[("fix", 3), ("fix", 0)]])
# a strictly rising window rolls back mid-solution
@example(baseline=2, budget=5, plan=[[("fix", 3), ("fix", 4), ("fix", 1)]])
# an explicit Rollback, a Reason step feeding the next prompt, a second solution
@example(baseline=1, budget=3, plan=[[("fix", 2), ("rollback", 0)], [("reason", 0), ("fix", 0)]])
# abstentions, a reverted compile failure, and a timeout ending the session
@example(baseline=3, budget=5, plan=[[("swap", 0), ("nofence", 0), ("compile", 0), ("fix", 1), ("sleep", 0)], [("fix", 0)]])
# a timeout after a detour that trips no trigger: the copy returns to the best state
@example(baseline=2, budget=5, plan=[[("fix", 3), ("sleep", 0)], [("fix", 0)]])
# the budget ends a solution with steps left
@example(baseline=2, budget=1, plan=[[("fix", 3), ("fix", 0)], [("lost", 0), ("fix", 1)]])
def test_run_session_matches_the_reference_loop(targets, kb, baseline, budget, plan):
    expected, expected_provider = _run(reference_run_session, targets[baseline], plan, budget, kb)
    actual, actual_provider = _run(run_session, targets[baseline], plan, budget, kb)
    assert actual.to_dict() == expected.to_dict()
    assert actual.stats.to_dict() == expected.stats.to_dict()
    assert actual.solution_id == expected.solution_id
    assert actual.thought_count == expected.thought_count
    assert actual.final_errors == expected.final_errors
    assert actual.baseline_errors == expected.baseline_errors
    assert actual.final_source == expected.final_source
    assert actual_provider.prompts == expected_provider.prompts
