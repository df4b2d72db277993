"""Differential oracle for the session loop.

``reference_run_session`` is the loop as it stood when the session tracked
its state in separate counters, report maps and snapshot indices. It stays
here as the reference that ``run_session`` must match on every plan: the
same outcome, statistics, prompts and final bytes. Its one change since is
that a detection timeout puts the copy back to the last recorded state
before the solution loop ends, as ``run_session`` does.
Its fix steps run through ``reference_step``, the step as it stood too:
a ``file#k`` ref names the k-th unsafe region of the file's current bytes.
``run_session`` resolves each ref once, on the bytes a solution starts
from, and follows the region through the kept patches by byte offset.
Every rewrite the plans below draw keeps its ``unsafe {``, so the two
rules find the same region on every plan.
No benchmark workload rolls back, so these plans are where rollbacks,
aborts, abstentions and Reason steps meet.

The reference verifies every fix step with a detection of its own. On
targets with several regions, ``run_session`` checks a batch of steps with
one detection and replays a batch that is not clean step by step; the
multi-region plans below hold it to the reference's outcome all the same.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SpyProvider, run_session_on_copy, run_stub_in_process, stub_detector_config
from ubmend import detector
from ubmend.classifier import locate_unsafe_regions
from ubmend.detector import CaseMemo, TargetPackage, UbReport, run_detection
from ubmend.errors import DetectionTimeout, LexFailure, NonUbCompileError
from ubmend.fast import FIX_AGENTS, AgentKind, RepairSolution, RepairStep, _report_hits_region, parse_region_ref
from ubmend.feedback import EvalTriplet
from ubmend.kb import KnowledgeBase, KnowledgeEntry, feature_vector
from ubmend.provider import ProviderConfig, ProviderMode
from ubmend.rollback import SnapshotStore
from ubmend.slow import (
    ErrorTrace,
    SessionConfig,
    SessionOutcome,
    Thought,
    Verdict,
    _detect,
    _knowledge_context,
    detect_patches,
    propose_step,
    should_rollback,
)
from ubmend.workspace import WorkingCopy

UB_LINE = "//~UB Undefined Behavior: trying to retag from <{tag}> for Unique permission"


def reference_step(step, workspace, reports, provider, config, index, prev_count, context=None):
    """One fix step as the loop took it: the ``file#k`` ref names the k-th
    unsafe region of the file's current bytes, lexed again for every step."""
    try:
        file, ordinal = parse_region_ref(step.target_region)
        source = workspace.read(file)
        region = locate_unsafe_regions(source, file)[ordinal]
    except (ValueError, OSError, IndexError, LexFailure):
        return Thought(index, step, None, prev_count, note="region unresolvable"), None
    entries = workspace.target.entry_files
    hits = [r for r in reports if _report_hits_region(r, file, source, region, entries)]
    thought = propose_step(step, region, hits or reports, workspace, provider, index, prev_count, context)
    if thought.patch is None:
        return thought, None
    return thought, detect_patches([thought], workspace, config)


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
                    reason_context = _knowledge_context(step, ws, current_reports, kb)
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
                    thought, detection = reference_step(
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
    """A plan step is ``(kind, arg)``, aimed at region 0, or ``(kind, arg, region)``."""
    solutions, rules = [], []
    k = 0
    for s, steps in enumerate(plan):
        built = []
        for kind, arg, *region in steps:
            k += 1
            instruction = f"<step {k:03d}>"
            ref = f"main.rs#{region[0] if region else 0}"
            if kind == "reason":
                built.append(RepairStep(AgentKind.REASON, ref, "consult"))
            elif kind == "rollback":
                built.append(RepairStep(AgentKind.ROLLBACK, ref, "restore"))
            elif kind == "swap":
                # no catalogue entry matches the probe region: the gate abstains
                built.append(RepairStep(AgentKind.SAFE_REPLACE, ref, instruction))
            elif kind == "lost":
                built.append(RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#5", instruction))
            else:
                built.append(RepairStep(AgentKind.MODIFY_SEMANTICS, ref, instruction))
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
    reports = run_detection(target, config=stub_detector_config(), memo=CaseMemo()).reports
    base = KnowledgeBase()
    base.insert(
        KnowledgeEntry(
            vector=feature_vector(source, reports),
            ub_kind=reports[0].kind,
            solution={"steps": [{"agent": "ModifySemantics", "instruction": "drop the retag"}]},
            triplet=EvalTriplet(True, True, 1.0, 10),
        )
    )
    return base


def _run(session, target, plan, budget, kb):
    solutions, rules = _solutions(plan)
    provider = SpyProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK), rules=rules)
    config = SessionConfig(memo=CaseMemo(), detector=stub_detector_config(), budget=budget)
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
    actual, actual_provider = _run(run_session_on_copy, targets[baseline], plan, budget, kb)
    assert actual.to_dict() == expected.to_dict()
    assert actual.stats == expected.stats
    assert actual.solution_id == expected.solution_id
    assert actual.thought_count == expected.thought_count
    assert actual.final_errors == expected.final_errors
    assert actual.baseline_errors == expected.baseline_errors
    assert actual.final_source == expected.final_source
    assert actual_provider.prompts == expected_provider.prompts


# --- batches on targets with several regions ---------------------------------

# one UB message per kind, so a prompt lists the kinds its own region holds
_KIND_LINES = {
    "retag": UB_LINE,
    "freed": "//~UB memory access failed: alloc{tag} has been freed, so this pointer is dangling",
    "bounds": "//~UB out-of-bounds memory access: alloc{tag} has size 4",
    "align": "//~UB accessing memory based on pointer with alignment 1, but alignment 8 is required",
}
# the UB kinds in each region; every region sits in a function of its own
MULTI_TARGETS = {
    "apart": [["retag"], ["freed", "bounds"], [], ["align"]],
    "three": [["bounds"], ["retag"], ["freed"]],
}


def _multi_source(regions: list[list[str]]) -> str:
    fns = []
    for i, kinds in enumerate(regions):
        body = ["        let probe = 1i32;"]
        body += ["        " + _KIND_LINES[kind].format(tag=60 + 10 * i + j) for j, kind in enumerate(kinds)]
        body.append("        let _ = probe;")
        inner = "\n".join(body)
        fns.append(
            f"fn region_{i}(seed: i32) -> i32 {{\n"
            "    let mut value = seed;\n"
            "    let alias = &mut value as *mut i32;\n"
            "    unsafe {\n"
            f"{inner}\n"
            "    }\n"
            "    let _ = alias;\n"
            "    value\n"
            "}\n"
        )
    calls = "".join(f"    let _ = region_{i}({i});\n" for i in range(len(regions)))
    return "\n".join(fns) + f"\nfn main() {{\n{calls}}}\n"


@pytest.fixture(scope="module")
def multi_targets(tmp_path_factory) -> dict[str, TargetPackage]:
    out = {}
    for name, regions in MULTI_TARGETS.items():
        path = tmp_path_factory.mktemp(f"multi-{name}") / "main.rs"
        path.write_text(_multi_source(regions), encoding="utf-8")
        out[name] = TargetPackage.from_path(path)
    return out


# clean fixes weigh most, so that whole batches come back clean
_MULTI_FIX = st.sampled_from(
    [("fix", 0)] * 8 + [("fix", 1), ("fix", 2), ("compile", 0), ("sleep", 0), ("nofence", 0), ("swap", 0)]
)


@st.composite
def _multi_solution(draw) -> list[tuple]:
    """Fix steps over distinct regions (region 3 does not exist in "three"),
    now and then with a Reason or Rollback step or a lost ref between them."""
    order = draw(st.permutations(range(4)))
    steps: list[tuple] = []
    for region in order[: draw(st.integers(0, 4))]:
        if draw(st.integers(0, 7)) == 0:
            steps.append((draw(st.sampled_from(["reason", "rollback", "lost"])), 0, region))
        kind, arg = draw(_MULTI_FIX)
        steps.append((kind, arg, region))
    return steps


def _distinct(prompts: list[str]) -> list[str]:
    return list(dict.fromkeys(prompts))


def _after_a_timeout(plan) -> list[str]:
    """Instructions of the steps that follow a sleeping step in its solution:
    a batch whose detection timed out asked their prompts, but the session
    aborts at the sleeping step before it asks them one by one."""
    solutions, rules = _solutions(plan)
    sleeping = {instruction for instruction, response in rules if "//~SLEEP" in response}
    found = []
    for solution in solutions:
        after = False
        for step in solution.steps:
            if after:
                found.append(step.instruction)
            after = after or step.instruction in sleeping
    return found


def _as_stepwise(actual: dict, expected: dict) -> dict:
    """``actual`` with the thoughts of a clean batch given the counts and
    notes step-by-step verification would have given them."""
    out = copy.deepcopy(actual)
    thoughts = out["trace"]["thoughts"]
    notes = [t["note"] for t in thoughts if t["note"].startswith("verified in batch ")]
    if notes:
        first, last = map(int, notes[0].rsplit(" ", 1)[1].split("-"))
        assert out["verdict"] == "pass" and last == len(thoughts) - 1
        for i in range(first, last + 1):
            assert thoughts[i]["resulting_errors"] == 0 and out["trace"]["counts"][i + 1] == 0
            want = expected["trace"]["thoughts"][i]
            thoughts[i]["resulting_errors"] = want["resulting_errors"]
            thoughts[i]["note"] = want["note"]
            out["trace"]["counts"][i + 1] = expected["trace"]["counts"][i + 1]
    return out


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(MULTI_TARGETS)),
    budget=st.integers(1, 5),
    plan=st.lists(_multi_solution(), min_size=1, max_size=3),
)
# one clean batch over every region
@example(name="apart", budget=5, plan=[[("fix", 0, 3), ("fix", 0, 1), ("fix", 0, 0), ("fix", 0, 2)]])
# a batch with UB left, replayed; the budget splits the next solution's batch
@example(name="three", budget=2, plan=[[("fix", 0, 0), ("fix", 1, 1), ("fix", 0, 2)], [("fix", 0, 2), ("fix", 0, 1)]])
# a compile failure and an abstention inside one batch
@example(name="apart", budget=5, plan=[[("fix", 0, 0), ("compile", 0, 1), ("nofence", 0, 3), ("fix", 0, 2)]])
# a timeout in the middle of a batch ends the session
@example(name="three", budget=5, plan=[[("fix", 0, 1), ("sleep", 0, 2), ("fix", 0, 0)], [("fix", 0, 0)]])
# a Reason step ends one batch, its knowledge feeds the next batch's first prompt
@example(name="apart", budget=4, plan=[[("fix", 0, 0), ("reason", 0, 1), ("fix", 0, 1), ("fix", 0, 3)]])
# a rising count during the replay rolls back between replayed steps
@example(name="three", budget=5, plan=[[("fix", 2, 0), ("fix", 2, 1), ("swap", 0, 2)], [("fix", 0, 0), ("fix", 0, 2), ("fix", 0, 1)]])
def test_batches_match_the_reference_loop(multi_targets, kb, name, budget, plan):
    target = multi_targets[name]
    expected, expected_provider = _run(reference_run_session, target, plan, budget, kb)
    actual, actual_provider = _run(run_session_on_copy, target, plan, budget, kb)
    assert _as_stepwise(actual.to_dict(), expected.to_dict()) == expected.to_dict()
    assert actual.stats == expected.stats
    assert actual.solution_id == expected.solution_id
    assert actual.thought_count == expected.thought_count
    assert actual.final_errors == expected.final_errors
    assert actual.baseline_errors == expected.baseline_errors
    assert actual.final_source == expected.final_source
    want, got = _distinct(expected_provider.prompts), _distinct(actual_provider.prompts)
    assert [p for p in got if p in want] == want
    speculative = _after_a_timeout(plan)
    assert all(any(i in p for i in speculative) for p in got if p not in want)


def test_regions_that_share_a_function_are_verified_one_by_one(tmp_path, kb):
    # the second block's prompt shows the first one's patched bytes
    source = _source(1).replace(
        "    let _ = alias;\n",
        "    unsafe {\n        " + _KIND_LINES["freed"].format(tag=9) + "\n    }\n    let _ = alias;\n",
    )
    path = tmp_path / "main.rs"
    path.write_text(source, encoding="utf-8")
    target = TargetPackage.from_path(path)
    plan = [[("fix", 0, 0), ("fix", 0, 1)]]
    expected, expected_provider = _run(reference_run_session, target, plan, 5, kb)
    actual, actual_provider = _run(run_session_on_copy, target, plan, 5, kb)
    assert actual.to_dict() == expected.to_dict()
    assert actual_provider.prompts == expected_provider.prompts
    assert expected.trace.counts == [2, 1, 0]
