"""Slow thinking: iterate candidate solutions step by step with rollback.

A session walks solutions in rank order. Each fix step patches the working
copy and re-runs detection, appending to the error trace; Reason steps
consult the knowledge base and Rollback steps (explicit or triggered)
restore the best snapshot so far. The trace trigger fires on a strictly
increasing window (the hallucination pattern) or when the latest count
blows past the global minimum by a configured factor. A rollback restores
state but never aborts the solution; the trace keeps growing.
"""
from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

from .agents import AGENT_FUNCTIONS, PatchRecord, apply_patch, revert_patch
from .classifier import CodeFeature, classify_ops, locate_unsafe_regions
from .detector import (
    CaseMemo,
    DetectionResult,
    DetectorConfig,
    TargetPackage,
    UbReport,
    run_detection,
)
from .errors import (
    AgentFailure,
    DetectionTimeout,
    NoGuardExpressible,
    NonUbCompileError,
    NoSafeEquivalent,
    ProviderFailure,
    ReplayMiss,
    Unclassifiable,
)
from .fast import FIX_AGENTS, AgentKind, RepairSolution, RepairStep, parse_region_ref, _report_hits_region
from .kb import AstMode, KnowledgeBase, extract_ast, prune, vectorize
from .provider import Provider
from .rollback import RollbackStats, SnapshotStore
from .workspace import WorkingCopy

log = logging.getLogger(__name__)

DEFAULT_BUDGET = 5
ROLLBACK_WINDOW = 3
ROLLBACK_FACTOR = 2.0


class Verdict(str, Enum):
    PASS = "pass"
    SEMANTIC_PASS = "semantic_pass"
    FAILED = "failed"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class Thought:
    index: int
    step: RepairStep
    patch: PatchRecord | None
    resulting_errors: int
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "step": self.step.to_dict(),
            "patch": self.patch.to_dict() if self.patch else None,
            "resulting_errors": self.resulting_errors,
            "note": self.note,
        }


@dataclass
class ErrorTrace:
    """counts[0] is the pre-repair baseline; counts[i] follows thought i-1."""

    counts: list[int]
    thoughts: list[Thought]
    iteration_budget: int

    def to_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "thoughts": [t.to_dict() for t in self.thoughts],
            "iteration_budget": self.iteration_budget,
        }


@dataclass
class SessionOutcome:
    """``trace`` belongs to the last solution tried; ``baseline_errors`` and
    ``thought_count`` cover the whole session."""

    verdict: Verdict
    final_source: dict[str, str]
    trace: ErrorTrace
    triplet: "object | None" = None
    stats: RollbackStats = field(default_factory=RollbackStats)
    solution_id: str | None = None
    final_errors: int = 0
    baseline_errors: int = 0
    thought_count: int = 0

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "verdict": self.verdict.value,
            "final_source": dict(sorted(self.final_source.items())),
            "trace": self.trace.to_dict(),
            "triplet": self.triplet.to_dict() if self.triplet else None,
        }


@dataclass
class SessionConfig:
    budget: int = DEFAULT_BUDGET
    rollback_window: int = ROLLBACK_WINDOW
    rollback_factor: float = ROLLBACK_FACTOR
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    kb: KnowledgeBase | None = None
    kb_enabled: bool = True
    skip_reason_steps: bool = False
    ast_mode: AstMode = AstMode.LOCAL_PARSER
    session_dir: Path | None = None
    clock: Callable[[], float] = time.monotonic
    memo: CaseMemo = field(default_factory=CaseMemo)


def _detect(target: TargetPackage, config: SessionConfig) -> DetectionResult:
    return run_detection(
        target,
        timeout=config.detector.timeout,
        config=config.detector,
        clock=config.clock,
        memo=config.memo,
    )


def should_rollback(
    trace: ErrorTrace,
    window: int = ROLLBACK_WINDOW,
    factor: float = ROLLBACK_FACTOR,
) -> bool:
    """True when the trace looks like it is getting worse, not better."""
    counts = trace.counts
    if not counts:
        return False
    if len(counts) >= window:
        tail = counts[-window:]
        if all(tail[i] < tail[i + 1] for i in range(window - 1)):
            return True
    return counts[-1] > factor * min(counts)


def _knowledge_context(
    step: RepairStep,
    workspace: WorkingCopy,
    reports: Sequence[UbReport],
    provider: Provider,
    config: SessionConfig,
) -> str | None:
    if not config.kb_enabled or config.kb is None or config.skip_reason_steps:
        return None
    file, _ = parse_region_ref(step.target_region) if "#" in step.target_region else (
        workspace.target.entry_files[0],
        0,
    )
    try:
        source = workspace.read(file)
    except FileNotFoundError:
        source = workspace.read(workspace.target.entry_files[0])
    ast = extract_ast(source, config.ast_mode, provider)
    vector = vectorize(prune(ast, reports), ub_kinds=(r.kind for r in reports))
    if vector.is_zero:
        return None
    hits = config.kb.search(vector, k=3)
    if not hits:
        return None
    return "\n".join(
        f"- prior fix (similarity {sim:.2f}, ub={entry.ub_kind.value}): "
        + json.dumps(entry.solution, sort_keys=True)
        for sim, entry in hits
    )


def execute_step(
    step: RepairStep,
    workspace: WorkingCopy,
    reports: Sequence[UbReport],
    provider: Provider,
    config: SessionConfig,
    index: int,
    prev_count: int,
    context: str | None = None,
) -> tuple[Thought, DetectionResult | None]:
    """Run one fix step: agent, patch, re-detect.

    Failures never propagate (except a replay miss, which means the
    transcript is incomplete): the step is skipped and the thought records
    the unchanged count. A patch that breaks compilation is reverted.
    """
    try:
        file, ordinal = parse_region_ref(step.target_region)
        source = workspace.read(file)
        regions = locate_unsafe_regions(source, file)
        region = regions[ordinal]
    except (ValueError, FileNotFoundError, IndexError) as exc:
        log.info("step %d: region %s unresolvable (%s)", index, step.target_region, exc)
        return Thought(index, step, None, prev_count, note="region unresolvable"), None
    try:
        op_kinds = classify_ops(region)
    except Unclassifiable:
        op_kinds = frozenset()
    hits = [r for r in reports if _report_hits_region(r, file, source, region)]
    feature = CodeFeature(
        region=region,
        op_kinds=op_kinds,
        ub_kinds=frozenset(r.kind for r in (hits or reports)),
        context_summary="",
        ref=step.target_region,
    )
    agent_context = f"Instruction: {step.instruction}"
    if context:
        agent_context += f"\n{context}"
    try:
        patch = AGENT_FUNCTIONS[step.agent](region, feature, provider, agent_context)
    except ReplayMiss:
        raise
    except (NoSafeEquivalent, NoGuardExpressible, AgentFailure, ProviderFailure) as exc:
        log.info("step %d: %s abstained (%s)", index, step.agent.value, exc)
        return Thought(index, step, None, prev_count, note=f"skipped: {exc}"), None
    try:
        apply_patch(patch, workspace)
    except AgentFailure as exc:
        return Thought(index, step, None, prev_count, note=f"skipped: {exc}"), None
    try:
        detection = _detect(workspace.target, config)
    except NonUbCompileError:
        revert_patch(patch, workspace)
        return (
            Thought(index, step, patch, prev_count, note="patch reverted: compile failure"),
            None,
        )
    return Thought(index, step, patch, detection.error_count), detection


def run_session(
    target: TargetPackage,
    solutions: Sequence[RepairSolution],
    budget: int | None = None,
    *,
    provider: Provider,
    config: SessionConfig | None = None,
    workspace: WorkingCopy | None = None,
    baseline: DetectionResult | None = None,
) -> SessionOutcome:
    """Drive the repair loop to a verdict.

    Terminates on a clean detection (Pass), on exhausting the solution
    list (Failed), or on exhausting the per-solution budget (Budget
    Exhausted). The final working copy always matches the snapshot with the
    fewest errors, re-verified by one last detection run.
    """
    config = config or SessionConfig()
    budget = budget if budget is not None else config.budget
    if budget < 1:
        raise ValueError("budget must be >= 1")
    ws = workspace or WorkingCopy(target, config.session_dir)
    if baseline is None:
        baseline = _detect(ws.target, config)
    store = SnapshotStore(ws.session_dir)
    store.record(0, ws.files(), baseline.error_count)
    reports_at: dict[int, list[UbReport]] = {0: list(baseline.reports)}
    if baseline.error_count == 0:
        trace = ErrorTrace(counts=[0], thoughts=[], iteration_budget=budget)
        return SessionOutcome(Verdict.PASS, ws.files(), trace, stats=store.stats)

    current_count = baseline.error_count
    current_reports = list(baseline.reports)
    ws_at: int | None = 0  # snapshot index the working copy currently matches
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
                reason_context = _knowledge_context(step, ws, current_reports, provider, config)
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
            except DetectionTimeout as exc:
                log.warning("detection timed out mid-session: %s", exc)
                aborted = True
                break
            reason_context = None
            thought_count += 1
            trace.thoughts.append(thought)
            trace.counts.append(thought.resulting_errors)
            store.note_thought()
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
            if should_rollback(trace, config.rollback_window, config.rollback_factor):
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
        # the memo answers this when these exact bytes were detected before
        verify = _detect(ws.target, config)
        final_clean = verify.clean
        final_errors = verify.error_count
    except (NonUbCompileError, DetectionTimeout) as exc:
        log.warning("final re-verification failed: %s", exc)
        final_clean = False
        final_errors = current_count
    if passed and not final_clean:
        log.warning("pass re-verification disagreed; downgrading verdict")
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
