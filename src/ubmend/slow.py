"""Slow thinking: iterate candidate solutions step by step with rollback.

A session walks solutions in rank order. Each fix step patches the working
copy (``propose_step``) and a detection, the list of UB reports the tool
gives, verifies the patch (``detect_patches``), whose count is the length
of that list; Reason steps consult the knowledge base and Rollback
steps (explicit or triggered) restore the best snapshot so far. The trace
trigger fires on a strictly increasing window (the hallucination pattern)
or when the latest count blows past the global minimum by a fixed factor.
A rollback restores state but never aborts the solution; the trace keeps
growing.

A fix step's ``file#k`` ref names the k-th unsafe region of the bytes its
solution starts from. ``_RegionMap`` resolves the refs once and follows
each region through the kept patches by byte offset, for batched and lone
steps alike, so a patch that drops an ``unsafe`` keyword renumbers nothing.

Consecutive fix steps on regions apart from each other form a batch
(``_form_batch``): every step proposes its patch, then one detection
checks them all. A clean batch is a pass. Any other outcome puts the copy
back to the bytes before the batch and replays its steps one by one
through ``execute_step``. The session asks through the case memo
(``SessionConfig.memo``), so the replay's prompts are answered with the
batch's answers, and its detection is reused when the replay reaches the
batch's bytes. ``cli`` makes the run's copy, memo, memoised provider and
baseline detection; nothing here does.
"""
from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

from .agents import AGENT_FUNCTIONS, PatchRecord, apply_patch, revert_patch
from .classifier import UnsafeRegion, locate_unsafe_regions
from .detector import (
    CaseMemo,
    DetectorConfig,
    TargetPackage,
    UbReport,
    run_detection,
)
from .errors import (
    AgentFailure,
    DetectionTimeout,
    LexFailure,
    NonUbCompileError,
    ProviderFailure,
    ReplayMiss,
)
from .fast import (
    DEFAULT_SOLUTION_COUNT,
    FIX_AGENTS,
    AgentKind,
    RepairSolution,
    RepairStep,
    _report_hits_region,
    parse_region_ref,
)
from .kb import KnowledgeBase, feature_vector
from .provider import MemoizedProvider
from .rollback import RollbackStats, Snapshot, SnapshotStore
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


_REVERTED = "patch reverted: compile failure"


@dataclass
class Thought:
    index: int
    step: RepairStep
    patch: PatchRecord | None
    resulting_errors: int
    note: str = ""

    @property
    def kept(self) -> bool:
        """Whether the thought's patch was applied and a detection checked
        it without reverting it for a compile failure."""
        return self.patch is not None and self.note != _REVERTED

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
    """One solution's thoughts; ``counts`` is ``start``, the error count it
    began at, then each thought's count. Thoughts verified together in a
    clean batch all take the batch's count, 0, and each one that made a
    patch carries the note ``verified in batch <first>-<last>`` (thought
    indices). ``reports`` are the reports left when a solution ended without
    a pass, before the session went back to its best snapshot; they are not
    part of the serialized trace.
    """

    start: int
    thoughts: list[Thought]
    iteration_budget: int
    reports: tuple[UbReport, ...] = ()

    @property
    def counts(self) -> list[int]:
        return [self.start] + [t.resulting_errors for t in self.thoughts]

    def to_dict(self) -> dict:
        return {
            "counts": self.counts,
            "thoughts": [t.to_dict() for t in self.thoughts],
            "iteration_budget": self.iteration_budget,
        }


@dataclass
class SessionOutcome:
    """``tried`` pairs each solution the session drew with the trace it
    ended on; ``trace`` and ``solution_id`` are the last one's, and
    ``baseline_errors`` and ``thought_count`` cover the whole session."""

    verdict: Verdict
    final_source: dict[str, str]
    trace: ErrorTrace
    stats: RollbackStats = field(default_factory=RollbackStats)
    solution_id: str | None = None
    final_errors: int = 0
    baseline_errors: int = 0
    thought_count: int = 0
    tried: list[tuple[RepairSolution, ErrorTrace]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "verdict": self.verdict.value,
            "final_source": dict(sorted(self.final_source.items())),
            "trace": self.trace.to_dict(),
        }


@dataclass
class SessionConfig:
    """The settings of one repair run, from detection to the last thought.

    ``cli.repair_one`` reads ``solutions_k``, the cap on planned solutions,
    and ``kb_enabled``, which decides seeding, ranking and whether Reason
    steps search the knowledge base, but not the plan prompt; the session
    itself reads the rest. ``memo``, made by ``cli`` for the run, holds the
    detections, model answers and reference verdicts already paid for; runs
    that share it (a bench case's two runs) reuse each other's work.
    ``detector``, the detection tool's settings, ``cli`` passes from its
    options.
    """

    memo: CaseMemo
    detector: DetectorConfig
    solutions_k: int = DEFAULT_SOLUTION_COUNT
    budget: int = DEFAULT_BUDGET
    kb_enabled: bool = True
    clock: Callable[[], float] = time.monotonic


def _detect(target: TargetPackage, config: SessionConfig) -> list[UbReport]:
    return run_detection(target, config=config.detector, clock=config.clock, memo=config.memo)


def should_rollback(counts: Sequence[int]) -> bool:
    """True when a trace's ``counts`` look like they are getting worse, not
    better: the last ``ROLLBACK_WINDOW`` rise strictly, or the latest is
    more than ``ROLLBACK_FACTOR`` times the lowest."""
    if not counts:
        return False
    tail = counts[-ROLLBACK_WINDOW:]
    if len(tail) == ROLLBACK_WINDOW and all(a < b for a, b in zip(tail, tail[1:])):
        return True
    return counts[-1] > ROLLBACK_FACTOR * min(counts)


def _knowledge_context(
    step: RepairStep,
    workspace: WorkingCopy,
    reports: Sequence[UbReport],
    kb: KnowledgeBase | None,
) -> str | None:
    if kb is None:
        return None
    try:
        file, _ = parse_region_ref(step.target_region)
        source = workspace.read(file)
    except (ValueError, OSError):
        # a ref that names no file of the copy searches with the entry file
        file = workspace.target.entry_files[0]
        source = workspace.read(file)
    try:
        vector = feature_vector(source, reports, file)
    except LexFailure as exc:
        log.info("Reason %s adds nothing (%s)", step.target_region, exc)
        return None
    if vector.is_zero:
        return None
    hits = kb.search(vector, k=3)
    if not hits:
        return None
    return "\n".join(
        f"- prior fix (similarity {sim:.2f}, ub={entry.ub_kind.value}): "
        + json.dumps(entry.solution, sort_keys=True)
        for sim, entry in hits
    )


def propose_step(
    step: RepairStep,
    region: UnsafeRegion,
    reports: Sequence[UbReport],
    workspace: WorkingCopy,
    provider: MemoizedProvider,
    index: int,
    prev_count: int,
    context: str | None = None,
) -> Thought:
    """The propose half of a fix step: ask the step's agent to patch
    ``region`` and apply the patch to the working copy.

    The prompt lists the UB kinds of ``reports`` and the step's instruction,
    and ``context``, a Reason step's knowledge, when there is any. Code the
    plan wrote for the step goes to the agent as its ``written`` answer when
    no knowledge came and the region still reads as the plan saw it. The
    thought holds the applied patch, or no patch and a note when the agent
    abstained or the patch did not apply; its count stays ``prev_count``
    until a detection verifies it.
    A replay miss propagates: it means the transcript is incomplete.
    """
    kinds = frozenset(r.kind for r in reports)
    written = None
    if step.code is not None and not context and step.code.before == region.snippet:
        written = f"```rust\n{step.code.after}\n```"
    try:
        patch = AGENT_FUNCTIONS[step.agent](region, kinds, provider, step.instruction, context, written)
    except ReplayMiss:
        raise
    except (AgentFailure, ProviderFailure) as exc:
        log.info("step %d: %s abstained (%s)", index, step.agent.value, exc)
        return Thought(index, step, None, prev_count, note=f"skipped: {exc}")
    try:
        apply_patch(patch, workspace)
    except AgentFailure as exc:
        return Thought(index, step, None, prev_count, note=f"skipped: {exc}")
    return Thought(index, step, patch, prev_count)


def detect_patches(
    thoughts: Sequence[Thought], workspace: WorkingCopy, config: SessionConfig
) -> list[UbReport] | None:
    """The detect half of fix steps: one detection checks the patches that
    ``thoughts`` applied, every thought takes its error count, and its UB
    reports come back.

    When the patched copy fails to compile, the patches are reverted, newest
    first, and None comes back. A timeout propagates with the patches in
    place.
    """
    try:
        detection = _detect(workspace.target, config)
    except NonUbCompileError:
        for thought in reversed(thoughts):
            if thought.patch is not None:
                revert_patch(thought.patch, workspace)
                thought.note = _REVERTED
        return None
    for thought in thoughts:
        thought.resulting_errors = len(detection)
    return detection


class _RegionMap:
    """Where the fix steps of one solution find their regions.

    Each ``file#k`` ref resolves once, on the bytes the solution starts
    from: one ``locate_unsafe_regions`` per file the fix steps name. A ref
    that does not parse, names no file of the copy, does not lex or has no
    region k is unresolvable. Every kept patch records its file, its
    region's end in the starting bytes and its length change, and an
    offset ``p`` of the starting bytes sits at ``p`` plus the changes
    recorded at or before ``p`` in its file. Restoring a snapshot drops the
    changes made after it: each snapshot a solution can restore, the one it
    started from or one recorded during it, is marked with its count of
    changes.
    """

    def __init__(self, steps: Iterable[RepairStep], start: Snapshot, workspace: WorkingCopy) -> None:
        self.workspace = workspace
        self.resolved: dict[str, UnsafeRegion | None] = {}
        lexed: dict[str, list[UnsafeRegion]] = {}
        for ref in dict.fromkeys(s.target_region for s in steps if s.agent in FIX_AGENTS):
            try:
                file, ordinal = parse_region_ref(ref)
                if file not in lexed:
                    lexed[file] = locate_unsafe_regions(workspace.read(file), file)
                self.resolved[ref] = lexed[file][ordinal]
            except (ValueError, OSError, IndexError, LexFailure) as exc:
                log.info("region %s unresolvable (%s)", ref, exc)
                self.resolved[ref] = None
        self.changes: list[tuple[str, int, int]] = []  # (file, starting end, length change)
        self.marks = {start.index: 0}

    def locate(
        self, ref: str, reports: Sequence[UbReport] = ()
    ) -> tuple[UnsafeRegion, list[UbReport]] | None:
        """``ref``'s region where the kept patches moved it, sliced from the
        current bytes, and those of ``reports`` on its lines; None when the
        ref is unresolvable."""
        start = self.resolved.get(ref)
        if start is None:
            return None
        moves = [(end, d) for f, end, d in self.changes if f == start.file]

        def moved(span: tuple[int, int]) -> tuple[int, int]:
            return tuple(p + sum(d for end, d in moves if end <= p) for p in span)

        source = self.workspace.read(start.file)
        span, ctx = moved(start.byte_span), moved(start.context_span)
        region = UnsafeRegion(start.file, span, source[slice(*span)], source[slice(*ctx)], ctx)
        entries = self.workspace.target.entry_files
        return region, [r for r in reports if _report_hits_region(r, region.file, source, region, entries)]

    def keep(self, thought: Thought) -> None:
        """Record the thought's patch, when it is kept."""
        if thought.kept:
            region, patch = self.resolved[thought.step.target_region], thought.patch
            self.changes.append((region.file, region.end, len(patch.after_text) - len(patch.before_text)))

    def mark(self, snapshot: Snapshot) -> None:
        self.marks[snapshot.index] = len(self.changes)

    def restore(self, snapshot: Snapshot) -> None:
        """Drop the changes made after ``snapshot``, which the copy is back at."""
        del self.changes[self.marks[snapshot.index]:]


def execute_step(
    step: RepairStep,
    regions: _RegionMap,
    reports: Sequence[UbReport],
    provider: MemoizedProvider,
    config: SessionConfig,
    index: int,
    prev_count: int,
    context: str | None = None,
) -> tuple[Thought, list[UbReport] | None]:
    """Run one fix step on its own: take its region from ``regions``,
    propose a patch, re-detect, and record the patch in ``regions`` when
    it is kept. The detection's reports come back with the thought, None
    when none ran or the patch was reverted.

    Failures never propagate (except a replay miss, which means the
    transcript is incomplete, and a timeout): the step is skipped and the
    thought records the unchanged count. A step whose ref is unresolvable
    gets the note ``region unresolvable``. A patch that breaks compilation
    is reverted.
    """
    located = regions.locate(step.target_region, reports)
    if located is None:
        log.info("step %d: region %s unresolvable", index, step.target_region)
        return Thought(index, step, None, prev_count, note="region unresolvable"), None
    region, hits = located
    ws = regions.workspace
    thought = propose_step(step, region, hits or reports, ws, provider, index, prev_count, context)
    if thought.patch is None:
        return thought, None
    detection = detect_patches([thought], ws, config)
    regions.keep(thought)
    return thought, detection


def _apart(a: UnsafeRegion, b: UnsafeRegion) -> bool:
    """True when neither region overlaps the other's enclosing context, so
    a patch of one changes no byte of the other's prompt."""

    def disjoint(s: tuple[int, int], t: tuple[int, int]) -> bool:
        return s[1] <= t[0] or t[1] <= s[0]

    return a.file != b.file or (
        disjoint(a.byte_span, b.context_span) and disjoint(b.byte_span, a.context_span)
    )


def _form_batch(
    steps: Sequence[RepairStep], regions: _RegionMap, reports: Sequence[UbReport], room: int
) -> list[tuple[RepairStep, list[UbReport]]]:
    """The batch that starts with ``steps[0]``, as its steps and the reports
    in each step's region, or [] when it would hold one step.

    A batch is the longest run of consecutive fix steps, at most ``room``
    long, whose regions resolve (see ``_RegionMap``), lie apart on the
    current bytes (see ``_apart``) and each hold a report. A report stays
    where it is through the other members' patches, so the step-by-step
    path could not pass before reaching the last step, and each prompt
    lists the UB kinds a re-detection would give. So a batch forms only
    when a detection reports UB in more than one region.
    """
    members: list[tuple[RepairStep, list[UbReport]]] = []
    placed: list[UnsafeRegion] = []
    for step in steps:
        if step.agent not in FIX_AGENTS or len(members) == room:
            break
        located = regions.locate(step.target_region, reports)
        if located is None:
            break
        region, hits = located
        if not hits or not all(_apart(region, other) for other in placed):
            break
        members.append((step, hits))
        placed.append(region)
    return members if len(members) > 1 else []


def _run_batch(
    members: Sequence[tuple[RepairStep, list[UbReport]]],
    regions: _RegionMap,
    provider: MemoizedProvider,
    config: SessionConfig,
    index: int,
    prev_count: int,
    context: str | None,
) -> list[Thought] | None:
    """Propose every member's patch in turn, then detect once.

    Each member takes its region from ``regions``, which records every
    patch as it is applied, so later members find their regions moved
    through the earlier ones. The thoughts come back only when the
    detection is clean. Otherwise (UB left, a compile failure, a timeout,
    or no patch at all) the result is None, and the copy and ``regions``
    may hold any of the patches until the caller restores them.
    """
    workspace = regions.workspace
    thoughts: list[Thought] = []
    for k, (step, hits) in enumerate(members):
        region, _ = regions.locate(step.target_region)
        thought = propose_step(
            step, region, hits, workspace, provider, index + k, prev_count, context if k == 0 else None
        )
        regions.keep(thought)
        thoughts.append(thought)
    if all(t.patch is None for t in thoughts):
        return None
    last = index + len(thoughts) - 1
    try:
        detection = detect_patches(thoughts, workspace, config)
    except DetectionTimeout as exc:
        log.info("batch %d-%d timed out (%s); replaying step by step", index, last, exc)
        return None
    if detection is None or detection:
        log.info("batch %d-%d not clean; replaying step by step", index, last)
        return None
    for thought in thoughts:
        if thought.patch is not None:
            thought.note = f"verified in batch {index}-{last}"
    return thoughts


def run_session(
    workspace: WorkingCopy,
    *,
    plan: Callable[[list[tuple[RepairSolution, ErrorTrace]], Snapshot], Sequence[RepairSolution]],
    provider: MemoizedProvider,
    config: SessionConfig,
    baseline: list[UbReport],
    kb: KnowledgeBase | None = None,
) -> SessionOutcome:
    """Drive the repair loop in ``workspace`` to a verdict. ``cli.repair_one``
    makes the copy, its ``baseline`` detection's reports and the memoised
    ``provider``.

    ``plan(tried, start)`` gives the next page of solutions whenever the
    session has tried every solution drawn so far: ``tried`` pairs each
    solution drawn with the trace it ended on, and ``start`` is the snapshot
    the next solution starts from, which the working copy matches. An empty
    page ends the drawing; none is asked for after a pass or an aborted
    solution. ``SessionOutcome.tried`` holds every solution drawn.
    Terminates on a clean detection (Pass), on exhausting the solutions
    (Failed), or on exhausting the per-solution budget (Budget Exhausted).
    The session ends on the snapshot with the fewest errors, which the
    working copy matches; the verdict, ``final_errors`` and
    ``final_source`` are that snapshot's. Its count is a detection of
    exactly its bytes, so no detection runs after the last step, and a
    clean baseline asks for no plan. Reason steps consult ``kb``; without
    one they add nothing.
    """
    budget = config.budget
    if budget < 1:
        raise ValueError("budget must be >= 1")
    store = SnapshotStore()
    # the snapshot the working copy matches; its reports steer the next step
    current = store.record(0, workspace.files(), baseline)
    trace = ErrorTrace(current.error_count, [], budget)
    tried: list[tuple[RepairSolution, ErrorTrace]] = []
    page: list[RepairSolution] = []
    budget_hit_last = False

    while current.error_count:
        if not page:
            page = list(plan(list(tried), current))
            if not page:
                break
        solution = page.pop(0)
        trace = ErrorTrace(current.error_count, [], budget)
        tried.append((solution, trace))
        reason_context: str | None = None
        budget_hit_last = False
        aborted = False
        steps = list(solution.steps)
        regions = _RegionMap(steps, current, workspace)
        replay_end = 0  # steps before it replay a failed batch, one by one
        for at, step in enumerate(steps):
            if step.agent is AgentKind.REASON:
                reason_context = _knowledge_context(step, workspace, current.reports, kb)
                continue
            if step.agent is AgentKind.ROLLBACK:
                current = store.restore(store.select_rollback_target(), workspace)
                regions.restore(current)
                continue
            if len(trace.thoughts) >= budget:
                budget_hit_last = True
                break
            if at >= replay_end:
                members = _form_batch(steps[at:], regions, current.reports, budget - len(trace.thoughts))
                if members:
                    verified = _run_batch(
                        members,
                        regions,
                        provider,
                        config,
                        len(trace.thoughts),
                        current.error_count,
                        reason_context,
                    )
                    if verified is not None:
                        trace.thoughts.extend(verified)
                        current = store.record(store.latest_index() + len(verified), workspace.files(), ())
                        break
                    workspace.restore(current.files)
                    regions.restore(current)
                    replay_end = at + len(members)
            try:
                thought, detection = execute_step(
                    step,
                    regions,
                    current.reports,
                    provider,
                    config,
                    index=len(trace.thoughts),
                    prev_count=current.error_count,
                    context=reason_context,
                )
            except DetectionTimeout as exc:
                log.warning("detection timed out mid-session: %s", exc)
                # the patch was never verified: back to the bytes of ``current``
                workspace.restore(current.files)
                aborted = True
                break
            reason_context = None
            trace.thoughts.append(thought)
            current = store.record(
                store.latest_index() + 1,
                workspace.files(),
                detection if detection is not None else current.reports,
            )
            regions.mark(current)
            if current.error_count == 0:
                break
            if should_rollback(trace.counts):
                current = store.restore(store.select_rollback_target(), workspace)
                regions.restore(current)
        if current.error_count == 0:
            break
        trace.reports = current.reports
        best = store.select_rollback_target()
        if current.index != best:
            current = store.restore(best, workspace)
        if aborted:
            break

    # every snapshot's count is a detection of exactly its bytes
    if current.error_count == 0:
        verdict = Verdict.PASS
    elif budget_hit_last:
        verdict = Verdict.BUDGET_EXHAUSTED
    else:
        verdict = Verdict.FAILED
    return SessionOutcome(
        verdict,
        current.files,
        trace,
        stats=store.stats,
        solution_id=tried[-1][0].id if tried else None,
        final_errors=current.error_count,
        baseline_errors=len(baseline),
        thought_count=store.latest_index(),
        tried=tried,
    )
