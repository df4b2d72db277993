"""Command-line entry points: repair one target or benchmark a dataset.

``fix`` drives the full pipeline on a single target and prints the verdict;
``bench`` runs the same logic per manifest case, in parallel, and reports
pass/exec rates with Wilson confidence intervals plus a per-kind timing
table (no-knowledge vs knowledge columns). With replay transcripts and
``--fixed-clock`` the bench JSON report is byte-identical across runs: each
case's log lines, store lines and transcript entries are handed on in
case-id order, as soon as that case and every earlier case are done, so an
interrupted bench keeps the lines of the cases it finished.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import difflib
import json
import logging
import math
import os
import shlex
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Iterable, Iterator, Sequence

from .detector import (
    AnswerPool,
    CaseMemo,
    DetectorConfig,
    TargetPackage,
    UbKind,
    render_command,
    run_detection,
)
from .errors import (
    DetectionTimeout,
    LexFailure,
    NonUbCompileError,
    ProviderFailure,
    ReplayMiss,
    StorageFailure,
    TargetRejected,
    ToolMissing,
    UbmendError,
)
from .fast import (
    DEFAULT_SOLUTION_COUNT,
    PLAN_PAGE,
    AgentKind,
    Provenance,
    RepairSolution,
    RepairStep,
    extract_features,
    generate_solutions,
    parse_region_ref,
    stand_in_features,
)
from .feedback import (
    EvalTriplet,
    ExperienceRecord,
    FeedbackEngine,
    ReferenceBundle,
    signature_of,
)
from .kb import FeatureVector, KnowledgeBase, feature_vector
from .provider import (
    MemoizedProvider,
    Provider,
    ProviderConfig,
    ProviderMode,
    ReplayProvider,
    TranscriptEntry,
    create_provider,
    load_transcript,
    transcript_entries,
    write_transcript,
)
from .slow import DEFAULT_BUDGET, ErrorTrace, SessionConfig, SessionOutcome, Verdict, run_session
from .workspace import WorkingCopy

log = logging.getLogger(__name__)

DEFAULT_CONFIDENCE = 0.95
JOBS_CAP = 8


class LogicalClock:
    """Deterministic monotonic stand-in: every call advances one second."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            self._value += 1.0
            return self._value


def compute_ci(
    successes: int, trials: int, confidence: float = DEFAULT_CONFIDENCE
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2.0 * trials)) / denom
    half = (
        z * ((p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) ** 0.5) / denom
    )
    return (max(0.0, centre - half), min(1.0, centre + half))


@dataclass
class CaseResult:
    id: str
    kind: str
    verdict: str
    acceptability: bool | None
    baseline_errors: int
    final_errors: int
    thoughts: int
    rollbacks: int
    tokens: int
    seconds_kb: float | None
    seconds_plain: float | None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict in (Verdict.PASS.value, Verdict.SEMANTIC_PASS.value)

    @property
    def accepted(self) -> bool:
        return self.passed and self.acceptability is True


@dataclass
class BenchReport:
    cases: list[CaseResult]
    pass_rate: float
    exec_rate: float
    ci_95: dict[str, tuple[float, float]]
    per_kind: dict[str, dict]
    totals: dict[str, int]


def build_report(cases: list[CaseResult]) -> BenchReport:
    cases = sorted(cases, key=lambda c: c.id)
    n = len(cases)
    passed = sum(1 for c in cases if c.passed)
    accepted = sum(1 for c in cases if c.accepted)
    per_kind: dict[str, dict] = {}
    for kind in sorted({c.kind for c in cases}):
        group = [c for c in cases if c.kind == kind]
        kb_times = [c.seconds_kb for c in group if c.seconds_kb is not None]
        plain_times = [c.seconds_plain for c in group if c.seconds_plain is not None]
        per_kind[kind] = {
            "cases": len(group),
            "passed": sum(1 for c in group if c.passed),
            "accepted": sum(1 for c in group if c.accepted),
            "avg_seconds_no_kb": (
                sum(plain_times) / len(plain_times) if plain_times else None
            ),
            "avg_seconds_kb": sum(kb_times) / len(kb_times) if kb_times else None,
        }
    return BenchReport(
        cases=cases,
        pass_rate=passed / n if n else 0.0,
        exec_rate=accepted / n if n else 0.0,
        ci_95={
            "pass_rate": compute_ci(passed, n) if n else (0.0, 1.0),
            "exec_rate": compute_ci(accepted, n) if n else (0.0, 1.0),
        },
        per_kind=per_kind,
        totals={
            "cases": n,
            "passed": passed,
            "accepted": accepted,
            "tokens": sum(c.tokens for c in cases),
        },
    )


def _fmt_seconds(value: float | None) -> str:
    return f"{value:.3f}" if value is not None else "-"


def _fmt_accept(value: bool | None) -> str:
    if value is None:
        return "unknown"
    return "yes" if value else "no"


def _align(rows: list[list[str]]) -> str:
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def render_report(report: BenchReport, fmt: str = "table") -> str:
    if fmt == "json":
        return json.dumps({"schema_version": 1, **asdict(report)}, indent=2, sort_keys=True)
    rows = [
        [
            "id",
            "kind",
            "base",
            "verdict",
            "accepted",
            "time_no_kb/s",
            "time_kb/s",
            "tokens",
        ]
    ]
    for c in report.cases:
        rows.append(
            [
                c.id,
                c.kind,
                str(c.baseline_errors),
                c.verdict,
                _fmt_accept(c.acceptability),
                _fmt_seconds(c.seconds_plain),
                _fmt_seconds(c.seconds_kb),
                str(c.tokens),
            ]
        )
    lines = [_align(rows)]
    kind_rows = [["kind", "cases", "passed", "accepted", "time_no_kb/s", "time_kb/s"]]
    for kind, row in report.per_kind.items():
        kind_rows.append(
            [
                kind,
                str(row["cases"]),
                str(row["passed"]),
                str(row["accepted"]),
                _fmt_seconds(row["avg_seconds_no_kb"]),
                _fmt_seconds(row["avg_seconds_kb"]),
            ]
        )
    if report.cases:
        plain = [c.seconds_plain for c in report.cases if c.seconds_plain is not None]
        kb = [c.seconds_kb for c in report.cases if c.seconds_kb is not None]
        kind_rows.append(
            [
                "Average",
                str(report.totals["cases"]),
                str(report.totals["passed"]),
                str(report.totals["accepted"]),
                _fmt_seconds(sum(plain) / len(plain) if plain else None),
                _fmt_seconds(sum(kb) / len(kb) if kb else None),
            ]
        )
    lines.append("")
    lines.append(_align(kind_rows))
    lines.append("")
    if report.totals["cases"]:
        lo, hi = report.ci_95["pass_rate"]
        lines.append(
            f"pass_rate: {report.totals['passed']}/{report.totals['cases']}"
            f" = {report.pass_rate:.3f}  CI95 [{lo:.3f}, {hi:.3f}]"
        )
        lo, hi = report.ci_95["exec_rate"]
        lines.append(
            f"exec_rate: {report.totals['accepted']}/{report.totals['cases']}"
            f" = {report.exec_rate:.3f}  CI95 [{lo:.3f}, {hi:.3f}]"
        )
    return "\n".join(lines)


def _lead_kind(reports) -> UbKind:
    counts = Counter(r.kind for r in reports)
    return counts.most_common(1)[0][0] if counts else UbKind.UNKNOWN


def _seeded_solution(record: ExperienceRecord, ref: str) -> RepairSolution | None:
    steps = [
        RepairStep(agent=AgentKind(agent), target_region=ref, instruction=instruction)
        for agent, instruction in record.solution_signature
    ]
    if not steps:
        return None
    return RepairSolution(id="s00", steps=steps, provenance=Provenance.KNOWLEDGE_SEEDED)


def repair_one(
    target: TargetPackage,
    provider: Provider,
    engine: FeedbackEngine,
    settings: SessionConfig,
    reference: ReferenceBundle | None = None,
) -> tuple[SessionOutcome, EvalTriplet, dict[str, str]]:
    """Full pipeline on one target: detect, plan, repair, evaluate, learn.

    Returns the session outcome, the evaluation triplet and the original
    sources for diffing. The run makes its working copy, memoised provider
    and baseline detection, hands them to the session and removes the copy;
    its memo comes in ``settings``. A target with no unsafe region to stand
    for its baseline reports (``stand_in_features``) has nothing to plan and
    fails without a model call. With knowledge enabled, a past repair at
    least ``BYPASS_SIMILARITY`` alike is seeded first. The plan comes in
    pages (one model call each, whose prompt carries each region's code),
    each ranked on its own. A page is asked for when the session first draws
    past the solutions drawn so far, a seed that ranking provably keeps
    first included. A page asked with nothing tried asks for one solution; a
    follow-up page asks for ``PLAN_PAGE`` and its prompt carries the
    verdicts of the solutions tried. A follow-up page is planned from the
    snapshot the next solution starts from, the session's best, handed over
    as the last trace's ``next_start``: it shows the regions that snapshot
    still reports, with its code, and no detection runs. When none of its
    reports lands in an unsafe region, the drawing ends. Refs are ordinals
    in the text a page was planned on, so a ``TRIED`` solution's refs name
    the same regions on a later page only while no patch has dropped an
    ``unsafe`` keyword. A page's prompt is the same with knowledge enabled
    or not: a bench case's two runs that reach a page with the same
    solutions tried share its answer.
    Reason steps consult the knowledge base only when knowledge is enabled
    and no past repair was seeded. The run's tokens are those its memo
    booked (``CaseMemo.charged_tokens``) for every answer it took from the
    answer pool, fetched by this run or another case, so they do not depend
    on which case asked first. When the run repairs the target, the answers
    it needs to take the same path again are listed in the memo's
    ``new_results``, for the caller to append to the experience log with
    the run's detections: those of every plan prompt asked for a solution
    the session drew (a page, and its retry after a degenerate answer), and
    those of the kept thoughts of the solution it ended on. A run that
    fails lists none, nor does a seed that passes before any page is asked.
    """
    clock = settings.clock
    memo = settings.memo
    memo.begin_run()
    start = clock()
    # answers the case already received come from the memo; a model call
    # advances no tick of the logical clock, so there it takes no time
    timer = (lambda: 0.0) if isinstance(clock, LogicalClock) else clock
    provider = MemoizedProvider(provider, memo, timer)
    ws = WorkingCopy(target)
    try:
        originals = ws.files()
        baseline = run_detection(ws.target, config=settings.detector, clock=clock, memo=memo)
        kb = engine.kb if settings.kb_enabled else None
        vector: FeatureVector | None = None
        drawn: list[RepairSolution] = []
        ended: list[ErrorTrace] = []  # the trace of each drawn solution, once tried
        solutions: Iterable[RepairSolution] = []
        reports = list(baseline.reports)
        # a region stands for reports that land in none at the baseline only
        features = reports and (extract_features(ws.target, reports) or stand_in_features(ws.target, reports))
        if features:
            seeded: RepairSolution | None = None
            if settings.kb_enabled:
                lead_file, _ = parse_region_ref(features[0].ref)
                vector = feature_vector(ws.read(lead_file), baseline.reports, lead_file)
                hit = engine.best_hit(vector)
                if hit is not None:
                    seeded = _seeded_solution(hit[1], features[0].ref)
                    if seeded is not None:
                        kb = None

            def draw() -> Iterator[RepairSolution]:
                """The plan, a page at a time, each page ranked on its own
                and each solution noted in ``drawn`` as the session draws
                it. The seed joins the first page; one that ranking provably
                keeps first is drawn before any page is asked for. A page is
                asked for once the session has tried every solution drawn,
                with their traces, and planned from the snapshot the next
                solution starts from; an empty page ends the drawing."""
                page = [] if seeded is None else [seeded]
                if seeded is not None and engine.keeps_first(seeded, vector):
                    drawn.append(seeded)
                    yield seeded
                    page = []
                while True:
                    planned = features
                    if ended:
                        # the working copy is the snapshot the next solution starts from
                        planned = extract_features(ws.target, list(ended[-1].next_start.reports))
                        if not planned:
                            return
                    page += generate_solutions(
                        planned,
                        k=settings.solutions_k,
                        provider=provider,
                        tried=list(zip(drawn, ended)),
                    )
                    if vector is not None:
                        page = engine.rank_solutions(page, vector)
                    if not page:
                        return
                    for solution in page:
                        drawn.append(solution)
                        yield solution
                    page = []

            solutions = draw()
        outcome = run_session(
            ws,
            solutions,
            provider=provider,
            config=settings,
            baseline=baseline,
            kb=kb,
            ended=ended,
        )
        # detections and answers reused from the case's other run, and
        # answers another case fetched, cost this run what they cost there,
        # as if it had made them itself
        elapsed = clock() - start + memo.charged_seconds
        triplet = engine.evaluate(
            outcome,
            reference,
            entry_file=target.entry_files[0],
            overhead_seconds=elapsed,
            overhead_tokens=memo.charged_tokens,
            memo=memo,
        )
        if outcome.verdict is Verdict.PASS and triplet.acceptability is True:
            outcome.verdict = Verdict.SEMANTIC_PASS
        if triplet.accuracy:
            # the answers that made the repair answer their prompts next
            # time: each plan page drawn from, then each kept thought's
            for solution in drawn:
                for prompt in solution.prompts:
                    provider.keep(prompt)
            for thought in outcome.trace.thoughts:
                if thought.kept:
                    provider.keep(thought.patch.prompt)
        if vector is not None and not vector.is_zero and outcome.solution_id is not None:
            used = next((s for s in drawn if s.id == outcome.solution_id), None)
            if used is not None:
                record = ExperienceRecord(
                    feature_vector=vector,
                    ub_kind=_lead_kind(baseline.reports),
                    solution_id=used.id,
                    triplet=triplet,
                    solution_signature=signature_of(used),
                )
                engine.record_experience(record, solution=used if triplet.accuracy else None)
        return outcome, triplet, originals
    finally:
        ws.cleanup()


def _diff_stats(before: dict[str, str], after: dict[str, str]) -> list[tuple[str, int, int, str]]:
    """Each changed file with its added and removed line counts and its
    unified diff (``a/``- and ``b/``-prefixed paths, lines joined by
    newlines)."""
    out: list[tuple[str, int, int, str]] = []
    for rel in sorted(set(before) | set(after)):
        old, new = before.get(rel, ""), after.get(rel, "")
        if old == new:
            continue
        diff = list(
            difflib.unified_diff(
                old.splitlines(), new.splitlines(), f"a/{rel}", f"b/{rel}", lineterm=""
            )
        )
        # past the two file header lines, a hunk line opens with "@", " ", "+" or "-"
        body = [line[:1] for line in diff[2:]]
        out.append((rel, body.count("+"), body.count("-"), "\n".join(diff) + "\n"))
    return out


def _make_clock(fixed: bool) -> Callable[[], float]:
    return LogicalClock() if fixed else time.monotonic


def _detector_config(args: argparse.Namespace) -> DetectorConfig:
    if args.detector_cmd:
        return DetectorConfig(command=args.detector_cmd, timeout=args.timeout)
    return DetectorConfig(timeout=args.timeout)


def _open_stores(args: argparse.Namespace) -> FeedbackEngine:
    """The feedback engine over the experience log, with the knowledge base
    (none under ``--no-kb``). Both load now, so a bad line, a vector of the
    wrong width included, raises StorageFailure naming its file and line."""
    kb = None if args.no_kb else KnowledgeBase(args.kb)
    return FeedbackEngine(args.experience, kb=kb)


def _session_config(
    args: argparse.Namespace, clock: Callable[[], float], memo: CaseMemo, kb_enabled: bool
) -> SessionConfig:
    return SessionConfig(
        detector=_detector_config(args),
        solutions_k=args.solutions,
        budget=args.max_iterations,
        kb_enabled=kb_enabled,
        clock=clock,
        memo=memo,
    )


def _provider_config(args: argparse.Namespace) -> ProviderConfig:
    return ProviderConfig(
        mode=ProviderMode(args.provider),
        model_name=args.model,
        temperature=args.temperature,
        transcript_path=Path(args.transcript) if args.transcript else None,
    )


def _records_transcript(args: argparse.Namespace) -> bool:
    """Whether ``--transcript`` names a file to record, not one to replay."""
    return bool(args.transcript) and ProviderMode(args.provider) is not ProviderMode.REPLAY


def cmd_fix(args: argparse.Namespace) -> int:
    clock = _make_clock(args.fixed_clock)
    try:
        target = TargetPackage.from_path(args.path)
        target.validate()
        provider = create_provider(_provider_config(args))
        engine = _open_stores(args)
        reference = ReferenceBundle.from_dir(args.reference) if args.reference else None
    except (TargetRejected, ProviderFailure, StorageFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    memo = CaseMemo(engine.tool_results)
    settings = _session_config(args, clock, memo, kb_enabled=not args.no_kb)
    failure: UbmendError | None = None
    try:
        outcome, triplet, originals = repair_one(
            target, provider, engine, settings, reference=reference
        )
        if _records_transcript(args):
            write_transcript(args.transcript, transcript_entries(memo, provider.config))
    except (
        ToolMissing, NonUbCompileError, ReplayMiss, StorageFailure, ProviderFailure, LexFailure,
        DetectionTimeout,
    ) as exc:
        failure = exc
    finally:
        # the detections paid for are kept even when the repair failed; a
        # store that cannot take them is reported unless an error came first
        try:
            engine.record_tool_results(memo.new_results)
        except StorageFailure as exc:
            failure = failure or exc
    if isinstance(failure, DetectionTimeout):
        if args.report == "json":
            payload = {"error": str(failure), "schema_version": 1, "target": str(args.path),
                       "verdict": Verdict.FAILED.value}
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(Verdict.FAILED.value)
        print(f"error: {failure}", file=sys.stderr)
        return 1
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    changed = _diff_stats(originals, outcome.final_source)
    if args.report == "json":
        payload = {
            "schema_version": 1,
            "target": str(args.path),
            "verdict": outcome.verdict.value,
            "baseline_errors": outcome.baseline_errors,
            "final_errors": outcome.final_errors,
            "triplet": asdict(triplet),
            "trace": outcome.trace.to_dict(),
            "rollbacks": outcome.stats.rollback_count,
            "changed_files": [
                {"file": rel, "added": a, "removed": r, "patch": patch}
                for rel, a, r, patch in changed
            ],
            "store_hits": memo.store_hits,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(outcome.verdict.value)
        print(f"target: {args.path}")
        print(f"errors: {outcome.baseline_errors} -> {outcome.final_errors}")
        print(f"thoughts: {outcome.thought_count}, rollbacks: {outcome.stats.rollback_count}")
        print(f"acceptability: {_fmt_accept(triplet.acceptability)}")
        print(
            f"time: {triplet.overhead_seconds:.3f}s, tokens: {triplet.overhead_tokens}"
        )
        if changed:
            print("changed files:")
            for rel, a, r, _ in changed:
                print(f"  {rel} (+{a} -{r})")
    return 0 if outcome.verdict in (Verdict.PASS, Verdict.SEMANTIC_PASS) else 1


@dataclass
class ManifestCase:
    id: str
    path: Path
    ub_kind: str
    reference: Path | None


def load_manifest(path: Path | str) -> list[ManifestCase]:
    path = Path(path)
    if not path.is_file():
        raise StorageFailure(f"no such manifest: {path}")
    base = path.parent
    cases: list[ManifestCase] = []
    seen: set[str] = set()
    for ln, raw in enumerate(path.read_bytes().splitlines(), 1):
        if not raw.strip():
            continue
        try:
            entry = json.loads(raw.decode("utf-8"))
            cid = str(entry["id"])
            case_path = base / entry["path"]
            kind = str(entry.get("ub_kind", UbKind.UNKNOWN.value))
            ref = entry.get("reference")
            reference = base / ref if ref else None
        except (ValueError, KeyError, TypeError) as exc:
            raise StorageFailure(f"{path}:{ln}: bad manifest line: {exc}") from exc
        if cid in seen:
            raise StorageFailure(f"{path}:{ln}: duplicate case id {cid!r}")
        seen.add(cid)
        if not case_path.exists():
            raise StorageFailure(f"{path}:{ln}: case path does not exist: {case_path}")
        cases.append(ManifestCase(id=cid, path=case_path, ub_kind=kind, reference=reference))
    if not cases:
        raise StorageFailure(f"empty manifest: {path}")
    return cases


def _failed_row(case: ManifestCase, exc: Exception) -> CaseResult:
    return CaseResult(
        id=case.id,
        kind=case.ub_kind,
        verdict=Verdict.FAILED.value,
        acceptability=False,
        baseline_errors=0,
        final_errors=0,
        thoughts=0,
        rollbacks=0,
        tokens=0,
        seconds_kb=None,
        seconds_plain=None,
        note=f"{type(exc).__name__}: {exc}",
    )


def _bench_case(
    case: ManifestCase,
    args: argparse.Namespace,
    initial_kb: list,
    initial_exp: list[ExperienceRecord],
    stored: dict[str, dict],
    replies: dict[str, str] | None,
    answers: AnswerPool,
) -> tuple[CaseResult, list, list[ExperienceRecord], dict[str, dict], list]:
    """One manifest case: a knowledge run plus a no-knowledge timing run.

    The two runs share one provider, target, reference and copy of the
    stores; the no-knowledge run records nothing into the copy. Returns the
    row, the knowledge entries, experience records and tool results the case
    produced, and, when ``--transcript`` is recorded, the memo's answers
    after its last finished run as transcript entries.
    ``stored`` seeds the case memo with the experience log's tool results;
    ``replies``, the transcript a replay bench loaded, answers the case's
    own replay provider. ``answers`` is the bench's answer pool: a prompt
    another case already asked takes that case's answer, charged to this
    case's row as if fetched, and does not reach the provider again.
    """
    clock = _make_clock(args.fixed_clock)
    memo = CaseMemo(stored, answers)
    kb = KnowledgeBase(None)
    kb.entries = list(initial_kb)
    engine = FeedbackEngine(None, kb=kb)
    engine.records = list(initial_exp)
    runs: list[tuple[SessionOutcome, EvalTriplet]] = []
    recorded: list = []
    try:
        config = _provider_config(args)
        provider = create_provider(config) if replies is None else ReplayProvider(config, replies)
        target = TargetPackage.from_path(case.path)
        target.validate()
        reference = ReferenceBundle.from_dir(case.reference) if case.reference else None
        for kb_enabled in (False,) if args.no_kb else (True, False):
            settings = _session_config(args, clock, memo, kb_enabled)
            runs.append(repair_one(target, provider, engine, settings, reference)[:2])
            if _records_transcript(args):
                recorded = transcript_entries(memo, provider.config)
    except ToolMissing:
        raise
    except UbmendError as exc:
        log.warning("case %s failed: %s", case.id, exc)
        return _failed_row(case, exc), [], [], memo.new_results, recorded
    (outcome, triplet), (_, plain) = runs[0], runs[-1]
    result = CaseResult(
        id=case.id,
        kind=case.ub_kind,
        verdict=outcome.verdict.value,
        acceptability=triplet.acceptability,
        baseline_errors=outcome.baseline_errors,
        final_errors=outcome.final_errors,
        thoughts=outcome.thought_count,
        rollbacks=outcome.stats.rollback_count,
        tokens=triplet.overhead_tokens,
        seconds_kb=None if args.no_kb else triplet.overhead_seconds,
        seconds_plain=plain.overhead_seconds,
    )
    return result, kb.entries[len(initial_kb):], engine.records[len(initial_exp):], memo.new_results, recorded


class _CaseLogs(logging.Handler):
    """Holds back the package's log records per bench case, so that each
    case's records can be handed on as one block, in case-id order, whatever
    worker finished first. Records logged outside a case pass straight on.
    """

    def __init__(self) -> None:
        super().__init__()
        self._local = threading.local()

    @contextlib.contextmanager
    def holding(self, *loggers: logging.Logger) -> Iterator[None]:
        """Route the records of ``loggers`` and their children through this
        handler, and no further up, while the block runs."""
        saved = [(logger, logger.propagate) for logger in loggers]
        for logger, _ in saved:
            logger.addHandler(self)
            logger.propagate = False
        try:
            yield
        finally:
            for logger, propagate in saved:
                logger.removeHandler(self)
                logger.propagate = propagate

    @contextlib.contextmanager
    def case(self) -> Iterator[list[logging.LogRecord]]:
        """Records this thread logs inside the block are held in the list
        it yields."""
        self._local.held = held = []
        try:
            yield held
        finally:
            self._local.held = None

    def emit(self, record: logging.LogRecord) -> None:
        held = getattr(self._local, "held", None)
        if held is None:
            logging.getLogger().handle(record)
        else:
            held.append(record)


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        cases = sorted(load_manifest(args.manifest), key=lambda case: case.id)
        config = _provider_config(args)
        config.validate()
        replay = config.mode is ProviderMode.REPLAY
        replies = load_transcript(config.transcript_path) if replay else None
        engine = _open_stores(args)
        kb = engine.kb
    except (StorageFailure, ProviderFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # every case reads the stores as bench found them, while the lines of
    # the cases before it land
    initial_kb = list(kb.entries) if kb else []
    initial_exp = list(engine.records)
    stored = dict(engine.tool_results)
    answers = AnswerPool()
    jobs = args.jobs or min(JOBS_CAP, os.cpu_count() or 1)
    results: list[CaseResult] = []
    transcript: dict[str, TranscriptEntry] = {}
    missing: list[ToolMissing] = []
    logs = _CaseLogs()

    def run_case(case: ManifestCase) -> tuple[tuple, list[logging.LogRecord], ToolMissing | None]:
        with logs.case() as held:
            try:
                return _bench_case(case, args, initial_kb, initial_exp, stored, replies, answers), held, None
            except ToolMissing as exc:  # a setup error, not a repair outcome
                log.warning("case %s failed: %s", case.id, exc)
                return (_failed_row(case, exc), [], [], {}, []), held, exc
            except Exception as exc:  # one broken case must not end the bench
                log.exception("case %s raised", case.id)
                return (_failed_row(case, exc), [], [], {}, []), held, None

    try:
        # this module logs as ``__main__`` when run with ``python -m``
        with logs.holding(logging.getLogger(__package__), log):
            with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
                # ``map`` yields each case once it and every earlier case are done
                for (row, new_kb, new_exp, new_results, recorded), held, no_tool in pool.map(run_case, cases):
                    for record in held:
                        logging.getLogger().handle(record)
                    results.append(row)
                    if no_tool is not None:
                        missing.append(no_tool)
                    for entry in new_kb:
                        kb.insert(entry)
                    for record in new_exp:
                        engine.record_experience(record, solution=None)
                    engine.record_tool_results(new_results)
                    for entry in recorded:
                        transcript.setdefault(entry.hash, entry)
        if _records_transcript(args):
            write_transcript(args.transcript, transcript.values())
    except StorageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = build_report(results)
    print(render_report(report, args.report))
    if missing:
        reason = str(missing[0]).splitlines()[0]
        print(f"error: {len(missing)} of {len(cases)} cases had no detector: {reason}", file=sys.stderr)
        return 2
    return 0


def _command_line(text: str) -> tuple[str, ...]:
    """A command line split as a POSIX shell would; an unclosed quote, an
    empty command or a placeholder the detector cannot render (``{files}``,
    ``{}``, a lone ``{``) is a usage error. The tool runs inside the working
    copy, so a relative path to it is taken from the invoking directory; a
    bare name is looked up on PATH, and a ``{root}`` path is filled in by
    the detector.

    Only the program word is resolved. A script given to an interpreter
    (``python3 tests/tools/fake_miri.py {file}``) is looked up inside the
    working copy, so give it as an absolute path. Later words stay as they
    are: ``src/main.rs`` must name the copy's file, not the original."""
    try:
        command = tuple(shlex.split(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not command:
        raise argparse.ArgumentTypeError("empty command")
    try:
        render_command(command, "main.rs", "")
    except (LookupError, ValueError, AttributeError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad placeholder: {exc}") from None
    tool = command[0]
    if os.sep in tool and "{" not in tool and not os.path.isabs(tool):
        command = (os.path.abspath(tool),) + command[1:]
    return command


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--provider",
        choices=[m.value for m in ProviderMode],
        default=ProviderMode.SCRIPTED_MOCK.value,
        help="model backend (default: mock)",
    )
    shared.add_argument("--model", default="gpt-4", help="model name for live/replay hashing")
    shared.add_argument("--temperature", type=float, default=0.5)
    shared.add_argument(
        "--max-iterations",
        type=_positive_int,
        default=DEFAULT_BUDGET,
        metavar="P",
        help="fix-thought budget per solution",
    )
    shared.add_argument(
        "--solutions",
        type=_positive_int,
        default=DEFAULT_SOLUTION_COUNT,
        metavar="K",
        help=f"at most K candidate solutions: one first, then pages of {PLAN_PAGE}",
    )
    shared.add_argument("--kb", metavar="PATH", help="knowledge-base JSONL file")
    shared.add_argument(
        "--no-kb", action="store_true", help="disable knowledge lookups and seeding"
    )
    shared.add_argument(
        "--transcript",
        metavar="PATH",
        help="transcript JSONL: read in replay mode, recorded otherwise",
    )
    shared.add_argument("--report", choices=["json", "table"], default="table")
    shared.add_argument(
        "--timeout", type=_positive_seconds, default=120.0, help="detection timeout in seconds"
    )
    shared.add_argument(
        "--detector-cmd",
        type=_command_line,
        metavar="CMD",
        help="detection command line; {file} and {root} placeholders allowed",
    )
    shared.add_argument("--experience", metavar="PATH", help="experience log JSONL file")
    shared.add_argument(
        "--fixed-clock",
        action="store_true",
        help="logical clock for reproducible timing fields",
    )
    parser = argparse.ArgumentParser(
        prog="ubmend", description="Detect and repair undefined behavior in Rust targets."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fix = sub.add_parser("fix", parents=[shared], help="repair one target package")
    fix.add_argument("path", help="Rust file or package directory")
    fix.add_argument(
        "--reference", metavar="DIR", help="reference bundle for the acceptability check"
    )
    fix.set_defaults(func=cmd_fix)
    bench = sub.add_parser("bench", parents=[shared], help="run a dataset manifest")
    bench.add_argument("manifest", help="JSONL manifest: {id, path, ub_kind, reference}")
    bench.add_argument("--jobs", type=_positive_int, metavar="N", help=f"parallel cases (default: min(cpu, {JOBS_CAP}))")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
