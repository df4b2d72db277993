"""Fast thinking: distill error features, then draft candidate repair plans.

``extract_features`` locates, classifies and maps the affected regions
without a model call. ``generate_solutions`` then asks the model for plans
in pages of ``PLAN_PAGE``: each prompt lists every region's features and
code, and asks for alternative plans in a line-oriented grammar::

    SOLUTION <i>:
    STEP <n>: <AGENT> <region-ref> :: <instruction>

The first page is asked with nothing tried. A later page is asked only once
the session has tried every solution before it, and its prompt lists each
tried solution's steps with its verdict (the error count it ended at
against the baseline, the reports left and each step's note), so the model
proposes solutions not yet tried. Ids and deduplication continue across
pages, and ``k`` caps the solutions of all pages together.

Parsing is deliberately lenient (junk lines are dropped, duplicate plans
folded); a fully unparseable answer is retried once and then replaced by
template plans, one per leading strategy.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .classifier import (
    CodeFeature,
    FixStrategy,
    UnsafeRegion,
    classify_ops,
    locate_unsafe_regions,
    map_strategies,
)
from .detector import TargetPackage, UbReport
from .errors import DegenerateOutput, Unclassifiable
from .lexutil import line_of_offset
from .prompts import fill, load_template
from .provider import PromptRecord, Provider

if TYPE_CHECKING:  # pragma: no cover
    from .slow import ErrorTrace

log = logging.getLogger(__name__)

DEFAULT_SOLUTION_COUNT = 10
# solutions asked for per plan prompt: one per fix strategy
PLAN_PAGE = 3


class AgentKind(str, Enum):
    SAFE_REPLACE = "SafeReplace"
    ADD_ASSERTION = "AddAssertion"
    MODIFY_SEMANTICS = "ModifySemantics"
    REASON = "Reason"
    ROLLBACK = "Rollback"


class Provenance(str, Enum):
    GENERATED = "generated"
    FEEDBACK_RANKED = "feedback_ranked"
    KNOWLEDGE_SEEDED = "knowledge_seeded"


AGENT_FOR_STRATEGY = {
    FixStrategy.SAFE_ALTERNATIVE: AgentKind.SAFE_REPLACE,
    FixStrategy.ASSERTION_GUARD: AgentKind.ADD_ASSERTION,
    FixStrategy.SEMANTIC_MODIFICATION: AgentKind.MODIFY_SEMANTICS,
}
STRATEGY_FOR_AGENT = {v: k for k, v in AGENT_FOR_STRATEGY.items()}
FIX_AGENTS = frozenset(AGENT_FOR_STRATEGY.values())

DEFAULT_INSTRUCTION = {
    FixStrategy.SAFE_ALTERNATIVE: "replace the unsafe operation with the catalogued safe API",
    FixStrategy.ASSERTION_GUARD: "insert guard assertions before each risky operation",
    FixStrategy.SEMANTIC_MODIFICATION: "rewrite the region to remove the undefined behavior",
}

_STEP_RE = re.compile(r"^\s*STEP\s+\d+\s*:\s*([A-Za-z]+)\s+(\S+)\s*::\s*(.+?)\s*$")
_SOLUTION_RE = re.compile(r"^\s*SOLUTION\s+\d+\s*:", re.IGNORECASE)


@dataclass
class RepairStep:
    agent: AgentKind
    target_region: str
    instruction: str

    def to_dict(self) -> dict:
        return {
            "agent": self.agent.value,
            "target_region": self.target_region,
            "instruction": self.instruction,
        }


@dataclass
class RepairSolution:
    id: str
    steps: list[RepairStep]
    provenance: Provenance = Provenance.GENERATED

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "steps": [s.to_dict() for s in self.steps],
            "provenance": self.provenance.value,
        }


def region_ref(file: str, ordinal: int) -> str:
    return f"{file}#{ordinal}"


def parse_region_ref(ref: str) -> tuple[str, int]:
    """``FILE#N`` as ``(FILE, N)``; ValueError when N is no ordinal >= 0."""
    file, _, ordinal = ref.rpartition("#")
    index = int(ordinal)
    if index < 0:
        raise ValueError(f"negative region ordinal in {ref!r}")
    return file, index


def normalize_steps(steps: list[RepairStep]) -> tuple:
    return tuple(
        (s.agent.value, s.target_region, " ".join(s.instruction.split()).lower())
        for s in steps
    )


def strategy_order(feature: CodeFeature) -> list[FixStrategy]:
    """map_strategies, except unclassifiable regions go semantics-first."""
    if not feature.op_kinds:
        return [
            FixStrategy.SEMANTIC_MODIFICATION,
            FixStrategy.SAFE_ALTERNATIVE,
            FixStrategy.ASSERTION_GUARD,
        ]
    return map_strategies(feature)


def _report_hits_region(report: UbReport, rel: str, source: str, region: UnsafeRegion) -> bool:
    rf = report.file.replace("\\", "/")
    rel_norm = rel.replace("\\", "/")
    if not (rf == rel_norm or rf.endswith("/" + rel_norm) or rel_norm.endswith("/" + rf)):
        if rf.rsplit("/", 1)[-1] != rel_norm.rsplit("/", 1)[-1]:
            return False
    if report.line is None:
        return False
    first = line_of_offset(source, region.start)
    last = line_of_offset(source, max(region.start, region.end - 1))
    return first <= report.line <= last


def extract_features(target: TargetPackage, reports: list[UbReport]) -> list[CodeFeature]:
    """One CodeFeature per unsafe region that overlaps a UB report, with no
    model call.

    Reports that land in no region are logged as taxonomy escapes; if none
    overlap at all, a whole-file fallback feature keeps the pipeline moving.
    """
    if not reports:
        return []
    features: list[CodeFeature] = []
    claimed: set[int] = set()
    for rel in target.entry_files:
        source = target.read(rel)
        regions = locate_unsafe_regions(source, rel)
        for ordinal, region in enumerate(regions):
            hit_idx = [
                i for i, r in enumerate(reports) if _report_hits_region(r, rel, source, region)
            ]
            if not hit_idx:
                continue
            claimed.update(hit_idx)
            features.append(
                _build_feature(region, region_ref(rel, ordinal), [reports[i] for i in hit_idx])
            )
    for i, report in enumerate(reports):
        if i not in claimed:
            log.warning("taxonomy escape: report %s maps to no unsafe region", report.to_dict())
    if not features:
        rel = _fallback_file(target, reports)
        source = target.read(rel)
        regions = locate_unsafe_regions(source, rel)
        if regions:
            region, ordinal = regions[0], 0
        else:
            region = UnsafeRegion(
                file=rel,
                byte_span=(0, len(source)),
                snippet=source,
                enclosing_context=source,
            )
            ordinal = 0
        features.append(_build_feature(region, region_ref(rel, ordinal), list(reports)))
    return features


def _fallback_file(target: TargetPackage, reports: list[UbReport]) -> str:
    names = {r.file.replace("\\", "/").rsplit("/", 1)[-1] for r in reports if r.file}
    for rel in target.entry_files:
        if rel.replace("\\", "/").rsplit("/", 1)[-1] in names:
            return rel
    return target.entry_files[0]


def _build_feature(region: UnsafeRegion, ref: str, hits: list[UbReport]) -> CodeFeature:
    try:
        op_kinds = classify_ops(region)
    except Unclassifiable:
        log.warning("region %s unclassifiable; semantics-first fallback", ref)
        op_kinds = frozenset()
    return CodeFeature(
        region=region,
        op_kinds=op_kinds,
        ub_kinds=frozenset(r.kind for r in hits),
        ref=ref,
    )


def _feature_lines(features: list[CodeFeature]) -> str:
    lines = []
    for f in features:
        order = ",".join(s.value for s in strategy_order(f))
        ub = ",".join(sorted(k.value for k in f.ub_kinds)) or "unknown"
        ops = ",".join(sorted(k.value for k in f.op_kinds)) or "unclassified"
        lines.append(f"FEATURE {f.ref} :: strategies={order} :: ub={ub} :: ops={ops}")
        lines.append(f"```rust\n{f.region.snippet}\n```")
    return "\n".join(lines)


def parse_plan(text: str) -> list[list[RepairStep]]:
    solutions: list[list[RepairStep]] = []
    current: list[RepairStep] | None = None
    for line in text.splitlines():
        if _SOLUTION_RE.match(line):
            if current:
                solutions.append(current)
            current = []
            continue
        m = _STEP_RE.match(line)
        if not m:
            continue
        agent_token, ref, instruction = m.group(1), m.group(2), m.group(3)
        try:
            agent = AgentKind(agent_token)
        except ValueError:
            matches = [a for a in AgentKind if a.value.lower() == agent_token.lower()]
            if not matches:
                continue
            agent = matches[0]
        if current is None:
            current = []
        current.append(RepairStep(agent=agent, target_region=ref, instruction=instruction))
    if current:
        solutions.append(current)
    return [s for s in solutions if s]


def fallback_solutions(features: list[CodeFeature]) -> list[list[RepairStep]]:
    """One template plan per strategy in the leading feature's order."""
    if not features:
        return []
    plans = []
    for strategy in strategy_order(features[0]):
        plans.append(
            [
                RepairStep(
                    agent=AGENT_FOR_STRATEGY[strategy],
                    target_region=f.ref,
                    instruction=DEFAULT_INSTRUCTION[strategy],
                )
                for f in features
            ]
        )
    return plans


def _tried_lines(tried: Sequence[tuple[RepairSolution, "ErrorTrace"]]) -> str:
    """Each tried solution with its verdict: the error count it ended at
    against the session's baseline (the count the first one started from),
    each step's note and error count, and the reports left."""
    if not tried:
        return "none"
    baseline = tried[0][1].counts[0]
    lines = []
    for solution, trace in tried:
        lines.append(
            f"TRIED {solution.id}: ended at {trace.counts[-1]} errors, baseline {baseline}"
        )
        thoughts = {id(t.step): t for t in trace.thoughts}
        for n, step in enumerate(solution.steps, 1):
            line = f"  STEP {n}: {step.agent.value} {step.target_region} :: {step.instruction}"
            thought = thoughts.get(id(step))
            if thought is not None:
                line += f" => {thought.note or 'verified'}; errors {thought.resulting_errors}"
            elif step.agent in FIX_AGENTS:
                line += " => not reached"
            lines.append(line)
        for report in trace.reports:
            name = report.file.replace("\\", "/").rsplit("/", 1)[-1]
            lines.append(f"  left: {report.kind.value} at {name}:{report.line}: {report.message}")
    return "\n".join(lines)


def generate_solutions(
    features: list[CodeFeature],
    k: int = DEFAULT_SOLUTION_COUNT,
    provider: Provider | None = None,
    tried: Sequence[tuple[RepairSolution, "ErrorTrace"]] = (),
) -> list[RepairSolution]:
    """The next page of candidate solutions, in the provider's preference
    order: at most ``PLAN_PAGE`` solutions that are neither repeats of each
    other nor of a ``tried`` one.

    ``tried`` pairs each solution the session has tried with the trace it
    ended on. The page's ids continue after the highest tried id (a seeded
    solution is ``s00``), and ``k`` caps the highest id: at the cap, or when
    the answer holds nothing new, the page is empty. The prompt depends on
    nothing else, not on whether knowledge is enabled: runs on one target
    with one history ask the same page. Requires at least one feature and
    k >= 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not features:
        raise ValueError("generate_solutions needs at least one feature")
    assert provider is not None, "provider required"
    done = max((int(solution.id[1:]) for solution, _ in tried), default=0)
    count = min(PLAN_PAGE, k - done)
    if count < 1:
        return []
    prompt_text = fill(
        load_template("plan_generation.txt"),
        count=str(count),
        first=str(done + 1),
        features=_feature_lines(features),
        tried=_tried_lines(tried),
    )
    plans = parse_plan(provider.complete(PromptRecord.user(prompt_text)))
    if not plans:
        log.warning("degenerate plan output; retrying once")
        retry = prompt_text + "\nReminder: answer only with SOLUTION and STEP lines."
        plans = parse_plan(provider.complete(PromptRecord.user(retry)))
        if not plans:
            log.warning("still degenerate; falling back to template plans")
            plans = fallback_solutions(features)
            if not plans:
                raise DegenerateOutput("no plans parseable and no fallback available")
    seen = {normalize_steps(solution.steps) for solution, _ in tried}
    solutions: list[RepairSolution] = []
    for steps in plans:
        key = normalize_steps(steps)
        if key in seen:
            continue
        seen.add(key)
        solutions.append(RepairSolution(id=f"s{done + len(solutions) + 1:02d}", steps=steps))
        if len(solutions) == count:
            break
    return solutions
