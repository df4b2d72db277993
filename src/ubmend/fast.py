"""Fast thinking: distill error features, then draft candidate repair plans.

``extract_features`` locates, classifies and maps the affected regions
without a model call. ``generate_solutions`` then asks the model for plans
a page at a time: each prompt lists every region with the fix agents to
try on it, in the order ``classifier.agent_order`` gives, its UB kinds
and its code, and asks for plans in a line-oriented grammar of steps::

    STEP <n>: <AGENT> <region-ref> :: <instruction>

Each fix step of a page's first solution may be followed by one fenced
``rust`` block: the step's region as the model would rewrite it
(``CodeBlock``). Fast thinking thus writes the first solution's code in
the plan call; slow thinking puts each block through its agent's gate and
check, and asks the agent only where a block is missing, stale or refused.

The first page is asked with nothing tried, and asks for one solution: no
verdict exists yet that a second one could answer. A page of one solution
(``plan_first_page.txt``) is in a one-solution grammar, the step lines
alone. A later page is asked only once the session has tried every
solution before it, and asks for ``PLAN_PAGE`` (``plan_generation.txt``),
or for one when ``k`` leaves room for one only: each solution of a page of
more opens with a ``SOLUTION <i>:`` line, numbered on from the tried
ones. A later page's features are those of the snapshot the next solution
starts from, and its prompt lists each tried solution's steps with its
verdict (the error count it ended at against the baseline, the reports
left and each step's note), so the model proposes solutions not yet
tried. Ids and deduplication continue across pages, and ``k`` caps the
solutions of all pages together.

Parsing is deliberately lenient (junk lines are dropped, duplicate plans
folded); a fully unparseable answer is retried once and then replaced by
template plans, one per fix agent in the leading region's order.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Sequence

from .classifier import (
    FIX_AGENTS,
    AgentKind,
    CodeFeature,
    UnsafeRegion,
    agent_order,
    classify_ops,
    locate_unsafe_regions,
)
from .detector import TargetPackage, UbReport
from .errors import Unclassifiable
from .lexutil import line_of_offset
from .prompts import fill, load_template
from .provider import Provider

if TYPE_CHECKING:  # pragma: no cover
    from .slow import ErrorTrace

log = logging.getLogger(__name__)

DEFAULT_SOLUTION_COUNT = 10
# solutions asked for per plan prompt once a solution has been tried: one
# per fix agent; the page asked with nothing tried asks for one
PLAN_PAGE = 3


class Provenance(str, Enum):
    GENERATED = "generated"
    FEEDBACK_RANKED = "feedback_ranked"
    KNOWLEDGE_SEEDED = "knowledge_seeded"


DEFAULT_INSTRUCTION = {
    AgentKind.SAFE_REPLACE: "replace the unsafe operation with the catalogued safe API",
    AgentKind.ADD_ASSERTION: "insert guard assertions before each risky operation",
    AgentKind.MODIFY_SEMANTICS: "rewrite the region to remove the undefined behavior",
}

_STEP_RE = re.compile(r"^\s*STEP\s+\d+\s*:\s*([A-Za-z]+)\s+(\S+)\s*::\s*(.+?)\s*$")
_SOLUTION_RE = re.compile(r"^\s*SOLUTION\s+\d+\s*:", re.IGNORECASE)
_FENCE = "```"


@dataclass(frozen=True)
class CodeBlock:
    """A fix step's region rewritten in the plan answer: ``after`` is the
    region's new text, written for the region while it reads ``before``,
    the code the plan prompt showed."""

    before: str
    after: str


@dataclass
class RepairStep:
    agent: AgentKind
    target_region: str
    instruction: str
    # never serialized, compared or part of a signature: stored records and
    # ranking see the step alone
    code: CodeBlock | None = field(default=None, compare=False, repr=False)

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
    # the plan prompts whose answers made it: its page's, then the retry
    # after a degenerate answer; never serialized or compared, so that a
    # verified repair's plan answers can be kept
    prompts: tuple[str, ...] = field(default=(), compare=False, repr=False)

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


def _named_file(report_file: str, entry_files: Sequence[str]) -> str | None:
    """The entry file a report's path names: the one whose path shares the
    most trailing components with it. A tie, or no shared basename, names
    no file, so a bare ``mod.rs`` names none of two ``mod.rs`` files."""
    parts = report_file.replace("\\", "/").split("/")[::-1]
    best, most = None, 0
    for rel in entry_files:
        shared = 0
        for a, b in zip(parts, rel.replace("\\", "/").split("/")[::-1]):
            if a != b:
                break
            shared += 1
        if shared > most:
            best, most = rel, shared
        elif shared == most:
            best = None
    return best


def _region_lines(source: str, region: UnsafeRegion) -> tuple[int, int]:
    """The first and last 1-based line of ``region`` in ``source``."""
    return line_of_offset(source, region.start), line_of_offset(source, max(region.start, region.end - 1))


def _report_hits_region(
    report: UbReport, rel: str, source: str, region: UnsafeRegion, entry_files: Sequence[str]
) -> bool:
    """Whether ``report`` lands on a line of ``region``, in the entry file
    ``rel``, which its path must name among ``entry_files``."""
    if report.line is None or _named_file(report.file, entry_files) != rel:
        return False
    first, last = _region_lines(source, region)
    return first <= report.line <= last


def extract_features(target: TargetPackage, reports: list[UbReport]) -> list[CodeFeature]:
    """One CodeFeature per unsafe region that overlaps a UB report, with no
    model call; none when no report lands in a region.

    Reports that land in no region are logged as taxonomy escapes. Each
    report's file is named once, and each region's lines counted once.
    """
    if not reports:
        return []
    named = [_named_file(r.file, target.entry_files) for r in reports]
    features: list[CodeFeature] = []
    claimed: set[int] = set()
    for rel in target.entry_files:
        source = target.read(rel)
        regions = locate_unsafe_regions(source, rel)
        lined = [i for i, r in enumerate(reports) if r.line is not None and named[i] == rel]
        for ordinal, region in enumerate(regions):
            first, last = _region_lines(source, region)
            hit_idx = [i for i in lined if first <= reports[i].line <= last]
            if not hit_idx:
                continue
            claimed.update(hit_idx)
            features.append(
                _build_feature(region, region_ref(rel, ordinal), [reports[i] for i in hit_idx])
            )
    for i, report in enumerate(reports):
        if i not in claimed:
            log.warning("taxonomy escape: report %s maps to no unsafe region", report.to_dict())
    return features


def stand_in_features(target: TargetPackage, reports: list[UbReport]) -> list[CodeFeature]:
    """The feature of the region that stands for reports landing in no
    unsafe region: the first region of the first entry file a report names,
    else of the first entry file. None without such a region: no step could
    patch the reports."""
    named = {_named_file(r.file, target.entry_files) for r in reports}
    rel = next((rel for rel in target.entry_files if rel in named), target.entry_files[0])
    regions = locate_unsafe_regions(target.read(rel), rel)
    return [_build_feature(regions[0], region_ref(rel, 0), list(reports))] if regions else []


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
    """Each region's ``FEATURE`` line, with the fix agents to try on it in
    order, then its code."""
    lines = []
    for f in features:
        agents = ",".join(agent.value for agent in agent_order(f))
        ub = ",".join(sorted(k.value for k in f.ub_kinds)) or "unknown"
        ops = ",".join(sorted(k.value for k in f.op_kinds)) or "unclassified"
        lines.append(f"FEATURE {f.ref} :: agents={agents} :: ub={ub} :: ops={ops}")
        lines.append(f"```rust\n{f.region.snippet}\n```")
    return "\n".join(lines)


def _opens_block(line: str, after_step: bool) -> bool:
    """Whether ``line`` opens a fenced block: a ```rust fence, or any fence
    right after a step line, where a block may belong to the step."""
    fence = line.strip()
    return fence.startswith(_FENCE) and (after_step or fence[len(_FENCE):].strip().lower() == "rust")


def parse_plan(text: str, shown: Mapping[str, str]) -> list[list[RepairStep]]:
    """The solutions of a plan answer, each a list of steps.

    The lines of a fenced block (``_opens_block``) are never read for plan
    lines; any other fence line is passed over, so an answer wrapped whole
    in a fence still parses. A block that follows a fix step of the first
    solution, with no plan line between, becomes that step's ``code`` when
    ``shown`` maps the step's region ref to the code the prompt showed for
    it; every other block is dropped.
    """
    solutions: list[list[RepairStep]] = []
    current: list[RepairStep] | None = None
    block: list[str] | None = None  # the lines of the open fenced block
    writable: RepairStep | None = None  # the step a block now may belong to
    after_step = False  # the last non-blank line was a step line
    for line in text.splitlines():
        if block is not None:
            if line.strip() != _FENCE:
                block.append(line)
                continue
            if writable is not None:
                writable.code = CodeBlock(shown[writable.target_region], "\n".join(block))
            block = writable = None
            after_step = False
            continue
        if not line.strip():
            continue
        if _opens_block(line, after_step):
            block = []
            continue
        after_step = False
        if _SOLUTION_RE.match(line):
            if current:
                solutions.append(current)
            current = []
            writable = None
            continue
        m = _STEP_RE.match(line)
        if not m:
            continue
        after_step = True
        agent_token, ref, instruction = m.group(1), m.group(2), m.group(3)
        try:
            agent = AgentKind(agent_token)
        except ValueError:
            matches = [a for a in AgentKind if a.value.lower() == agent_token.lower()]
            if not matches:
                writable = None
                continue
            agent = matches[0]
        if current is None:
            current = []
        step = RepairStep(agent=agent, target_region=ref, instruction=instruction)
        current.append(step)
        writable = step if not solutions and agent in FIX_AGENTS and ref in shown else None
    if current:
        solutions.append(current)
    return [s for s in solutions if s]


def fallback_solutions(features: list[CodeFeature]) -> list[list[RepairStep]]:
    """One template plan per fix agent, in the leading feature's order."""
    if not features:
        return []
    return [
        [RepairStep(agent=agent, target_region=f.ref, instruction=DEFAULT_INSTRUCTION[agent])
         for f in features]
        for agent in agent_order(features[0])
    ]


def _tried_lines(tried: Sequence[tuple[RepairSolution, "ErrorTrace"]]) -> str:
    """The prompt's section of tried solutions: each with its verdict, the
    error count it ended at against the session's baseline (the count the
    first one started from), each step's note and error count, and the
    reports left; empty when nothing was tried."""
    if not tried:
        return ""
    baseline = tried[0][1].counts[0]
    lines = ["", "", "Solutions tried so far, each with its verdict:"]
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
    *,
    provider: Provider,
    tried: Sequence[tuple[RepairSolution, "ErrorTrace"]] = (),
) -> list[RepairSolution]:
    """The next page of candidate solutions for ``features``, in the
    provider's preference order: solutions that are neither repeats of each
    other nor of a ``tried`` one, one when nothing is tried and at most
    ``PLAN_PAGE`` otherwise. A page of one solution is in the one-solution
    grammar, and sends no section of tried solutions when nothing is
    tried; a page of more numbers its solutions on from the tried ones.

    ``tried`` pairs each solution the session has tried with the trace it
    ended on; a tried seed makes the next page a follow-up of
    ``PLAN_PAGE`` that carries its verdict. A follow-up page's ``features``
    are meant to be those of the snapshot the next solution starts from.
    Tried refs are compared with the page's as they are, so they name the
    same regions only while no patch has dropped an ``unsafe`` keyword
    since they were planned. The page's ids continue after the highest
    tried id (a seeded solution is ``s00``), and ``k`` caps the highest id:
    at the cap, or when the answer holds nothing new, the page is empty.
    The prompt depends on nothing else, not on whether knowledge is
    enabled: runs on one target with one history ask the same page. Each
    solution records the prompts the page asked (``RepairSolution.prompts``).
    Requires at least one feature and k >= 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not features:
        raise ValueError("generate_solutions needs at least one feature")
    done = max((int(solution.id[1:]) for solution, _ in tried), default=0)
    count = min(PLAN_PAGE if tried else 1, k - done)
    if count < 1:
        return []
    if count == 1:
        template, numbering = "plan_first_page.txt", {}
    else:
        template, numbering = "plan_generation.txt", {"count": str(count), "first": str(done + 1)}
    prompt = fill(
        load_template(template), features=_feature_lines(features), tried=_tried_lines(tried), **numbering
    )
    shown = {f.ref: f.region.snippet for f in features}
    prompts = [prompt]
    plans = parse_plan(provider.complete(prompt), shown)
    if not plans:
        log.warning("degenerate plan output; retrying once")
        prompts.append(prompt + "\nReminder: answer only in the grammar above.")
        plans = parse_plan(provider.complete(prompts[1]), shown)
        if not plans:
            log.warning("still degenerate; falling back to template plans")
            plans = fallback_solutions(features)
    seen = {normalize_steps(solution.steps) for solution, _ in tried}
    solutions: list[RepairSolution] = []
    for steps in plans:
        key = normalize_steps(steps)
        if key in seen:
            continue
        seen.add(key)
        solutions.append(
            RepairSolution(
                id=f"s{done + len(solutions) + 1:02d}", steps=steps, prompts=tuple(prompts)
            )
        )
        if len(solutions) == count:
            break
    return solutions
