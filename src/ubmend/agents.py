"""The three fix agents: safe replacement, assertion guard, semantic change.

Each agent asks through ``_propose``: its prompt for the region and the
region's UB kinds, its abstention marker, and the patch from the first
fenced code block (the full revised region). An agent adds only its own
gate and its own check, which also decides whether the code a plan wrote
(``written``) may stand in for the model's answer. Patches record both
sides of the edit so apply/revert round-trips are byte-exact.
"""
from __future__ import annotations

import difflib
import logging
import re
from dataclasses import dataclass, field

from .classifier import AgentKind, UnsafeRegion, has_safe_api_match
from .detector import UbKind
from .errors import AgentFailure, NoGuardExpressible, NoSafeEquivalent, ProviderFailure
from .prompts import fill, load_template
from .provider import FENCE_RE, Provider

log = logging.getLogger(__name__)

_GUARD_RE = re.compile(
    r"^\s*(assert|debug_assert|if\b|return\b|let\b.*=.*(len|align_offset|is_null))"
)
# blank, comment and attribute lines, allowed only beside a guard
_GUARD_FILLER_RE = re.compile(r"^\s*($|//|#)")

_TEMPLATE_FOR_AGENT = {
    AgentKind.SAFE_REPLACE: "safe_replace.txt",
    AgentKind.ADD_ASSERTION: "add_assertion.txt",
    AgentKind.MODIFY_SEMANTICS: "modify_semantics.txt",
}
# where the region stood in its context, which the prompt shows apart
_REGION_MARK = "/* the region above */"
_WHOLE_ITEM = "(the region above is the whole enclosing item)"
# the answer text by which an agent's provider abstains, and what it raises
_ABSTENTION = {
    AgentKind.SAFE_REPLACE: ("NO SAFE EQUIVALENT", NoSafeEquivalent),
    AgentKind.ADD_ASSERTION: ("NO GUARD EXPRESSIBLE", NoGuardExpressible),
}


@dataclass
class PatchRecord:
    """One applied edit: region span plus before/after text, and the
    ``prompt`` whose answer made it, so that a verified repair's answers
    can be kept."""

    file: str
    before_span: tuple[int, int]
    before_text: str
    after_text: str
    agent: AgentKind
    rationale: str = ""
    prompt: str | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "before_span": list(self.before_span),
            "before_text": self.before_text,
            "after_text": self.after_text,
            "agent": self.agent.value,
            "rationale": self.rationale,
        }


def apply_patch(patch: PatchRecord, workspace) -> None:
    """Replace the span in the working copy; the span must still match."""
    text = workspace.read(patch.file)
    start, end = patch.before_span
    if text[start:end] != patch.before_text:
        raise AgentFailure(f"{patch.file}: region drifted; patch does not apply")
    workspace.write(patch.file, text[:start] + patch.after_text + text[end:])


def revert_patch(patch: PatchRecord, workspace) -> None:
    """Undo apply_patch; the patched span must still match after_text."""
    text = workspace.read(patch.file)
    start = patch.before_span[0]
    end = start + len(patch.after_text)
    if text[start:end] != patch.after_text:
        raise AgentFailure(f"{patch.file}: cannot revert, region drifted")
    workspace.write(patch.file, text[:start] + patch.before_text + text[end:])


def _context_around(region: UnsafeRegion) -> str:
    """The region's enclosing context with the region itself, which the
    prompt shows above it, cut down to ``_REGION_MARK``; one line when the
    context is the region alone. A context whose span does not hold the
    snippet is kept whole."""
    ctx = region.enclosing_context
    if region.context_span is None:
        return ctx
    start = region.start - region.context_span[0]
    end = region.end - region.context_span[0]
    if start < 0 or ctx[start:end] != region.snippet:
        return ctx
    before, after = ctx[:start], ctx[end:]
    if not (before.strip() or after.strip()):
        return _WHOLE_ITEM
    return before + _REGION_MARK + after


def build_prompt(
    agent: AgentKind,
    region: UnsafeRegion,
    ub_kinds: frozenset[UbKind],
    instruction: str = "",
    knowledge: str | None = None,
) -> str:
    """The agent's prompt: the plan step's instruction on its own line, the
    region once, the code around it, and a knowledge section only when a
    Reason step found prior fixes."""
    errors = "\n".join(f"- {k.value}" for k in sorted(ub_kinds, key=lambda k: k.value))
    ctx = _context_around(region)
    if knowledge:
        ctx += f"\n\nKnowledge from previous repairs:\n{knowledge}"
    return fill(
        load_template(_TEMPLATE_FOR_AGENT[agent]),
        instruction=instruction or "(none)",
        errors=errors or "(unclassified)",
        snippet=region.snippet,
        context=ctx,
    )


def insert_only_diff(before: str, after: str) -> list[str] | None:
    """Inserted lines if ``after`` is ``before`` plus insertions, else None."""
    matcher = difflib.SequenceMatcher(
        a=before.splitlines(), b=after.splitlines(), autojunk=False
    )
    inserted: list[str] = []
    for op, _, _, b1, b2 in matcher.get_opcodes():
        if op == "equal":
            continue
        if op != "insert":
            return None
        inserted.extend(matcher.b[b1:b2])
    return inserted


def _check_reduces_unsafe(region: UnsafeRegion, after: str) -> None:
    """safe_replace's check: the answer removes or shrinks the unsafe region."""
    before_unsafe = region.snippet.count("unsafe")
    if after.count("unsafe") >= before_unsafe and before_unsafe:
        raise NoSafeEquivalent(f"{region.file}: answer does not reduce the unsafe region")


def _check_guards_only(region: UnsafeRegion, after: str) -> None:
    """add_assertion's check: the answer is the region plus inserted lines,
    at least one a guard and the rest guards, blanks, comments or attributes."""
    inserted = insert_only_diff(region.snippet, after)
    if inserted is None:
        raise NoGuardExpressible(f"{region.file}: answer rewrites the unsafe expression")
    for line in inserted:
        if not (_GUARD_RE.match(line) or _GUARD_FILLER_RE.match(line)):
            raise NoGuardExpressible(f"{region.file}: inserted line is not a guard: {line!r}")
    if not any(_GUARD_RE.match(line) for line in inserted):
        raise NoGuardExpressible(f"{region.file}: answer inserts no guard")


_CHECKS = {
    AgentKind.SAFE_REPLACE: _check_reduces_unsafe,
    AgentKind.ADD_ASSERTION: _check_guards_only,
}


def _propose(
    agent: AgentKind,
    region: UnsafeRegion,
    ub_kinds: frozenset[UbKind],
    provider: Provider,
    instruction: str,
    knowledge: str | None,
    written: str | None,
) -> PatchRecord:
    """Patch ``region`` with the first fenced block of the answer to the
    agent's prompt, the line before it being the rationale, once the agent's
    check (``_CHECKS``) passes. With no answer in the memo, ``written`` that
    passes is kept as the answer at no cost; refused, the model is asked."""
    prompt = build_prompt(agent, region, ub_kinds, instruction, knowledge)

    def patch_of(answer: str) -> PatchRecord:
        if agent in _ABSTENTION:
            marker, abstain = _ABSTENTION[agent]
            if marker in answer:
                raise abstain(f"{region.file}: provider abstained")
        m = FENCE_RE.search(answer)
        if not m:
            raise ProviderFailure("response contains no fenced code block")
        after = m.group(1).rstrip("\n")
        if agent in _CHECKS:
            _CHECKS[agent](region, after)
        rationale = answer[: m.start()].strip().splitlines()
        return PatchRecord(
            file=region.file,
            before_span=region.byte_span,
            before_text=region.snippet,
            after_text=after,
            agent=agent,
            rationale=rationale[0] if rationale else "",
            prompt=prompt,
        )

    if written is not None and provider.recall(prompt) is None:
        try:
            patch = patch_of(written)
        except (AgentFailure, ProviderFailure) as exc:
            log.info("%s refused the plan's code (%s); asking it", agent.value, exc)
        else:
            provider.stand_in(prompt, written)
            return patch
    return patch_of(provider.complete(prompt))


def safe_replace(
    region: UnsafeRegion,
    ub_kinds: frozenset[UbKind],
    provider: Provider,
    instruction: str = "",
    knowledge: str | None = None,
    written: str | None = None,
) -> PatchRecord:
    """Swap the unsafe operation for a catalogued safe equivalent.

    Abstains (NoSafeEquivalent) when the catalogue has nothing for this
    region, when the provider says so, or when the answer fails to remove
    or shrink the unsafe region.
    """
    if not has_safe_api_match(region.snippet):
        raise NoSafeEquivalent(f"{region.file}: no catalogued equivalent")
    return _propose(AgentKind.SAFE_REPLACE, region, ub_kinds, provider, instruction, knowledge, written)


def add_assertion(
    region: UnsafeRegion,
    ub_kinds: frozenset[UbKind],
    provider: Provider,
    instruction: str = "",
    knowledge: str | None = None,
    written: str | None = None,
) -> PatchRecord:
    """Prepend guard checks; the original unsafe expression must survive.
    The structural check (``_check_guards_only``, NoGuardExpressible when it
    fails) is what keeps this agent honest."""
    return _propose(AgentKind.ADD_ASSERTION, region, ub_kinds, provider, instruction, knowledge, written)


def modify_semantics(
    region: UnsafeRegion,
    ub_kinds: frozenset[UbKind],
    provider: Provider,
    instruction: str = "",
    knowledge: str | None = None,
    written: str | None = None,
) -> PatchRecord:
    """Free-form rewrite of the region; the least constrained agent."""
    return _propose(AgentKind.MODIFY_SEMANTICS, region, ub_kinds, provider, instruction, knowledge, written)


AGENT_FUNCTIONS = {
    AgentKind.SAFE_REPLACE: safe_replace,
    AgentKind.ADD_ASSERTION: add_assertion,
    AgentKind.MODIFY_SEMANTICS: modify_semantics,
}
