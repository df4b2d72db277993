"""Locates unsafe regions and maps them to fix strategies.

Region location is lexical plus bracket matching, not semantic analysis:
good enough for code the compiler rejects, cheap enough to re-run after
every patch. Operation classification covers the five reasons a region
needs ``unsafe`` at all. Strategy ordering puts SafeAlternative where the
safe-API catalogue's gate says, and the other two by a shipped policy
table (``data/strategy_policy.tsv``) keyed by UB kind. The table is read
once per process from that file; editing the file is how it is extended.
"""
from __future__ import annotations

import functools
import logging
import re
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from .detector import UbKind
from .errors import LexFailure, Unclassifiable
from .lexutil import brace_pairs, keyword_occurrences, line_of_offset, mask_comments_and_strings

log = logging.getLogger(__name__)


class UnsafeOpKind(str, Enum):
    RAW_POINTER_DEREF = "raw_pointer_deref"
    UNSAFE_FN_CALL = "unsafe_fn_call"
    UNSAFE_TRAIT_IMPL = "unsafe_trait_impl"
    MUTABLE_STATIC_ACCESS = "mutable_static_access"
    UNION_FIELD_ACCESS = "union_field_access"


class FixStrategy(str, Enum):
    SAFE_ALTERNATIVE = "SafeAlternative"
    ASSERTION_GUARD = "AssertionGuard"
    SEMANTIC_MODIFICATION = "SemanticModification"


@dataclass
class UnsafeRegion:
    """One top-level unsafe span in a file.

    ``byte_span`` is a half-open (start, end) offset pair into the decoded
    file text, and ``context_span`` is the pair of ``enclosing_context``
    (None for a region not found by ``locate_unsafe_regions``). Nested
    unsafe occurrences are folded into the outermost region.
    """

    file: str
    byte_span: tuple[int, int]
    snippet: str
    enclosing_context: str
    context_span: tuple[int, int] | None = None

    @property
    def start(self) -> int:
        return self.byte_span[0]

    @property
    def end(self) -> int:
        return self.byte_span[1]


@dataclass
class CodeFeature:
    """What fast thinking knows about one region: its ops and the kinds of
    the baseline reports that land in it."""

    region: UnsafeRegion
    op_kinds: frozenset[UnsafeOpKind]
    ub_kinds: frozenset[UbKind]
    ref: str = ""


# Known unsafe std APIs, each with the safe counterpart it can give way to.
# The regexes are the safe_replace agent's catalogue gate.
SAFE_API_CATALOGUE: list[re.Pattern[str]] = [
    re.compile(r"\bget_unchecked(_mut)?\s*\("),  # indexing or .get()/.get_mut()
    re.compile(r"\bfrom_utf8_unchecked\s*\("),  # str::from_utf8 with error handling
    re.compile(r"\bunwrap_unchecked\s*\("),  # .unwrap() or pattern matching
    re.compile(r"\bfrom_raw_parts(_mut)?\s*\("),  # slice borrowing or Vec ownership
    re.compile(r"\btransmute\s*(::)?"),  # From/TryFrom or to_bits/from_bits
    re.compile(r"\bset_len\s*\("),  # truncate/resize/extend
    re.compile(r"\bcopy_nonoverlapping\s*\("),  # copy_from_slice/clone_from_slice
    re.compile(r"\bas_ptr\s*\(\)|\bas_mut_ptr\s*\(\)"),  # safe indexing on the container
    re.compile(r"\bread_volatile\s*\(|\bwrite_volatile\s*\("),  # plain reads/writes
    re.compile(r"\bassume_init\s*\("),  # full initialization before use
    re.compile(r"\bstatic\s+mut\b|[A-Z][A-Z0-9_]{2,}"),  # Mutex/RwLock/atomics or OnceLock
]

_UNSAFE_API_NAMES = re.compile(
    r"\b(get_unchecked(_mut)?|from_utf8_unchecked|unwrap_unchecked|from_raw(_parts)?(_mut)?"
    r"|transmute|set_len|copy(_nonoverlapping)?|read(_volatile|_unaligned)?"
    r"|write(_volatile|_unaligned|_bytes)?|offset|byte_add|assume_init|as_ref|as_mut"
    r"|alloc|dealloc|drop_in_place|from_ptr)\s*\(",
)
_SCREAMING_IDENT = re.compile(r"\b[A-Z][A-Z0-9_]{2,}\b")
_FIELD_ACCESS = re.compile(r"\b([a-z_][a-z0-9_]*)\s*\.\s*[a-z_][a-z0-9_]*\b")
_CALL = re.compile(r"\b([a-z_][a-z0-9_]*)\s*(::<[^>]*>)?\s*\(")
_FN_NAME = re.compile(r"fn\s+(r#)?[A-Za-z_]")
_IMPL_QUALIFIER = re.compile(r"\b(unsafe|default)\Z")


def locate_unsafe_regions(source: str, file: str | Path) -> list[UnsafeRegion]:
    """Top-level unsafe spans in ``source``, in file order.

    Each region starts at the ``unsafe`` keyword and covers the item it
    introduces: a block, an fn/impl/trait with a braced body, or a bodyless
    declaration terminated by ``;``. Occurrences nested inside an earlier
    region are folded into it. The file is masked, its braces paired and
    its fn/impl items listed once per call, not once per region.
    """
    file = str(file)
    masked = mask_comments_and_strings(source)
    pairs = brace_pairs(masked)
    items = _braced_items(masked, pairs)
    regions: list[UnsafeRegion] = []
    for start in keyword_occurrences(masked, "unsafe"):
        if regions and start < regions[-1].end:
            continue
        brace = masked.find("{", start)
        semi = masked.find(";", start)
        if brace == -1 and semi == -1:
            line = line_of_offset(source, start)
            raise LexFailure(f"{file}:{line}: unterminated unsafe item at offset {start}")
        if brace != -1 and (semi == -1 or brace < semi):
            if brace not in pairs:
                line = line_of_offset(source, brace)
                raise LexFailure(f"{file}:{line}: unbalanced braces from offset {brace}")
            end = pairs[brace] + 1
        else:
            end = semi + 1
        ctx_start, ctx_end = _enclosing_item(source, items, start, end)
        regions.append(
            UnsafeRegion(
                file=file,
                byte_span=(start, end),
                snippet=source[start:end],
                enclosing_context=source[ctx_start:ctx_end],
                context_span=(ctx_start, ctx_end),
            )
        )
    return regions


def _braced_items(masked: str, pairs: dict[int, int]) -> list[tuple[int, int]]:
    """(keyword offset, end) of every fn/impl item with a closed body, in order.

    ``fn`` opens an item only when a name follows it (``[fn() -> i32; 1]``
    is a type), and ``impl`` only where an item can start (``x: impl
    Display`` is a type). The body is the first ``{`` at or after the
    keyword; an item whose body is never closed is left out.
    """
    items = []
    for kw_start in sorted(keyword_occurrences(masked, "fn") + keyword_occurrences(masked, "impl")):
        if masked.startswith("fn", kw_start):
            if not _FN_NAME.match(masked, kw_start):
                continue
        elif not _item_can_start(masked, kw_start):
            continue
        brace = masked.find("{", kw_start)
        if brace in pairs:
            items.append((kw_start, pairs[brace] + 1))
    return items


def _item_can_start(masked: str, at: int) -> bool:
    """Whether an item can start at offset ``at``: the code before it ends
    with nothing, ``;``, a brace, an attribute's ``]``, or ``unsafe`` or
    ``default`` (the qualifiers an ``impl`` takes)."""
    j = at
    while j > 0 and masked[j - 1].isspace():
        j -= 1
    return j == 0 or masked[j - 1] in ";{}]" or bool(_IMPL_QUALIFIER.search(masked, max(0, j - 8), j))


def _enclosing_item(
    source: str, items: list[tuple[int, int]], start: int, end: int
) -> tuple[int, int]:
    """Span of the last fn/impl item starting before the region and
    containing it, else of the region's own lines."""
    for k in range(bisect_left(items, (start,)) - 1, -1, -1):
        kw_start, item_end = items[k]
        if end <= item_end:
            return kw_start, item_end
    line_start = source.rfind("\n", 0, start) + 1
    ctx_end = source.find("\n", min(len(source), end))
    ctx_end = len(source) if ctx_end == -1 else ctx_end
    return line_start, ctx_end


def _is_unary_star(masked: str, idx: int) -> bool:
    j = idx - 1
    while j >= 0 and masked[j] in " \t\n":
        j -= 1
    if j < 0:
        return True
    prev = masked[j]
    if prev in "=({[,;&|!<>+-*/%":
        return True
    # keyword immediately before the star (return *p, in *p, etc.)
    word = re.search(r"([A-Za-z_][A-Za-z0-9_]*)$", masked[: j + 1])
    return bool(word and word.group(1) in {"return", "in", "as", "match", "if", "while"})


def classify_ops(region: UnsafeRegion) -> frozenset[UnsafeOpKind]:
    """The unsafe-operation kinds a region exhibits, lexically determined.

    Raises Unclassifiable when no pattern matches; callers treat that as a
    semantic-modification-first region rather than a crash.
    """
    masked = mask_comments_and_strings(region.snippet)
    context = region.enclosing_context
    found: set[UnsafeOpKind] = set()

    if re.match(r"\s*unsafe\s+impl\b", masked) or re.match(r"\s*unsafe\s+trait\b", masked):
        found.add(UnsafeOpKind.UNSAFE_TRAIT_IMPL)
    for m in re.finditer(r"\*", masked):
        if _is_unary_star(masked, m.start()):
            after = masked[m.end():m.end() + 48]
            if re.match(r"\s*(const\b|mut\b)", after):
                continue  # raw-pointer type, not a deref
            if re.match(r"\s*[A-Za-z_(]", after):
                found.add(UnsafeOpKind.RAW_POINTER_DEREF)
                break
    if _UNSAFE_API_NAMES.search(masked):
        found.add(UnsafeOpKind.UNSAFE_FN_CALL)
    else:
        for m in _CALL.finditer(masked):
            if re.search(rf"unsafe\s+fn\s+{re.escape(m.group(1))}\b", context) or re.search(
                rf"\bextern\b[^;{{]*fn\s+{re.escape(m.group(1))}\b", context
            ):
                found.add(UnsafeOpKind.UNSAFE_FN_CALL)
                break
    if re.match(r"\s*unsafe\s+fn\b", masked) and re.search(r"\bextern\b", masked):
        found.add(UnsafeOpKind.UNSAFE_FN_CALL)
    for m in _SCREAMING_IDENT.finditer(masked):
        name = m.group(0)
        if re.search(rf"static\s+mut\s+{name}\b", context) or re.search(
            rf"static\s+mut\s+{name}\b", masked
        ):
            found.add(UnsafeOpKind.MUTABLE_STATIC_ACCESS)
            break
    if _FIELD_ACCESS.search(masked) and re.search(r"\bunion\b", context + masked):
        found.add(UnsafeOpKind.UNION_FIELD_ACCESS)

    if not found:
        raise Unclassifiable(f"{region.file}: no unsafe-operation pattern matched")
    return frozenset(found)


def has_safe_api_match(snippet: str) -> bool:
    """True when the catalogue knows a safe counterpart for this region."""
    return any(pattern.search(snippet) for pattern in SAFE_API_CATALOGUE)


def gate_safe_alternative(order: list[FixStrategy], snippet: str) -> list[FixStrategy]:
    """``order`` with SafeAlternative first when the catalogue knows a safe
    counterpart for ``snippet``, else last: without one the safe_replace
    agent refuses before asking the model, so a plan led by it cannot act."""
    rest = [s for s in order if s is not FixStrategy.SAFE_ALTERNATIVE]
    if has_safe_api_match(snippet):
        return [FixStrategy.SAFE_ALTERNATIVE, *rest]
    return [*rest, FixStrategy.SAFE_ALTERNATIVE]


@functools.cache
def load_policy_table() -> dict[str, list[FixStrategy]]:
    """Parse the ``<ub_kind>\\t<strategy,strategy,strategy>`` policy table;
    read once per process from the shipped ``data/strategy_policy.tsv``."""
    text = (resources.files("ubmend") / "data/strategy_policy.tsv").read_text("utf-8")
    table: dict[str, list[FixStrategy]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.rstrip()
        if not line or line.startswith("#"):
            continue
        key, _, order = line.partition("\t")
        strategies = [FixStrategy(tok.strip()) for tok in order.split(",")]
        if sorted(s.value for s in strategies) != sorted(s.value for s in FixStrategy):
            raise ValueError(f"policy row {lineno} must permute all three strategies")
        table[key.strip()] = strategies
    if "default" not in table:
        raise ValueError("policy table needs a 'default' row")
    return table


def map_strategies(feature: CodeFeature) -> list[FixStrategy]:
    """Ordered permutation of all three strategies for one feature.

    The catalogue gate places SafeAlternative (``gate_safe_alternative``);
    the policy rows order the other two, merged for several UB kinds by the
    sum of each strategy's positions, SafeAlternative's slot included.
    """
    policy = load_policy_table()
    kinds = sorted(k.value for k in feature.ub_kinds)
    if not kinds:
        order = list(policy["default"])
    else:
        rank: dict[FixStrategy, int] = {s: 0 for s in FixStrategy}
        for kind in kinds:
            row = policy.get(kind, policy["default"])
            for pos, strategy in enumerate(row):
                rank[strategy] += pos
        default_pos = {s: i for i, s in enumerate(policy["default"])}
        order = sorted(FixStrategy, key=lambda s: (rank[s], default_pos[s]))
    return gate_safe_alternative(order, feature.region.snippet)
