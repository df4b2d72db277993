"""Knowledge base: AST extraction, unsafe-focused pruning, feature hashing,
and similarity search over previously successful repairs.

The parse links each node to its parent and keeps the masked source,
which pruning reads; hashing walks up the links.

The store is a line-delimited JSON file guarded by an advisory lock, so
concurrent benchmark runs on one host do not interleave writes; the
experience log shares its reader and its locked append. Vectors are
256-bucket feature hashes over node-kind bigrams plus UB-kind labels; two
structurally identical pruned trees always hash identically, which is what
makes search results reproducible. A stored vector lists only its nonzero
buckets; lines holding a dense list of all 256 entries still load, and so
do lines with the ``created`` stamp older stores carry, which is ignored.
"""
from __future__ import annotations

import fcntl
import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from .detector import UbKind, UbReport
from .errors import LexFailure, StorageFailure
from .lexutil import brace_pairs, identifiers, line_of_offset, line_span, mask_comments_and_strings

if TYPE_CHECKING:  # pragma: no cover
    from .feedback import EvalTriplet

VECTOR_DIMS = 256

_T = TypeVar("_T")

_ITEM_KEYWORDS = ("fn", "impl", "trait", "mod", "struct", "enum", "union", "match")
_LOOP_KEYWORDS = ("loop", "while", "for")


@dataclass
class AstNode:
    id: int
    kind: str
    span: tuple[int, int]
    is_unsafe: bool = False
    parent: "AstNode | None" = field(default=None, repr=False, compare=False)


@dataclass
class Ast:
    """A tree of AstNode in pre-order; nodes[0] is the file root, and a
    node's span lies inside its parent's (a top-level item's may equal the
    root's). ``masked`` is ``source`` with comments and literals masked."""

    nodes: list[AstNode]
    source: str
    masked: str


def _phrase_before(masked: str, seg_start: int, brace: int) -> int:
    """Offset where the item phrase introducing ``{`` at ``brace`` starts."""
    cut = max(
        masked.rfind(";", seg_start, brace),
        masked.rfind("{", seg_start, brace),
        masked.rfind("}", seg_start, brace),
    )
    start = seg_start if cut == -1 else cut + 1
    while start < brace and masked[start] in " \t\n":
        start += 1
    return start


def _classify_phrase(phrase: str) -> tuple[str, bool]:
    tokens = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", phrase)
    if not tokens:
        return "block", False
    # leading = qualifier on an item (unsafe fn); trailing = block expression
    # in statement or let position (let x = unsafe { .. })
    is_unsafe = tokens[0] == "unsafe" or tokens[-1] == "unsafe"
    body = [t for t in tokens if t != "unsafe"]
    if is_unsafe and not body:
        return "unsafe_block", True
    for kw in _ITEM_KEYWORDS:
        if kw in body:
            return kw, is_unsafe
    if any(kw in body for kw in _LOOP_KEYWORDS):
        return "loop", is_unsafe
    if is_unsafe and tokens[-1] == "unsafe":
        return "unsafe_block", True
    return "block", is_unsafe


def extract_ast(source: str, file: str = "<source>") -> Ast:
    """Parse ``source`` into the simplified AST: one node per braced item,
    block or loop, under the one it is nested in. ``file`` names the source
    in a LexFailure."""
    masked = mask_comments_and_strings(source)
    pairs = brace_pairs(masked)
    nodes = [AstNode(id=0, kind="file", span=(0, len(source)))]

    def scan(lo: int, hi: int, parent: AstNode) -> None:
        cursor = lo
        while cursor < hi:
            brace = masked.find("{", cursor, hi)
            if brace == -1:
                return
            if brace not in pairs:
                line = line_of_offset(source, brace)
                raise LexFailure(f"{file}:{line}: unbalanced braces from offset {brace}")
            close = pairs[brace]
            start = _phrase_before(masked, cursor, brace)
            kind, is_unsafe = _classify_phrase(masked[start:brace])
            node = AstNode(len(nodes), kind, (start, close + 1), is_unsafe, parent)
            nodes.append(node)
            scan(brace + 1, close, node)
            cursor = close + 1

    scan(0, len(source), nodes[0])
    return Ast(nodes=nodes, source=source, masked=masked)


def prune(ast: Ast, miri_errors: Iterable[UbReport] = ()) -> list[AstNode]:
    """Unsafe-focused pruning.

    Pass 1 keeps every node whose masked span contains the ``unsafe``
    keyword (head occurrences made the node ``is_unsafe`` at parse time).
    Pass 2 runs only when errors are present: a kept non-head node survives
    only if it shares an identifier with some unsafe head or its span
    overlaps an error line.
    """
    errors = list(miri_errors)
    masked = ast.masked
    kw_re = re.compile(r"\bunsafe\b")

    def contains_kw(node: AstNode) -> bool:
        return bool(kw_re.search(masked, node.span[0], node.span[1]))

    kept = [n for n in ast.nodes if contains_kw(n)]
    if errors and kept:
        heads = [n for n in kept if n.is_unsafe]
        head_idents = [identifiers(masked[h.span[0]:h.span[1]]) for h in heads]
        err_spans = [
            line_span(ast.source, e.line) for e in errors if e.line is not None
        ]

        def relevant(node: AstNode) -> bool:
            node_idents = identifiers(masked[node.span[0]:node.span[1]])
            if any(node_idents & hi for hi in head_idents):
                return True
            return any(
                es < node.span[1] and ee > node.span[0] for es, ee in err_spans
            )

        kept = [n for n in kept if n.is_unsafe or relevant(n)]
    return kept


@dataclass(init=False)
class FeatureVector:
    """A ``dims``-bucket vector kept as its nonzero entries.

    Hashed vectors fill a handful of their 256 buckets, so only those are
    stored, with the Euclidean norm computed once here.
    """

    dims: int
    nonzero: dict[int, float]
    norm: float

    def __init__(self, values: Sequence[float]) -> None:
        self.dims = len(values)
        self.nonzero = {i: float(values[i]) for i in compress(range(self.dims), values)}
        self.norm = math.sqrt(sum(v * v for v in self.nonzero.values()))

    @property
    def values(self) -> list[float]:
        """The dense entries, zeros included."""
        dense = [0.0] * self.dims
        for i, v in self.nonzero.items():
            dense[i] = v
        return dense

    @property
    def is_zero(self) -> bool:
        return self.norm == 0.0

    def to_dict(self) -> dict:
        """The stored form: the nonzero ``[bucket, value]`` pairs, ascending."""
        return {"dims": self.dims, "nz": [[i, v] for i, v in self.nonzero.items()]}

    @classmethod
    def from_dict(cls, data: dict | list) -> "FeatureVector":
        """Read the stored form, or a legacy dense list of every entry.

        Raises ValueError when the vector is not ``VECTOR_DIMS`` wide (no
        run's vector could be compared with it), a bucket is not an integer
        in ``[0, dims)`` or not above the one before, or a value is not a
        finite number (a NaN would rank every candidate at random), or is
        zero in the stored form.
        """
        dims = len(data) if isinstance(data, list) else data["dims"]
        if type(dims) is not int or dims != VECTOR_DIMS:
            raise ValueError(f"vector of {dims!r} dims, not {VECTOR_DIMS}")
        if isinstance(data, list):
            for bucket, value in enumerate(data):
                _check_finite(bucket, value)
            return cls(data)
        nonzero: dict[int, float] = {}
        last = -1
        for bucket, value in data["nz"]:
            if type(bucket) is not int or not last < bucket < dims:
                if type(bucket) is int and 0 <= bucket < dims:
                    raise ValueError(f"bucket {bucket} repeated or out of order")
                raise ValueError(f"bucket {bucket!r} is not an integer in [0, {dims})")
            _check_finite(bucket, value)
            if not value:
                raise ValueError(f"bucket {bucket} stores a zero")
            nonzero[bucket] = float(value)
            last = bucket
        vector = cls.__new__(cls)
        vector.dims, vector.nonzero = dims, nonzero
        vector.norm = math.sqrt(sum(v * v for v in nonzero.values()))
        return vector


def _check_finite(bucket: int, value: object) -> None:
    """ValueError naming ``bucket`` unless ``value`` is a finite int or float
    (a JSON ``true`` is a bool, and ``NaN`` and ``Infinity`` load as floats)."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"bucket {bucket} stores {value!r}, not a finite number")


def cosine(a: FeatureVector, b: FeatureVector) -> float:
    na, nb = a.norm, b.norm
    if na == 0.0 or nb == 0.0:
        return 0.0
    if a.dims != b.dims:
        raise ValueError(f"cosine of vectors of {a.dims} and {b.dims} dims")
    small, large = a.nonzero, b.nonzero
    if len(small) > len(large):
        small, large = large, small
    dot = 0.0
    for i, v in small.items():
        if i in large:
            dot += v * large[i]
    return dot / (na * nb)


def _bucket(feature: str) -> int:
    digest = hashlib.sha256(feature.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % VECTOR_DIMS


def hashed_features(pruned: list[AstNode], ub_kinds: Iterable[UbKind] = ()) -> list[str]:
    """The raw feature strings vectorize() hashes, exposed for tests: each
    node's ``<parent kind>><kind>`` (``^<kind>`` without one), then
    ``ub:<kind>`` per UB kind. The parent is the nearest kept ancestor."""
    kept = {n.id for n in pruned}
    feats: list[str] = []
    for n in pruned:
        parent = n.parent
        while parent is not None and parent.id not in kept:
            parent = parent.parent
        feats.append(f"{parent.kind}>{n.kind}" if parent else f"^{n.kind}")
    feats.extend(f"ub:{k.value}" for k in ub_kinds)
    return feats


def vectorize(pruned: list[AstNode], ub_kinds: Iterable[UbKind] = ()) -> FeatureVector:
    """Term-frequency feature hashing; empty input gives the zero vector
    (flagged by callers as non-searchable)."""
    values = [0.0] * VECTOR_DIMS
    for feat in hashed_features(pruned, ub_kinds):
        values[_bucket(feat)] += 1.0
    return FeatureVector(values)


def feature_vector(
    source: str, reports: Sequence[UbReport], file: str = "<source>"
) -> FeatureVector:
    """The vector a program is stored and searched under: its pruned AST
    plus each UB kind in ``reports`` counted once."""
    ast = extract_ast(source, file)
    kinds = sorted({r.kind for r in reports}, key=lambda k: k.value)
    return vectorize(prune(ast, reports), ub_kinds=kinds)


def solution_template(solution_dict: dict) -> dict:
    """Abstract a concrete solution: region references become placeholders."""
    steps = [
        {**step, "target_region": "<region>"} for step in solution_dict.get("steps", [])
    ]
    return {"steps": steps}


@dataclass
class KnowledgeEntry:
    vector: FeatureVector
    ub_kind: UbKind
    solution: dict
    triplet: "EvalTriplet"

    def to_dict(self) -> dict:
        return {
            "vector": self.vector.to_dict(),
            "ub_kind": self.ub_kind.value,
            "solution": self.solution,
            "triplet": asdict(self.triplet),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KnowledgeEntry":
        from .feedback import EvalTriplet

        return cls(
            vector=FeatureVector.from_dict(data["vector"]),
            ub_kind=UbKind(data["ub_kind"]),
            solution=data["solution"],
            triplet=EvalTriplet.from_dict(data["triplet"]),
        )


def _read_jsonl(path: Path | None, parse: Callable[[dict], _T], what: str) -> list[_T]:
    """Every non-blank line of a JSONL store, parsed; none when it is absent.

    An unreadable file raises StorageFailure naming the file, and a line
    that is not UTF-8 or does not parse one naming the file and the line.
    """
    if path is None or not path.exists():
        return []
    try:
        lines = path.read_bytes().splitlines()
    except OSError as exc:
        raise StorageFailure(f"{path}: unreadable {what} file: {exc}") from exc
    out: list[_T] = []
    for ln, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            # UnicodeDecodeError is a ValueError
            out.append(parse(json.loads(line.decode("utf-8"))))
        except (ValueError, KeyError, TypeError) as exc:
            raise StorageFailure(f"{path}:{ln}: bad {what}: {exc}") from exc
    return out


def _append_jsonl(path: Path, record: dict) -> None:
    """Append one line under an exclusive lock, flushed before the unlock;
    a file that cannot be written raises StorageFailure naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)
    except OSError as exc:
        raise StorageFailure(f"{path}: cannot append: {exc}") from exc


class KnowledgeBase:
    """Append-only JSONL store of successful repairs, searchable by cosine."""

    def __init__(self, path: Path | str | None = None) -> None:
        self.path = Path(path) if path else None
        self.entries = _read_jsonl(self.path, KnowledgeEntry.from_dict, "knowledge entry")

    def insert(self, entry: KnowledgeEntry) -> None:
        if not entry.triplet.accuracy:
            raise ValueError("only detection-clean solutions may enter the store")
        self.entries.append(entry)
        if self.path:
            _append_jsonl(self.path, entry.to_dict())

    def search(self, vector: FeatureVector, k: int = 3) -> list[tuple[float, KnowledgeEntry]]:
        """Top-k entries by cosine similarity, the later appended winning ties."""
        if vector.is_zero:
            raise ValueError("zero vectors are not searchable")
        if not self.entries:
            return []
        scored = [
            (cosine(vector, e.vector), i, e) for i, e in enumerate(self.entries)
        ]
        scored.sort(key=lambda t: (-t[0], -t[1]))
        return [(sim, entry) for sim, _, entry in scored[:k]]
