"""Runs the UB detection tool on a Rust target and parses its diagnostics.

The detection tool (Miri under cargo by default) is spawned as a subprocess
in the target's working directory; stdout and stderr are captured together
and split into diagnostic blocks. Kind classification is a fixed ordered
regex table shipped as ``data/ub_patterns.tsv`` so it can be audited and
extended without code changes.
"""
from __future__ import annotations

import hashlib
import json
import logging
import re
import subprocess
import time
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

from .errors import DetectionTimeout, NonUbCompileError, TargetRejected, ToolMissing
from .lexutil import estimate_tokens
from .process import run_group

log = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 120.0
DEFAULT_TOKEN_BUDGET = 16000
DEFAULT_COMMAND = ("cargo", "+nightly", "miri", "run")

_UB_HEADER = "error: Undefined Behavior:"
_ABORT_HEADER = "error: abnormal termination:"
_LOCATION_RE = re.compile(r"^\s*-->\s*(.+?):(\d+):(\d+)\s*$")
_TOP_ERROR_RE = re.compile(r"^error(\[[A-Z0-9]+\])?:")
_TRACKED_EXTRA = ("Cargo.toml", "Cargo.lock")
_MISSING_TOOL_RE = re.compile(
    r"no such (sub)?command|command not found|is not installed|"
    r"component .* (is )?unavailable|toolchain .* is not installed",
    re.IGNORECASE,
)


class UbKind(str, Enum):
    """Detection-tool failure taxonomy, one bucket per diagnostic family."""

    STACK_BORROW = "stack_borrow"
    UNALIGNED_POINTER = "unaligned_pointer"
    VALIDITY = "validity"
    ALLOC = "alloc"
    FUNCTION_POINTER = "function_pointer"
    PROVENANCE = "provenance"
    PANIC = "panic"
    FUNCTION_CALLS = "function_calls"
    DANGLING_POINTER = "dangling_pointer"
    BOTH_BORROW = "both_borrow"
    CONCURRENCY = "concurrency"
    DATA_RACE = "data_race"
    UNKNOWN = "unknown"


@dataclass
class TargetPackage:
    """A Rust target under repair: a root directory plus its entry sources.

    ``entry_files`` are paths relative to ``root_path``. Validation rejects
    targets whose estimated token count exceeds ``token_budget`` so oversized
    inputs fail up front rather than mid-session.
    """

    root_path: Path
    entry_files: list[str]
    token_budget: int = DEFAULT_TOKEN_BUDGET

    def __post_init__(self) -> None:
        self.root_path = Path(self.root_path)

    @classmethod
    def from_path(cls, path: Path | str, token_budget: int = DEFAULT_TOKEN_BUDGET) -> "TargetPackage":
        path = Path(path)
        if path.is_file():
            return cls(path.parent, [path.name], token_budget)
        if path.is_dir():
            entries = sorted(
                str(p.relative_to(path))
                for p in path.rglob("*.rs")
                if "target" not in p.relative_to(path).parts
            )
            return cls(path, entries, token_budget)
        raise TargetRejected(f"no such file or directory: {path}")

    def validate(self) -> None:
        if not self.entry_files:
            raise TargetRejected(f"{self.root_path}: no Rust sources found")
        total = 0
        for rel in self.entry_files:
            full = self.root_path / rel
            if not full.is_file() or full.suffix != ".rs":
                raise TargetRejected(f"entry file missing or not Rust: {full}")
            total += estimate_tokens(full.read_text(encoding="utf-8"))
        if total > self.token_budget:
            raise TargetRejected(
                f"estimated {total} tokens exceeds budget {self.token_budget}"
            )

    def read(self, rel: str) -> str:
        return (self.root_path / rel).read_text(encoding="utf-8")

    def tracked_files(self) -> list[str]:
        """Sources a working copy carries: the entry files, the Cargo
        manifest and lock file, and every other ``.rs`` file outside
        ``target/`` directories."""
        tracked = list(self.entry_files)
        root = self.root_path
        for name in _TRACKED_EXTRA:
            if (root / name).is_file():
                tracked.append(name)
        for path in root.rglob("*.rs"):
            rel = str(path.relative_to(root))
            if "target" not in path.relative_to(root).parts and rel not in tracked:
                tracked.append(rel)
        return tracked


@dataclass
class UbReport:
    """One UB diagnostic: classified kind, location, and the raw block."""

    kind: UbKind
    file: str
    line: int | None
    message: str
    raw: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "file": self.file,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class DetectionResult:
    reports: list[UbReport]
    error_count: int
    tool_exit_status: int
    wall_time: float
    raw_output: str = ""

    @property
    def clean(self) -> bool:
        return self.error_count == 0


class CaseMemo:
    """Detections and reference verdicts of one case, keyed by content.

    A bench case's knowledge run and no-knowledge run share one memo, one
    after the other; each ``fix`` invocation has its own. Only completed
    results are kept: timeouts, missing tools and compile errors run again
    every time. ``begin_run`` opens a run's account. The first time a run
    reuses a detection that another run paid for, it is charged that
    detection's recorded wall time, so the timings of the two runs stay
    comparable; reusing a detection the run made, or was already charged
    for, is free.
    """

    def __init__(self) -> None:
        self.verdicts: dict[str, bool] = {}
        self.charged_seconds = 0.0
        self._detections: dict[str, DetectionResult] = {}
        self._paid: set[str] = set()

    def begin_run(self) -> None:
        self.charged_seconds = 0.0
        self._paid = set()

    def recall(self, key: str) -> DetectionResult | None:
        result = self._detections.get(key)
        if result is not None and key not in self._paid:
            self._paid.add(key)
            self.charged_seconds += result.wall_time
        return result

    def remember(self, key: str, result: DetectionResult) -> None:
        self._detections[key] = result
        self._paid.add(key)


@dataclass
class DetectorConfig:
    """How to invoke the detection tool.

    ``command`` tokens may contain ``{file}`` (first entry file, relative)
    and ``{root}`` placeholders; the process runs with cwd at the target
    root either way.
    """

    command: Sequence[str] = DEFAULT_COMMAND
    timeout: float = DEFAULT_TIMEOUT
    env: dict[str, str] | None = None
    pattern_table: list[tuple[UbKind, re.Pattern[str]]] | None = field(
        default=None, repr=False
    )


def load_pattern_table(path: Path | None = None) -> list[tuple[UbKind, re.Pattern[str]]]:
    """Parse the ordered ``<kind>\\t<regex>`` classification table."""
    if path is None:
        text = (resources.files("ubmend") / "data/ub_patterns.tsv").read_text("utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    table: list[tuple[UbKind, re.Pattern[str]]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.rstrip()
        if not line or line.startswith("#"):
            continue
        try:
            kind_token, pattern = line.split("\t", 1)
            table.append((UbKind(kind_token.strip()), re.compile(pattern)))
        except (ValueError, re.error) as exc:
            raise ToolMissing(f"bad pattern table row {lineno}: {exc}") from exc
    return table


_DEFAULT_TABLE: list[tuple[UbKind, re.Pattern[str]]] | None = None


def _default_table() -> list[tuple[UbKind, re.Pattern[str]]]:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = load_pattern_table()
    return _DEFAULT_TABLE


def classify_kind(
    message: str, table: list[tuple[UbKind, re.Pattern[str]]] | None = None
) -> UbKind:
    """First table row whose regex matches wins; no match means Unknown."""
    for kind, pattern in table if table is not None else _default_table():
        if pattern.search(message):
            return kind
    return UbKind.UNKNOWN


def parse_diagnostics(
    raw_output: str, table: list[tuple[UbKind, re.Pattern[str]]] | None = None
) -> list[UbReport]:
    """Split combined tool output into UB blocks, one report per block.

    A block starts at an ``error: Undefined Behavior:`` header (or the
    abnormal-termination header the tool uses for panic-family failures) and
    runs until the next top-level diagnostic. Unparseable blocks degrade to
    kind=unknown rather than raising.
    """
    reports: list[UbReport] = []
    lines = raw_output.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        header = None
        if line.startswith(_UB_HEADER):
            header = _UB_HEADER
        elif line.startswith(_ABORT_HEADER):
            header = _ABORT_HEADER
        if header is None:
            i += 1
            continue
        block = [line]
        j = i + 1
        while j < len(lines) and not _TOP_ERROR_RE.match(lines[j]):
            block.append(lines[j])
            j += 1
        message = line[len(header):].strip()
        file, lineno = "", None
        for body_line in block:
            m = _LOCATION_RE.match(body_line)
            if m:
                file, lineno = m.group(1), int(m.group(2))
                break
        kind = classify_kind(message, table) if message else UbKind.UNKNOWN
        reports.append(
            UbReport(kind=kind, file=file, line=lineno, message=message, raw="\n".join(block))
        )
        i = j
    return reports


def _render_command(command: Sequence[str], target: TargetPackage) -> list[str]:
    entry = target.entry_files[0] if target.entry_files else ""
    return [
        tok.format(file=entry, root=str(target.root_path)) for tok in command
    ]


def _content_key(argv: list[str], target: TargetPackage) -> str:
    """sha256 over the argv and the (path, bytes) pairs of the tracked sources."""
    digest = hashlib.sha256(json.dumps(argv).encode())
    for rel in sorted(target.tracked_files()):
        path = target.root_path / rel
        if path.is_file():
            data = path.read_bytes()
            digest.update(json.dumps([rel, len(data)]).encode())
            digest.update(data)
    return digest.hexdigest()


def run_detection(
    target: TargetPackage,
    timeout: float | None = None,
    config: DetectorConfig | None = None,
    clock: Callable[[], float] = time.monotonic,
    memo: CaseMemo | None = None,
) -> DetectionResult:
    """Spawn the detection tool on ``target`` and parse its diagnostics.

    ``timeout`` falls back to ``config.timeout`` when not given. Raises
    ToolMissing when the tool cannot be spawned, DetectionTimeout when the
    run exceeds the timeout, and NonUbCompileError when the target fails
    ordinary compilation (error output without any UB block). With a
    ``memo``, the tool runs at most once per argv and tracked-source bytes.
    """
    config = config or DetectorConfig()
    if timeout is None:
        timeout = config.timeout
    argv = _render_command(config.command, target)
    key = ""
    if memo is not None:
        key = _content_key(argv, target)
        cached = memo.recall(key)
        if cached is not None:
            return cached
    started = clock()
    try:
        proc = run_group(
            argv,
            timeout,
            cwd=target.root_path,
            text=True,
            env=config.env,
        )
    except FileNotFoundError as exc:
        raise ToolMissing(f"detection tool not found: {argv[0]}") from exc
    except subprocess.TimeoutExpired as exc:
        raise DetectionTimeout(f"detection exceeded {timeout}s: {argv}") from exc
    wall = clock() - started
    raw = (proc.stdout or "") + (proc.stderr or "")
    if _MISSING_TOOL_RE.search(raw) and proc.returncode != 0:
        raise ToolMissing(f"detection tool unavailable: {argv}\n{raw.strip()[:500]}")
    reports = parse_diagnostics(raw, config.pattern_table)
    if proc.returncode != 0 and not reports:
        raise NonUbCompileError(
            f"target fails compilation (tool exit {proc.returncode})", raw_output=raw
        )
    if proc.returncode == 0 and reports:
        log.warning("tool exited 0 but emitted %d UB blocks; trusting blocks", len(reports))
    result = DetectionResult(
        reports=reports,
        error_count=len(reports),
        tool_exit_status=proc.returncode,
        wall_time=wall,
        raw_output=raw,
    )
    if memo is not None:
        memo.remember(key, result)
    return result
