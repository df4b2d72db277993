"""Runs the UB detection tool on a Rust target and parses its diagnostics.

The detection tool (Miri under cargo by default) is spawned as a subprocess
in the target's working directory; stdout and stderr are captured together
and split into diagnostic blocks. A detection is its list of UB reports,
one per block, empty when the target is clean. Kind classification is a
fixed ordered regex table shipped as ``data/ub_patterns.tsv``, read once
per process, so it can be audited and extended by editing that file,
without code changes.
"""
from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import re
import shlex
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

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
_TOOL_ENV = ("MIRIFLAGS", "RUSTFLAGS", "RUSTUP_TOOLCHAIN")
_ROOT_TOKEN = "{root}"
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

    ``entry_files`` are paths relative to ``root_path``; ``tracked_files``
    lists its sources once, when it is opened. Validation rejects targets
    whose estimated token count exceeds ``DEFAULT_TOKEN_BUDGET`` so
    oversized inputs fail up front rather than mid-session.
    """

    root_path: Path
    entry_files: list[str]

    def __post_init__(self) -> None:
        self.root_path = Path(self.root_path)

    @classmethod
    def from_path(cls, path: Path | str) -> "TargetPackage":
        path = Path(path)
        if path.is_file():
            return cls(path.parent, [path.name])
        if path.is_dir():
            # one walk: a directory's entry files are the Rust sources it lists
            target = cls(path, [])
            target.entry_files = [rel for rel in target.tracked_files if rel.endswith(".rs")]
            return target
        raise TargetRejected(f"no such file or directory: {path}")

    def validate(self) -> None:
        """TargetRejected unless every entry file is a Rust source, every
        tracked file (``tracked_files``) is readable UTF-8 text, and the
        entry files together fit ``DEFAULT_TOKEN_BUDGET``."""
        if not self.entry_files:
            raise TargetRejected(f"{self.root_path}: no Rust sources found")
        entries = set(self.entry_files)
        total = 0
        for rel in self.tracked_files:
            full = self.root_path / rel
            if rel in entries and (not full.is_file() or full.suffix != ".rs"):
                raise TargetRejected(f"entry file missing or not Rust: {full}")
            try:
                text = full.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                raise TargetRejected(f"{full}: not UTF-8 text") from None
            except OSError as exc:
                raise TargetRejected(f"{full}: unreadable: {exc.strerror or exc}") from None
            if rel in entries:
                total += estimate_tokens(text)
        if total > DEFAULT_TOKEN_BUDGET:
            raise TargetRejected(
                f"estimated {total} tokens exceeds budget {DEFAULT_TOKEN_BUDGET}"
            )

    def read(self, rel: str) -> str:
        return (self.root_path / rel).read_text(encoding="utf-8")

    @functools.cached_property
    def tracked_files(self) -> list[str]:
        """Sources a working copy carries, sorted: the entry files, the Cargo
        manifest and lock file, and every other ``.rs`` file outside
        ``target/`` directories. Listed once, on first use (``from_path`` or
        ``validate``, as the target is opened): a file written into the tree
        later, such as the ``Cargo.lock`` cargo adds, is never a source."""
        extras = [name for name in _TRACKED_EXTRA if (self.root_path / name).is_file()]
        return sorted({*self.entry_files, *extras, *_rust_sources(self.root_path)})


def _rust_sources(root: Path) -> Iterator[str]:
    """The ``.rs`` files under ``root``, relative to it; the walk never
    enters a ``target/`` directory, where build output lives."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [name for name in dirnames if name != "target"]
        for name in filenames:
            if name.endswith(".rs"):
                yield os.path.relpath(os.path.join(dirpath, name), root)


@dataclass
class UbReport:
    """One UB diagnostic: classified kind, location and message."""

    kind: UbKind
    file: str
    line: int | None
    message: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "file": self.file,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class MemoEntry:
    """A completed result as a case memo keeps it: the ``tool_result``
    fields it is stored as (or would be), the time it took in the run's
    clock units, and, for a model answer only, the prompt text it answers
    and the tokens its model call took (0 when it made none)."""

    fields: Mapping[str, object]
    wall_time: float
    prompt: str | None
    tokens: int = 0


class AnswerPool:
    """Fetched model answers by key, shared by the case memos of one bench;
    a ``fix`` and a bare ``CaseMemo`` have a private pool.

    Single-flight: each key has a lock, held by the caller that fetches
    its answer, so a caller that takes the key meanwhile waits and gets
    that answer; different keys never wait on each other. Only completed
    answers are kept: a fetch that raises lets the next waiter fetch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._answers: dict[str, MemoEntry] = {}
        self._key_locks: dict[str, threading.Lock] = {}

    def take(self, key: str, fetch: Callable[[], MemoEntry]) -> tuple[MemoEntry, bool]:
        """The answer pooled under ``key``, fetched with ``fetch`` when no
        caller has, and whether this call fetched it."""
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            if key in self._answers:
                return self._answers[key], False
            entry = self._answers[key] = fetch()
            return entry, True


class CaseMemo:
    """Detections, reference verdicts and model answers of one case, keyed
    by content, each kept as one ``MemoEntry``.

    A bench case's knowledge run and no-knowledge run share one memo, one
    after the other; each ``fix`` invocation has its own. The memos of one
    bench share one ``pool`` of fetched answers, so each distinct prompt of
    a bench reaches the model once. An entry has one key, that of the
    experience-log line it is stored as: a detection's covers its argv and
    output with the target root written as ``{root}`` (plus tool identity
    and tracked-source bytes), so any copy of the same bytes reads it with
    its own root put back; an answer's is ``<mode>:<hash>``
    (``MemoizedProvider.key``). Answers are listed, with their prompts, in
    the order first kept (``answers``): the case's transcript. Only
    completed results are kept: timeouts, missing tools, compile errors and
    failed model calls run again every time.

    ``recall`` is the one lookup: the memo, then ``stored``, the
    ``tool_result`` lines of the experience log by key. ``begin_run`` opens
    a run's account: the first time a run reuses a result another run paid
    for, it is charged that result's ``wall_time``, so the timings of the
    two runs stay comparable. A store hit counts in ``store_hits`` and costs
    nothing. An answer neither holds comes from ``fetch_answer``, which
    books its tokens in ``charged_tokens``, the run's one account of them;
    one another case fetched is also charged its wall time, so a case's
    figures do not depend on which case asked first. ``keep`` is the one
    way in: it lists each detection and verdict in ``new_results``, for the
    caller to append to the log, at once; an answer only through
    ``keep_answer``, which the caller calls for the plan pages and thoughts
    of a repair that passed, so a sampled model still explores wherever no
    verified repair exists.
    """

    def __init__(
        self, stored: Mapping[str, dict] | None = None, pool: AnswerPool | None = None
    ) -> None:
        self.charged_seconds = 0.0
        self.charged_tokens = 0
        self.stored: Mapping[str, dict] = stored if stored is not None else {}
        self.pool = pool if pool is not None else AnswerPool()
        self.store_hits = {"detections": 0, "reference_verdicts": 0, "answers": 0}
        self.new_results: dict[str, Mapping[str, object]] = {}
        self._entries: dict[str, MemoEntry] = {}
        self._paid: set[str] = set()
        self._tools: dict[str, str] = {}

    def begin_run(self) -> None:
        self.charged_seconds = 0.0
        self.charged_tokens = 0
        self._paid = set()

    def recall(self, key: str, prompt: str | None = None) -> MemoEntry | None:
        """The entry kept under ``key``, else the stored line under ``key``,
        kept as an entry for ``prompt`` that took no time and counted in
        ``store_hits`` under its kind (``_line_kind``); None when neither
        holds it. A lookup with a prompt takes only an answer line and one
        without only a detection or verdict line; those two are told apart
        by their keys, sha256 digests of different payloads."""
        entry = self._entries.get(key)
        if entry is not None:
            if key not in self._paid:
                self._paid.add(key)
                self.charged_seconds += entry.wall_time
            return entry
        line = self.stored.get(key)
        if line is None or ("answer" in line) != (prompt is not None):
            return None
        self.store_hits[_line_kind(line)] += 1
        entry = self._entries[key] = MemoEntry(line, 0.0, prompt)
        self._paid.add(key)
        return entry

    def fetch_answer(self, key: str, fetch: Callable[[], MemoEntry]) -> MemoEntry:
        """Keep the answer ``pool`` holds under ``key``, fetched with
        ``fetch`` when no case has, and book its tokens; one another case
        fetched is also charged its wall time."""
        entry, fetched = self.pool.take(key, fetch)
        if not fetched:
            self.charged_seconds += entry.wall_time
        self.charged_tokens += entry.tokens
        self.keep(key, entry)
        return entry

    def keep(self, key: str, entry: MemoEntry) -> None:
        """Keep a result completed in this run; a detection or verdict is
        listed in ``new_results`` at once."""
        self._entries[key] = entry
        self._paid.add(key)
        if entry.prompt is None:
            self.new_results[key] = entry.fields

    def answers(self) -> list[tuple[str, MemoEntry]]:
        """Every model answer kept, fetched or read from the store, with its
        key, in the order first kept."""
        return [(key, e) for key, e in self._entries.items() if e.prompt is not None]

    def keep_answer(self, key: str) -> None:
        """List the answer kept under ``key`` in ``new_results``."""
        self.new_results[key] = self._entries[key].fields

    def tool(self, command: Sequence[str]) -> str:
        """``tool_identity`` of a command, computed once per memo."""
        probe = json.dumps(list(command))
        if probe not in self._tools:
            self._tools[probe] = tool_identity(command)
        return self._tools[probe]


def _line_kind(fields: Mapping[str, object]) -> str:
    """The ``store_hits`` key of a ``tool_result`` line's fields (its key
    left out): exactly a string ``answer``, a bool ``verdict``, or an int
    ``exit_status`` and a string ``output``. ValueError for any other
    shape."""
    if "answer" in fields:
        if set(fields) != {"answer"} or not isinstance(fields["answer"], str):
            raise ValueError("tool_result answer is not exactly a string key and a string answer")
        return "answers"
    if set(fields) == {"verdict"} and isinstance(fields["verdict"], bool):
        return "reference_verdicts"
    if (
        set(fields) == {"exit_status", "output"}
        and type(fields["exit_status"]) is int
        and isinstance(fields["output"], str)
    ):
        return "detections"
    raise ValueError("tool_result is neither a detection (exit_status, output) nor a verdict")


@dataclass
class DetectorConfig:
    """How to invoke the detection tool.

    ``command`` tokens may contain ``{file}`` (first entry file, relative)
    and ``{root}`` placeholders; the process runs with cwd at the target
    root either way.
    """

    command: Sequence[str] = DEFAULT_COMMAND
    timeout: float = DEFAULT_TIMEOUT


@functools.cache
def load_pattern_table() -> list[tuple[UbKind, re.Pattern[str]]]:
    """Parse the ordered ``<kind>\\t<regex>`` classification table; read
    once per process from the shipped ``data/ub_patterns.tsv``."""
    text = (resources.files("ubmend") / "data/ub_patterns.tsv").read_text("utf-8")
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


def classify_kind(message: str) -> UbKind:
    """First table row whose regex matches wins; no match means Unknown."""
    for kind, pattern in load_pattern_table():
        if pattern.search(message):
            return kind
    return UbKind.UNKNOWN


def parse_diagnostics(raw_output: str) -> list[UbReport]:
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
        j = i + 1
        while j < len(lines) and not _TOP_ERROR_RE.match(lines[j]):
            j += 1
        message = line[len(header):].strip()
        file, lineno = "", None
        for body_line in lines[i:j]:
            m = _LOCATION_RE.match(body_line)
            if m:
                file, lineno = m.group(1), int(m.group(2))
                break
        kind = classify_kind(message) if message else UbKind.UNKNOWN
        reports.append(UbReport(kind=kind, file=file, line=lineno, message=message))
        i = j
    return reports


def render_command(command: Sequence[str], entry: str, root: str) -> list[str]:
    """``command`` with ``{file}`` set to ``entry`` and ``{root}`` to ``root``."""
    return [tok.format(file=entry, root=root) for tok in command]


def tool_identity(command: Sequence[str]) -> str:
    """sha256 naming the tool ``command`` runs, as far as files and the
    environment show it.

    It covers the realpath, size and ``st_mtime_ns`` of the program (after a
    PATH lookup) and of every other absolute path in ``command``, and
    ``MIRIFLAGS``, ``RUSTFLAGS`` and ``RUSTUP_TOOLCHAIN``. Tokens with
    ``{file}``/``{root}`` placeholders are left out; the content key holds
    them, ``{file}`` rendered. A toolchain updated behind an unchanged proxy
    (rustup's ``cargo``) is not seen.
    """
    files: list = []
    for i, token in enumerate(map(str, command)):
        if "{" in token:
            continue
        if i == 0:
            token = shutil.which(token) or token
        elif not os.path.isabs(token):
            continue
        try:
            real = os.path.realpath(token)
            st = os.stat(real)
            files.append([token, real, st.st_size, st.st_mtime_ns])
        except OSError:
            files.append([token, None])
    # the empty list keeps the key format of existing stores, written when
    # a tool could be given an environment of its own
    payload = [files, [], [os.environ.get(name) for name in _TOOL_ENV]]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _content_key(argv: list[str], tool: str, target: TargetPackage) -> str:
    """sha256 over the argv, the tool identity and the (path, bytes) pairs of
    the sources the target was opened with (``tracked_files``)."""
    digest = hashlib.sha256(json.dumps([argv, tool]).encode())
    for rel in target.tracked_files:
        path = target.root_path / rel
        if path.is_file():
            data = path.read_bytes()
            digest.update(json.dumps([rel, len(data)]).encode())
            digest.update(data)
    return digest.hexdigest()


def run_detection(
    target: TargetPackage,
    *,
    config: DetectorConfig,
    clock: Callable[[], float] = time.monotonic,
    memo: CaseMemo,
) -> list[UbReport]:
    """Spawn the detection tool on ``target`` and return its UB reports.

    Raises ToolMissing when the tool cannot be spawned, DetectionTimeout
    when the run exceeds ``config.timeout``, and NonUbCompileError when the
    target fails ordinary compilation (error output without any UB block).
    Through ``memo``, which ``cli`` makes for the run, the tool runs at most
    once per argv, tool identity and tracked-source bytes, and not at all
    when the memo's store holds them. The memo keys the argv, and keeps
    the output, with the target root written as ``{root}``; a reused run,
    made in this copy or another or read from the store, is read as a fresh
    one is, with this copy's root put back. An output that already holds
    the text ``{root}`` could not be read back, so that run is not kept.
    """
    root = str(target.root_path)
    entry = target.entry_files[0] if target.entry_files else ""
    argv = render_command(config.command, entry, root)
    keyed = render_command(config.command, entry, _ROOT_TOKEN)
    key = _content_key(keyed, memo.tool(config.command), target)
    known = memo.recall(key)
    if known is not None:
        output = known.fields["output"].replace(_ROOT_TOKEN, root)
        return _read_output(argv, root, known.fields["exit_status"], output)
    started = clock()
    try:
        # Miri passes the program's stdout through, which may be any bytes
        proc = run_group(argv, config.timeout, cwd=target.root_path, encoding="utf-8", errors="replace")
    except FileNotFoundError as exc:
        raise ToolMissing(f"detection tool not found: {argv[0]}") from exc
    except subprocess.TimeoutExpired as exc:
        raise DetectionTimeout(f"detection exceeded {config.timeout}s: {argv}") from exc
    wall = clock() - started
    raw = (proc.stdout or "") + (proc.stderr or "")
    reports = _read_output(argv, root, proc.returncode, raw)
    if _ROOT_TOKEN not in raw:
        fields = {"exit_status": proc.returncode, "output": raw.replace(root, _ROOT_TOKEN)}
        memo.keep(key, MemoEntry(fields, wall, None))
    return reports


def _read_output(argv: list[str], root: str, status: int, raw: str) -> list[UbReport]:
    """A finished tool run's UB reports, from its exit status and output; a
    run read back from the store goes through here as a fresh one does. A
    non-zero exit without a UB block blames the tool when the output says
    it is missing; the program's own output, which Miri passes through, may
    say so too, so an output with a UB block never does. Else it blames the
    target when the output holds a top-level ``error:`` line, else the
    command, which it shows; the message carries the head of the output,
    with the working copy's ``root`` written as ``{root}`` so it reads the
    same in every run."""
    reports = parse_diagnostics(raw)
    if status != 0 and not reports:
        if _MISSING_TOOL_RE.search(raw):
            raise ToolMissing(f"detection tool unavailable: {argv}\n{raw.strip()[:500]}")
        shown = raw.replace(root, _ROOT_TOKEN).strip()[:500]
        if any(_TOP_ERROR_RE.match(line) for line in raw.splitlines()):
            raise NonUbCompileError(f"target fails compilation (tool exit {status})\n{shown}")
        command = shlex.join(argv).replace(root, _ROOT_TOKEN)
        why = f"detection command exited {status} with no UB report and no compiler error: {command}"
        raise NonUbCompileError(f"{why}\n{shown}")
    if status == 0 and reports:
        log.warning("tool exited 0 but emitted %d UB blocks; trusting blocks", len(reports))
    return reports
