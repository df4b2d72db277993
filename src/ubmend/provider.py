"""Language-model backends: replay, scripted mock, and live HTTP.

Every call goes through a PromptRecord whose stable hash keys transcript
recording and replay. Replay mode performs no network traffic at all, which
is what makes end-to-end runs reproducible byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import (
    HttpFailure,
    ProviderFailure,
    ReplayMiss,
    StorageFailure,
    TokenOverflow,
)
from .lexutil import estimate_tokens

if TYPE_CHECKING:  # pragma: no cover
    from .detector import CaseMemo

API_KEY_ENV = "RUSTBRAIN_API_KEY"
API_BASE_ENV = "RUSTBRAIN_API_BASE"

# Phrases the shipped prompt templates open with; the scripted mock keys its
# behavior off them so it stays in sync with data/prompts/*.txt.
MARKER_AST = "Produce a simplified syntax tree"
MARKER_FEATURES = "Summarize the purpose of this unsafe region"
MARKER_PLAN = "Propose repair plans"
MARKER_FIX = "Return the full revised region in one fenced code block."

_FENCE_RE = re.compile(r"```(?:rust)?\n(.*?)```", re.DOTALL)
_UB_DIRECTIVE = "//~UB"
GUARD_MARKER = "//~GUARD"
_GUARD_LINE = f"debug_assert!(true); {GUARD_MARKER}"


class ProviderMode(str, Enum):
    REPLAY = "replay"
    SCRIPTED_MOCK = "mock"
    LIVE_HTTP = "live"


@dataclass
class ProviderConfig:
    mode: ProviderMode = ProviderMode.SCRIPTED_MOCK
    model_name: str = "gpt-4"
    temperature: float = 0.5
    max_tokens: int = 16000
    transcript_path: Path | None = None

    def validate(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ProviderFailure(f"temperature {self.temperature} outside [0, 2]")
        if self.max_tokens < 1:
            raise ProviderFailure("max_tokens must be positive")
        if self.mode is ProviderMode.REPLAY:
            if not self.transcript_path or not Path(self.transcript_path).is_file():
                raise ProviderFailure(
                    f"replay mode needs an existing transcript, got {self.transcript_path}"
                )


@dataclass
class PromptRecord:
    """Role-tagged message list, hashed after whitespace normalization."""

    messages: list[dict[str, str]]

    def normalized(self) -> list[dict[str, str]]:
        return [
            {
                "role": m["role"],
                "content": m["content"].replace("\r\n", "\n").rstrip(),
            }
            for m in self.messages
        ]

    def stable_hash(self, model_name: str, temperature: float) -> str:
        payload = json.dumps(
            {
                "model": model_name,
                "temperature": temperature,
                "messages": [[m["role"], m["content"]] for m in self.normalized()],
            },
            sort_keys=True,
            ensure_ascii=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def text(self) -> str:
        return "\n".join(m["content"] for m in self.messages)

    @classmethod
    def user(cls, content: str) -> "PromptRecord":
        return cls(messages=[{"role": "user", "content": content}])


class Provider:
    """Base backend: subclasses implement ``_complete``."""

    def __init__(self, config: ProviderConfig) -> None:
        config.validate()
        self.config = config
        self._lock = threading.Lock()
        self.calls = 0
        self.tokens_used = 0

    def complete(self, prompt: PromptRecord) -> str:
        response = self._complete(prompt)
        with self._lock:
            self.calls += 1
            self.tokens_used += estimate_tokens(prompt.text()) + estimate_tokens(response)
        return response

    def _complete(self, prompt: PromptRecord) -> str:
        raise NotImplementedError

    def hash_of(self, prompt: PromptRecord) -> str:
        return prompt.stable_hash(self.config.model_name, self.config.temperature)


@dataclass(frozen=True)
class Answer:
    """A model answer as a case memo keeps it: the text and the time the
    call took, in the run's clock units."""

    text: str
    wall_time: float


class MemoizedProvider:
    """A run's provider seen through its case memo.

    A prompt whose transcript hash the case has asked before is answered
    from the memo and never reaches ``inner``; any other prompt goes to
    ``inner`` and its answer is kept. This is deliberately not a
    ``Provider``: a fetched answer passes through ``Provider.complete``
    once, in ``inner``, where calls and tokens are counted, and a reused
    answer not at all. ``timer`` times each fetch in the run's clock units.
    """

    def __init__(self, inner: Provider, memo: "CaseMemo", timer: Callable[[], float]) -> None:
        self.inner = inner
        self.memo = memo
        self.timer = timer

    @property
    def tokens_used(self) -> int:
        return self.inner.tokens_used

    def complete(self, prompt: PromptRecord) -> str:
        key = self.inner.hash_of(prompt)
        answer = self.memo.recall(key)
        if answer is None:
            started = self.timer()
            text = self.inner.complete(prompt)
            answer = Answer(text, self.timer() - started)
            self.memo.remember(key, answer)
        return answer.text


def load_transcript(path: Path | str) -> dict[str, str]:
    """hash -> response mapping from a JSONL transcript."""
    table: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            table[entry["hash"]] = entry["response"]
        except (json.JSONDecodeError, KeyError) as exc:
            raise StorageFailure(f"bad transcript line in {path}: {exc}") from exc
    return table


class ReplayProvider(Provider):
    """Answers only from a recorded transcript; never touches the network."""

    def __init__(self, config: ProviderConfig) -> None:
        super().__init__(config)
        self._table = load_transcript(config.transcript_path)

    def _complete(self, prompt: PromptRecord) -> str:
        key = self.hash_of(prompt)
        try:
            return self._table[key]
        except KeyError:
            head = prompt.text().splitlines()[0] if prompt.text() else ""
            raise ReplayMiss(f"no transcript entry for {key[:12]}… ({head[:80]})") from None


ScriptRule = tuple[str, "str | Callable[[str], str]"]


class ScriptedMockProvider(Provider):
    """Deterministic offline double: template-driven answers from the prompt.

    Custom ``rules`` (substring -> response) win over the defaults, which
    cover the shipped templates: plans in the STEP grammar, fix responses
    that echo the snippet with a scripted edit applied, one-line feature
    summaries, and rendered syntax trees.
    """

    def __init__(self, config: ProviderConfig, rules: Iterable[ScriptRule] = ()) -> None:
        super().__init__(config)
        self.rules = list(rules)

    def _complete(self, prompt: PromptRecord) -> str:
        text = prompt.text()
        for needle, response in self.rules:
            if needle in text:
                return response(text) if callable(response) else response
        if MARKER_PLAN in text:
            return self._plan(text)
        if MARKER_FIX in text:
            return self._fix(text)
        if MARKER_FEATURES in text:
            return self._summary(text)
        if MARKER_AST in text:
            return self._ast(text)
        return "OK"

    @staticmethod
    def _snippet(text: str) -> str:
        m = _FENCE_RE.search(text)
        if not m:
            raise ProviderFailure("mock expected a fenced snippet in the prompt")
        return m.group(1)

    def _summary(self, text: str) -> str:
        snippet = self._snippet(text)
        first = next(
            (ln.strip() for ln in snippet.splitlines() if ln.strip() and _UB_DIRECTIVE not in ln),
            "unsafe code",
        )
        return f"Region intent: {first[:100]}"

    def _plan(self, text: str) -> str:
        features = re.findall(
            r"^FEATURE (\S+) :: strategies=(\S+) ::", text, flags=re.MULTILINE
        )
        m = re.search(r"solutions requested: (\d+)", text)
        k = int(m.group(1)) if m else 10
        kb_on = "knowledge: on" in text
        canned = {
            "SafeAlternative": ("SafeReplace", "replace the unsafe operation with the catalogued safe API"),
            "AssertionGuard": ("AddAssertion", "insert guard assertions before each risky operation"),
            "SemanticModification": ("ModifySemantics", "rewrite the region to remove the undefined behavior"),
        }
        out: list[str] = []
        for i in range(k):
            rot = i % 3
            with_reason = kb_on and (i // 3) % 2 == 1
            out.append(f"SOLUTION {i + 1}:")
            step_no = 1
            for ref, strategies in features:
                order = strategies.split(",")
                strategy = order[rot % len(order)]
                agent, instruction = canned[strategy]
                if with_reason and step_no == 1:
                    out.append(f"STEP {step_no}: Reason {ref} :: consult prior fixes for similar regions")
                    step_no += 1
                out.append(f"STEP {step_no}: {agent} {ref} :: {instruction}")
                step_no += 1
        return "\n".join(out)

    def _fix(self, text: str) -> str:
        snippet = self._snippet(text)
        if "Strategy: SafeAlternative" in text:
            edited = self._safe_edit(snippet)
            if edited is None:
                return "NO SAFE EQUIVALENT"
        elif "Strategy: AssertionGuard" in text:
            edited = self._guard_edit(snippet)
        else:
            edited = "\n".join(
                ln for ln in snippet.splitlines() if _UB_DIRECTIVE not in ln
            )
        return f"Scripted edit applied.\n\n```rust\n{edited}\n```"

    def _safe_edit(self, snippet: str) -> str | None:
        base = "\n".join(ln for ln in snippet.splitlines() if _UB_DIRECTIVE not in ln)
        edited = re.sub(r"\*\s*(\w+)\.get_unchecked\(([^)]*)\)", r"\1[\2]", base)
        edited = re.sub(r"\*\s*(\w+)\.get_unchecked_mut\(([^)]*)\)", r"\1[\2]", edited)
        edited = re.sub(
            r"(std::str::|str::)?from_utf8_unchecked\(([^)]*)\)",
            r"std::str::from_utf8(\2).unwrap()",
            edited,
        )
        edited = re.sub(r"\.unwrap_unchecked\(\)", ".unwrap()", edited)
        edited = re.sub(r"\bunsafe\s*\{", "{", edited, count=1)
        if edited == base:
            return None  # nothing catalogued to rewrite; abstain
        return edited

    def _guard_edit(self, snippet: str) -> str:
        lines = snippet.splitlines()
        out: list[str] = []
        guarded = False
        for ln in lines:
            if _UB_DIRECTIVE in ln:
                indent = ln[: len(ln) - len(ln.lstrip())]
                out.append(f"{indent}{_GUARD_LINE}")
                guarded = True
            out.append(ln)
        if not guarded and lines:
            for idx, ln in enumerate(out):
                if "{" in ln:
                    indent = ln[: len(ln) - len(ln.lstrip())] + "    "
                    out.insert(idx + 1, f"{indent}{_GUARD_LINE}")
                    break
        return "\n".join(out)

    def _ast(self, text: str) -> str:
        from . import kb  # local import; kb never imports this at module load

        # the prompt fence appends one newline beyond the real source
        source = self._snippet(text)
        if source.endswith("\n"):
            source = source[:-1]
        return kb.render_tree(kb.extract_ast(source, mode=kb.AstMode.LOCAL_PARSER))


class LiveHttpProvider(Provider):
    """OpenAI-compatible chat-completions backend.

    Base URL and key come from the environment; up to two retries on
    transport errors or 5xx.
    """

    RETRIES = 2

    def __init__(self, config: ProviderConfig) -> None:
        super().__init__(config)
        self.api_base = os.environ.get(API_BASE_ENV, "https://api.openai.com/v1")
        self.api_key = os.environ.get(API_KEY_ENV, "")
        if not self.api_key:
            raise ProviderFailure(f"{API_KEY_ENV} is not set")

    def _complete(self, prompt: PromptRecord) -> str:
        import requests

        if estimate_tokens(prompt.text()) > self.config.max_tokens:
            raise TokenOverflow(
                f"prompt estimate exceeds max_tokens={self.config.max_tokens}"
            )
        payload = {
            "model": self.config.model_name,
            "temperature": self.config.temperature,
            "messages": prompt.normalized(),
        }
        url = self.api_base.rstrip("/") + "/chat/completions"
        last: Exception | None = None
        for attempt in range(self.RETRIES + 1):
            try:
                resp = requests.post(
                    url,
                    json=payload,
                    headers={"Authorization": f"Bearer {self.api_key}"},
                    timeout=120,
                )
                if resp.status_code >= 500:
                    raise HttpFailure(f"server error {resp.status_code}")
                if resp.status_code != 200:
                    raise HttpFailure(f"HTTP {resp.status_code}: {resp.text[:300]}")
                return resp.json()["choices"][0]["message"]["content"]
            except HttpFailure as exc:
                last = exc
                if "server error" not in str(exc):
                    raise
            except requests.RequestException as exc:
                last = exc
            if attempt < self.RETRIES:
                time.sleep(0.5 * (attempt + 1))
        raise HttpFailure(f"live backend failed after retries: {last}")


@dataclass
class TranscriptEntry:
    hash: str
    prompt: PromptRecord
    response: str
    model: str
    temperature: float

    def to_dict(self) -> dict:
        return {
            "hash": self.hash,
            "prompt": {"messages": self.prompt.normalized()},
            "response": self.response,
            "model": self.model,
            "temperature": self.temperature,
        }


class TranscriptRecorder(Provider):
    """Wraps another provider and records every exchange for later replay.

    Calls and tokens are counted here, once per exchange; the wrapped
    provider's own counters stay untouched.
    """

    def __init__(self, inner: Provider) -> None:
        super().__init__(inner.config)
        self.inner = inner
        self.entries: dict[str, TranscriptEntry] = {}  # in recording order

    def _complete(self, prompt: PromptRecord) -> str:
        response = self.inner._complete(prompt)
        key = self.hash_of(prompt)
        with self._lock:
            seen = self.entries.get(key)
            if seen is None:
                self.entries[key] = TranscriptEntry(
                    hash=key,
                    prompt=prompt,
                    response=response,
                    model=self.config.model_name,
                    temperature=self.config.temperature,
                )
            elif seen.response != response:
                raise StorageFailure(
                    f"conflicting responses for prompt hash {key[:12]}…"
                )
        return response

    def write(self, path: Path | str) -> None:
        write_transcript(path, self.entries.values())


def write_transcript(path: Path | str, entries: Iterable[TranscriptEntry]) -> None:
    """Write entries as transcript JSONL, replacing ``path`` atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
    tmp.replace(path)


def create_provider(
    config: ProviderConfig, rules: Iterable[ScriptRule] = ()
) -> Provider:
    if config.mode is ProviderMode.REPLAY:
        return ReplayProvider(config)
    if config.mode is ProviderMode.SCRIPTED_MOCK:
        return ScriptedMockProvider(config, rules=rules)
    return LiveHttpProvider(config)
