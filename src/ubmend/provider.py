"""Language-model backends: replay, scripted mock, and live HTTP.

A prompt is its text, asked as one user message. The live request, the
transcript line and the hash take it normalised (``prompt_messages``). Its
hash (``prompt_hash``), after the provider mode, keys the case memo's
answers; the transcript written from them (``transcript_entries``) and
replay use the bare hash. Replay mode performs no network traffic at all,
which is what makes end-to-end runs reproducible byte for byte.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

from .detector import CaseMemo, MemoEntry
from .errors import HttpFailure, ProviderFailure, ReplayMiss, StorageFailure, TokenOverflow
from .kb import _read_jsonl
from .lexutil import estimate_tokens

API_KEY_ENV = "RUSTBRAIN_API_KEY"
API_BASE_ENV = "RUSTBRAIN_API_BASE"
# the live backend refuses a prompt estimated above this many tokens
MAX_PROMPT_TOKENS = 16000

# Phrases the shipped prompt templates hold; the scripted mock keys its
# behavior off them so it stays in sync with data/prompts/*.txt.
MARKER_PLAN = "Propose repair plans"
MARKER_FIX = "Return the full revised region in one fenced code block."

FENCE_RE = re.compile(r"```(?:rust)?\n(.*?)```", re.DOTALL)
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
    transcript_path: Path | None = None

    def validate(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ProviderFailure(f"temperature {self.temperature} outside [0, 2]")
        if self.mode is ProviderMode.REPLAY:
            if not self.transcript_path or not Path(self.transcript_path).is_file():
                raise ProviderFailure(
                    f"replay mode needs an existing transcript, got {self.transcript_path}"
                )


def prompt_messages(prompt: str) -> list[dict[str, str]]:
    """The chat messages ``prompt`` is sent, recorded and hashed as: one
    user message, with CRLF as LF and trailing whitespace stripped."""
    return [{"role": "user", "content": prompt.replace("\r\n", "\n").rstrip()}]


def prompt_hash(prompt: str, model_name: str, temperature: float) -> str:
    """The transcript hash of ``prompt`` answered by ``model_name`` at
    ``temperature``: sha256 of the three, its messages normalised."""
    payload = json.dumps(
        {
            "model": model_name,
            "temperature": temperature,
            "messages": [[m["role"], m["content"]] for m in prompt_messages(prompt)],
        },
        sort_keys=True,
        ensure_ascii=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def answer_tokens(prompt: str, response: str) -> int:
    """The tokens a model call costs: its prompt's and its response's."""
    return estimate_tokens(prompt) + estimate_tokens(response)


class Provider:
    """Base backend: subclasses implement ``_complete``."""

    def __init__(self, config: ProviderConfig) -> None:
        config.validate()
        self.config = config
        self._lock = threading.Lock()
        self.calls = 0
        self.tokens_used = 0

    def complete(self, prompt: str) -> str:
        response = self._complete(prompt)
        with self._lock:
            self.calls += 1
            self.tokens_used += answer_tokens(prompt, response)
        return response

    def _complete(self, prompt: str) -> str:
        raise NotImplementedError

    def hash_of(self, prompt: str) -> str:
        return prompt_hash(prompt, self.config.model_name, self.config.temperature)


class MemoizedProvider:
    """A run's provider seen through its case memo.

    An answer has one key (``key``) in the memo, its pool and the log. A
    prompt the case has asked before is answered from the memo, and one
    whose verified answer the memo's store holds from the store; neither
    reaches ``inner``. Any other prompt is answered from the memo's answer
    pool, which a bench shares among its cases: the first case to ask it
    fetches the answer from ``inner``, and every other case takes that
    answer; either way the memo books its tokens, and is the run's one
    account of them (``CaseMemo.fetch_answer``). This is deliberately not a
    ``Provider``: a fetched answer passes through ``Provider.complete``
    once, in ``inner``, where calls and tokens are counted, and a reused,
    pooled or stored answer not at all. ``timer`` times each fetch in the
    run's clock units; a stored answer takes no time.
    """

    def __init__(self, inner: Provider, memo: CaseMemo, timer: Callable[[], float]) -> None:
        self.inner = inner
        self.memo = memo
        self.timer = timer

    def key(self, prompt: str) -> str:
        """The key of the answer to ``prompt``: the provider mode and the
        transcript hash, so an answer a mock gave never answers a live or
        replay run."""
        return f"{self.inner.config.mode.value}:{self.inner.hash_of(prompt)}"

    def recall(self, prompt: str) -> str | None:
        """The answer the memo or its store holds for ``prompt``, else None."""
        entry = self.memo.recall(self.key(prompt), prompt)
        return None if entry is None else entry.fields["answer"]

    def complete(self, prompt: str) -> str:
        key = self.key(prompt)
        entry = self.memo.recall(key, prompt)
        return (entry or self.memo.fetch_answer(key, lambda: self._fetch(prompt))).fields["answer"]

    def _fetch(self, prompt: str) -> MemoEntry:
        started = self.timer()
        answer = self.inner.complete(prompt)
        tokens = answer_tokens(prompt, answer)
        return MemoEntry({"answer": answer}, self.timer() - started, prompt, tokens)

    def stand_in(self, prompt: str, answer: str) -> None:
        """Keep ``answer``, written without asking ``prompt``, as the
        prompt's answer: one that took no time and no tokens."""
        self.memo.keep(self.key(prompt), MemoEntry({"answer": answer}, 0.0, prompt))

    def keep(self, prompt: str) -> None:
        """List the answer the case got for ``prompt`` in the memo's
        ``new_results``, for the caller to append to the log: a plan page or
        an agent answer that led to a verified repair (``cli.repair_one``)."""
        self.memo.keep_answer(self.key(prompt))


def _transcript_line(entry: dict) -> tuple[str, str]:
    if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in ("hash", "response")):
        raise TypeError("not an object with a string hash and response")
    return entry["hash"], entry["response"]


def load_transcript(path: Path | str) -> dict[str, str]:
    """hash -> response mapping from a JSONL transcript.

    An unreadable file, or a line that is not an object with a string
    ``hash`` and ``response``, raises StorageFailure naming the file and
    the line.
    """
    return dict(_read_jsonl(Path(path), _transcript_line, "transcript entry"))


class ReplayProvider(Provider):
    """Answers only from a recorded transcript; never touches the network.

    ``table`` is the transcript already loaded, for runs that share one;
    without it the provider loads ``config.transcript_path``.
    """

    def __init__(self, config: ProviderConfig, table: dict[str, str] | None = None) -> None:
        super().__init__(config)
        self._table = load_transcript(config.transcript_path) if table is None else table

    def _complete(self, prompt: str) -> str:
        key = self.hash_of(prompt)
        try:
            return self._table[key]
        except KeyError:
            head = prompt.splitlines()[0] if prompt else ""
            raise ReplayMiss(f"no transcript entry for {key[:12]}… ({head[:80]})") from None


ScriptRule = tuple[str, "str | Callable[[str], str]"]


class ScriptedMockProvider(Provider):
    """Deterministic offline double: template-driven answers from the prompt.

    Custom ``rules`` (substring -> response) win over the defaults, which
    cover the shipped templates: plans in the STEP grammar, rotating through
    each region's agents (a follow-up page goes on after the highest
    solution id its prompt lists as tried), and fix responses that echo the snippet with a
    scripted edit applied. A plan's first solution carries, after each fix
    step, the code of the mock's own answer to that step's fix prompt.
    """

    def __init__(self, config: ProviderConfig, rules: Iterable[ScriptRule] = ()) -> None:
        super().__init__(config)
        self.rules = list(rules)

    def _complete(self, prompt: str) -> str:
        return self._answer(prompt)

    def _answer(self, text: str) -> str:
        for needle, response in self.rules:
            if needle in text:
                return response(text) if callable(response) else response
        if MARKER_PLAN in text:
            return self._plan(text)
        if MARKER_FIX in text:
            return self._fix(text)
        return "OK"

    @staticmethod
    def _snippet(text: str) -> str:
        m = FENCE_RE.search(text)
        if not m:
            raise ProviderFailure("mock expected a fenced snippet in the prompt")
        return m.group(1)

    def _plan(self, text: str) -> str:
        """The solutions after the highest ``TRIED s<NN>`` id of the prompt,
        as many as its request sentence asks for, of one rotation: the i-th
        (from 0) takes each region's ``i % 3``-th agent, and every second
        group of three (solutions 4-6, 10-12, ...) opens with a Reason step.
        ``SOLUTION <i>:`` lines open the solutions only when the prompt's
        grammar has them. The prompt does not say whether knowledge is on;
        a run without a knowledge base passes over the Reason step. Each
        fix step of the first solution is followed by the code block of
        ``_step_code``, when it gives one. ProviderFailure when the request
        names no count."""
        features = re.findall(
            r"^FEATURE (\S+) :: agents=(\S+) :: ub=(\S+) :: \S+\n```rust\n(.*?)\n```$",
            text,
            flags=re.MULTILINE | re.DOTALL,
        )
        # fast imports this module
        from .fast import DEFAULT_INSTRUCTION, AgentKind

        m = re.search(r"Produce\s+(?:one solution|up to (\d+) solutions)", text)
        if m is None:
            raise ProviderFailure("mock plan prompt requests no count of solutions")
        k = int(m.group(1) or 1)
        first = max(map(int, re.findall(r"^TRIED s(\d+):", text, flags=re.MULTILINE)), default=0)
        numbered = "SOLUTION <i>:" in text
        out: list[str] = []
        for i in range(first, first + k):
            rot = i % 3
            with_reason = (i // 3) % 2 == 1
            if numbered:
                out.append(f"SOLUTION {i + 1}:")
            step_no = 1
            for ref, agents, ub, snippet in features:
                order = agents.split(",")
                agent = AgentKind(order[rot % len(order)])
                if with_reason and step_no == 1:
                    out.append(f"STEP {step_no}: Reason {ref} :: consult prior fixes for similar regions")
                    step_no += 1
                instruction = DEFAULT_INSTRUCTION[agent]
                out.append(f"STEP {step_no}: {agent.value} {ref} :: {instruction}")
                step_no += 1
                code = self._step_code(agent, ref, ub, snippet, instruction) if i == first else None
                if code is not None:
                    out.append(f"```rust\n{code}\n```")
        return "\n".join(out)

    def _step_code(self, agent, ref: str, ub: str, snippet: str, instruction: str) -> str | None:
        """The code of the mock's answer, rules included, to the fix prompt
        of ``agent`` for the region ``ref`` that the plan prompt shows as
        ``snippet`` with UB kinds ``ub``; None when that answer abstains or
        holds no code. The plan prompt shows no context, so the region
        stands in for it."""
        # agents imports this module
        from .agents import _ABSTENTION, build_prompt
        from .classifier import UnsafeRegion
        from .detector import UbKind

        kinds = frozenset(UbKind(k) for k in ub.split(",") if k != "unknown")
        region = UnsafeRegion(ref, (0, len(snippet)), snippet, snippet)
        answer = self._answer(build_prompt(agent, region, kinds, instruction))
        m = FENCE_RE.search(answer)
        if m is None or any(marker in answer for marker, _ in _ABSTENTION.values()):
            return None
        return m.group(1).rstrip("\n")

    def _fix(self, text: str) -> str:
        """The agent's answer, told apart by the abstention marker its
        template holds: SafeReplace and AddAssertion have one each,
        ModifySemantics none."""
        # agents imports this module
        from .agents import _ABSTENTION
        from .fast import AgentKind

        no_safe, _ = _ABSTENTION[AgentKind.SAFE_REPLACE]
        no_guard, _ = _ABSTENTION[AgentKind.ADD_ASSERTION]
        snippet = self._snippet(text)
        if no_safe in text:
            edited = self._safe_edit(snippet)
            if edited is None:
                return no_safe
        elif no_guard in text:
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


class LiveHttpProvider(Provider):
    """OpenAI-compatible chat-completions backend.

    Base URL and key come from the environment; up to two retries on
    transport errors or 5xx. A 200 whose body is not JSON with a string
    ``choices[0].message.content`` is an ``HttpFailure``, not retried.
    """

    RETRIES = 2

    def __init__(self, config: ProviderConfig) -> None:
        super().__init__(config)
        self.api_base = os.environ.get(API_BASE_ENV, "https://api.openai.com/v1")
        self.api_key = os.environ.get(API_KEY_ENV, "")
        if not self.api_key:
            raise ProviderFailure(f"{API_KEY_ENV} is not set")

    def _complete(self, prompt: str) -> str:
        import requests

        if estimate_tokens(prompt) > MAX_PROMPT_TOKENS:
            raise TokenOverflow(f"prompt estimate exceeds {MAX_PROMPT_TOKENS} tokens")
        payload = {
            "model": self.config.model_name,
            "temperature": self.config.temperature,
            "messages": prompt_messages(prompt),
        }
        url = self.api_base.rstrip("/") + "/chat/completions"
        last: Exception | str | None = None
        for attempt in range(self.RETRIES + 1):
            try:
                resp = requests.post(
                    url,
                    json=payload,
                    headers={"Authorization": f"Bearer {self.api_key}"},
                    timeout=120,
                )
            except requests.RequestException as exc:
                last = exc
            else:
                if resp.status_code < 500:
                    if resp.status_code != 200:
                        raise HttpFailure(f"HTTP {resp.status_code}: {resp.text[:300]}")
                    return _content(resp)
                last = f"server error {resp.status_code}"
            if attempt < self.RETRIES:
                time.sleep(0.5 * (attempt + 1))
        raise HttpFailure(f"live backend failed after retries: {last}")


def _content(resp) -> str:
    """The answer in a chat-completions response body; HttpFailure naming
    the status and the body's head when it holds none."""
    try:
        content = resp.json()["choices"][0]["message"]["content"]
    except (ValueError, LookupError, TypeError):
        content = None
    if not isinstance(content, str):
        raise HttpFailure(
            f"HTTP {resp.status_code} body has no string choices[0].message.content: {resp.text[:300]}"
        )
    return content


def transcript_entries(memo: CaseMemo, config: ProviderConfig) -> list[dict]:
    """Every answer ``memo`` holds, fetched or read from the store, as a
    transcript line of ``config``'s model, in the order the memo kept them:
    its bare ``hash`` (the memo key without its mode), its prompt's
    normalised ``messages``, its ``response``, ``model`` and ``temperature``.
    A transcript written from them replays the case on its own."""
    return [
        {
            "hash": key.partition(":")[2],
            "prompt": {"messages": prompt_messages(entry.prompt)},
            "response": entry.fields["answer"],
            "model": config.model_name,
            "temperature": config.temperature,
        }
        for key, entry in memo.answers()
    ]


def write_transcript(path: Path | str, entries: Iterable[dict]) -> None:
    """Write transcript lines as JSONL, replacing ``path`` atomically; a
    path that cannot be written raises StorageFailure naming it, and leaves
    no temporary file behind."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        tmp.replace(path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise StorageFailure(f"{path}: cannot write transcript: {exc}") from exc


def create_provider(config: ProviderConfig) -> Provider:
    if config.mode is ProviderMode.REPLAY:
        return ReplayProvider(config)
    if config.mode is ProviderMode.SCRIPTED_MOCK:
        return ScriptedMockProvider(config)
    return LiveHttpProvider(config)
