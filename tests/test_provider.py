"""Provider backends: hashing, recording, replay, and the scripted mock."""

from __future__ import annotations

import json
import os
import re
import socket
import sys
import threading
from types import SimpleNamespace

import pytest

from ubmend import detector
from ubmend.detector import AnswerPool, CaseMemo, MemoEntry
from ubmend.errors import ProviderFailure, ReplayMiss, StorageFailure
from ubmend.fast import parse_plan
from ubmend.provider import (
    MemoizedProvider,
    Provider,
    ProviderConfig,
    ProviderMode,
    ReplayProvider,
    ScriptedMockProvider,
    create_provider,
    load_transcript,
    prompt_hash,
    prompt_messages,
    transcript_entries,
    write_transcript,
)


def _mock(**kw) -> ScriptedMockProvider:
    return ScriptedMockProvider(ProviderConfig(**kw))


def _recording(inner: Provider) -> tuple[MemoizedProvider, CaseMemo]:
    """``inner`` seen through a fresh case memo, whose answers are the
    transcript."""
    memo = CaseMemo()
    return MemoizedProvider(inner, memo, timer=lambda: 0.0), memo


def _write(memo: CaseMemo, inner: Provider, path) -> None:
    write_transcript(path, transcript_entries(memo, inner.config))


def test_a_transcript_that_cannot_replace_its_path_leaves_no_temporary_file(tmp_path):
    # a directory in the way: the temporary file is written, the rename fails
    (tmp_path / "transcript.jsonl").mkdir()
    with pytest.raises(StorageFailure, match="transcript.jsonl: cannot write transcript"):
        write_transcript(tmp_path / "transcript.jsonl", [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["transcript.jsonl"]


def test_stable_hash_normalizes_whitespace():
    a = "line one\r\nline two   \n"
    b = "line one\nline two"
    assert prompt_messages(a) == prompt_messages(b) == [{"role": "user", "content": b}]
    # the bytes every stored answer key and transcript hash holds
    digest = "7a7a9e47a668d4dafef00a63220e0d4246e0a8ad3dbe112ac3632be3bf1979f3"
    assert prompt_hash(a, "m", 0.5) == prompt_hash(b, "m", 0.5) == digest


def test_stable_hash_sensitive_to_inputs():
    p = "same body"
    base = prompt_hash(p, "m", 0.5)
    assert prompt_hash(p, "other-model", 0.5) != base
    assert prompt_hash(p, "m", 0.7) != base
    assert prompt_hash("different body", "m", 0.5) != base


def test_provider_accounting_thread_safe_counters():
    provider = _mock()
    before = provider.tokens_used
    out = provider.complete("anything")
    assert out
    assert provider.calls == 1
    assert provider.tokens_used > before


def test_config_validation():
    with pytest.raises(ProviderFailure):
        ProviderConfig(temperature=3.0).validate()
    with pytest.raises(ProviderFailure):
        ProviderConfig(mode=ProviderMode.REPLAY, transcript_path=None).validate()


def test_record_write_replay_round_trip(tmp_path):
    inner = _mock()
    recorder, memo = _recording(inner)
    prompts = [f"prompt {i}" for i in range(3)]
    answers = [recorder.complete(p) for p in prompts]
    # repeats do not add entries
    recorder.complete(prompts[0])
    out = tmp_path / "t.jsonl"
    _write(memo, inner, out)

    table = load_transcript(out)
    assert len(table) == 3

    replay = ReplayProvider(
        ProviderConfig(mode=ProviderMode.REPLAY, transcript_path=out)
    )
    assert [replay.complete(p) for p in prompts] == answers


def test_replay_miss_is_specific(tmp_path):
    out = tmp_path / "t.jsonl"
    inner = _mock()
    rec, memo = _recording(inner)
    rec.complete("known")
    _write(memo, inner, out)
    replay = ReplayProvider(ProviderConfig(mode=ProviderMode.REPLAY, transcript_path=out))
    with pytest.raises(ReplayMiss):
        replay.complete("never recorded")


def test_memoized_provider_asks_each_prompt_once_per_case():
    class Flaky(Provider):
        """Fails its first call, then answers with a call counter."""

        def __init__(self):
            super().__init__(ProviderConfig())
            self.n = 0

        def _complete(self, prompt):
            self.n += 1
            if self.n == 1:
                raise ProviderFailure("transport error")
            return f"answer {self.n}"

    inner, memo, ticks = Flaky(), CaseMemo(), iter([0.0, 10.0, 12.5])
    asked = MemoizedProvider(inner, memo, timer=lambda: next(ticks))
    with pytest.raises(ProviderFailure):  # a failed call is not kept
        asked.complete("p")
    assert asked.complete("p") == "answer 2"
    assert asked.complete("p\n") == "answer 2"  # same hash
    assert (inner.calls, memo.charged_tokens) == (1, inner.tokens_used)
    assert memo.charged_seconds == 0.0  # the run's own answer is free
    memo.begin_run()
    again = MemoizedProvider(inner, memo, timer=lambda: 0.0)
    assert again.complete("p") == "answer 2"
    assert again.complete("p") == "answer 2"
    assert inner.calls == 1
    assert memo.charged_seconds == 2.5  # the fetch's recorded time, once per run
    assert again.complete("q") == "answer 3"


class _Watched:
    """A lock that sets ``waiting`` when a thread has to wait to acquire it."""

    waiting: threading.Event

    def __init__(self):
        self._lock = threading.Lock()

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self.waiting.set()
            self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()


def _held_fetch(answer, started: threading.Event, release: threading.Event, fetched: list):
    """A fetch that notes itself in ``fetched``, sets ``started``, then
    holds until ``release`` is set; an exception ``answer`` is raised."""

    def fetch():
        fetched.append(answer)
        started.set()
        assert release.wait(10)
        if isinstance(answer, Exception):
            raise answer
        return MemoEntry({"answer": answer}, 1.5, None, 7)

    return fetch


def _in_thread(work) -> tuple[threading.Thread, list]:
    out: list = []
    thread = threading.Thread(target=lambda: out.append(_outcome(work)))
    thread.start()
    return thread, out


def _join(*threads: threading.Thread) -> None:
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()


def _outcome(work):
    try:
        return work()
    except ProviderFailure as exc:
        return exc


@pytest.fixture
def watched(monkeypatch):
    """Set once a thread waits on an answer pool's lock: a key's, while
    another caller fetches its answer."""
    waiting = threading.Event()
    monkeypatch.setattr(_Watched, "waiting", waiting, raising=False)
    monkeypatch.setattr(detector, "threading", SimpleNamespace(Lock=_Watched))
    return waiting


def test_two_threads_asking_one_hash_share_one_fetch(watched):
    pool, started, release, fetched = AnswerPool(), threading.Event(), threading.Event(), []
    first, got_first = _in_thread(lambda: pool.take("h", _held_fetch("a", started, release, fetched)))
    assert started.wait(10)
    second, got_second = _in_thread(lambda: pool.take("h", _held_fetch("b", started, release, fetched)))
    assert watched.wait(10)  # the second thread waits for the first one's fetch
    release.set()
    _join(first, second)
    (entry, by_first), (same, by_second) = got_first[0], got_second[0]
    assert fetched == ["a"] and same is entry and (by_first, by_second) == (True, False)


def test_a_fetch_that_raises_is_not_pooled_and_its_waiter_fetches_for_itself(watched):
    pool, started, release, fetched = AnswerPool(), threading.Event(), threading.Event(), []
    failing = _held_fetch(ProviderFailure("transport error"), started, release, fetched)
    first, got_first = _in_thread(lambda: pool.take("h", failing))
    assert started.wait(10)
    second, got_second = _in_thread(lambda: pool.take("h", _held_fetch("b", threading.Event(), release, fetched)))
    assert watched.wait(10)
    release.set()
    _join(first, second)
    assert isinstance(got_first[0], ProviderFailure)
    entry, by_second = got_second[0]
    assert entry.fields == {"answer": "b"} and by_second
    assert len(fetched) == 2
    assert pool.take("h", lambda: pytest.fail("the answer is pooled")) == (entry, False)


def test_of_several_waiters_behind_a_fetch_that_raises_one_fetches_and_the_rest_take_its_answer(watched):
    pool, started, release, fetched = AnswerPool(), threading.Event(), threading.Event(), []
    failing = _held_fetch(ProviderFailure("transport error"), started, release, fetched)
    first, got_first = _in_thread(lambda: pool.take("h", failing))
    assert started.wait(10)
    waiters = []
    for answer in ("b", "c"):
        waiters.append(_in_thread(lambda answer=answer: pool.take("h", _held_fetch(answer, threading.Event(), release, fetched))))
        assert watched.wait(10)  # this waiter waits for the failing fetch
        watched.clear()
    release.set()
    _join(first, *(thread for thread, _ in waiters))
    assert isinstance(got_first[0], ProviderFailure)
    (entry, by_b), (same, by_c) = (got[0] for _, got in waiters)
    assert same is entry and sorted([by_b, by_c]) == [False, True]
    assert len(fetched) == 2 and fetched[1] == entry.fields["answer"]


def test_different_hashes_never_wait_on_each_other():
    pool, started, release, fetched = AnswerPool(), threading.Event(), threading.Event(), []
    held, got_held = _in_thread(lambda: pool.take("a", _held_fetch("a", started, release, fetched)))
    assert started.wait(10)
    other, got_other = _in_thread(lambda: pool.take("b", lambda: MemoEntry({"answer": "b"}, 0.0, None)))
    _join(other)  # returns while the fetch of "a" is still held
    assert got_other[0][0].fields == {"answer": "b"}
    assert not got_held
    release.set()
    _join(held)
    assert got_held[0][0].fields == {"answer": "a"}


def test_many_threads_asking_few_hashes_fetch_each_once():
    pool, lock, fetched = AnswerPool(), threading.Lock(), []
    keys = [f"h{i}" for i in range(8)]

    def fetch(key):
        def run():
            with lock:
                fetched.append(key)
            return MemoEntry({"answer": key}, 0.0, None)

        return run

    def ask(offset, out):
        for key in keys[offset:] + keys[:offset]:
            out.append(pool.take(key, fetch(key))[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outs = [[] for _ in range(min(64, 2 * (os.cpu_count() or 1) + 2))]  # more threads than cores
        threads = [threading.Thread(target=ask, args=(i % len(keys), out)) for i, out in enumerate(outs)]
        for thread in threads:
            thread.start()
        _join(*threads)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(fetched) == keys
    first = {entry.fields["answer"]: entry for entry in outs[0]}
    assert all(entry is first[entry.fields["answer"]] for out in outs for entry in out)
    assert all(len(out) == len(keys) for out in outs)


def test_a_pooled_answer_is_charged_to_the_case_that_takes_it():
    inner, pool = _mock(), AnswerPool()
    ticks = iter([0.0, 4.0])
    first = MemoizedProvider(inner, CaseMemo(pool=pool), timer=lambda: next(ticks))
    prompt = "asked by two cases"
    answer = first.complete(prompt)
    memo = CaseMemo(pool=pool)
    memo.begin_run()
    second = MemoizedProvider(inner, memo, timer=lambda: 0.0)
    assert second.complete("asked by two cases\n") == answer  # same hash
    assert inner.calls == 1
    assert (memo.charged_tokens, memo.charged_seconds) == (inner.tokens_used, 4.0)
    assert transcript_entries(memo, inner.config) == transcript_entries(first.memo, inner.config)
    memo.begin_run()  # the case's own memo answers its next run, at no token cost
    assert second.complete(prompt) == answer
    assert (memo.charged_tokens, memo.charged_seconds) == (0, 4.0)


def test_transcript_holds_stored_answers_and_no_detections():
    inner = _mock()
    stored = "answered by the log"
    memo = CaseMemo({f"mock:{inner.hash_of(stored)}": {"answer": "from the log"}})
    asked = MemoizedProvider(inner, memo, timer=lambda: 0.0)
    memo.keep("detection", MemoEntry({"exit_status": 0, "output": ""}, 1.0, None))
    assert asked.complete(stored) == "from the log"
    fetched = asked.complete("fetched")
    assert inner.calls == 1
    entries = transcript_entries(memo, inner.config)
    assert [(e["hash"], e["response"]) for e in entries] == [
        (inner.hash_of(stored), "from the log"),
        (inner.hash_of("fetched"), fetched),
    ]
    assert entries[0]["prompt"] == {"messages": prompt_messages(stored)}
    assert (entries[0]["model"], entries[0]["temperature"]) == ("gpt-4", 0.5)


def test_load_transcript_rejects_bad_lines(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"hash": "h", "response": "r"}\nnot json\n')
    with pytest.raises(StorageFailure):
        load_transcript(bad)


@pytest.mark.parametrize(
    "line",
    [
        b"\xff\xfe not UTF-8",
        b'["x"]',
        b"3",
        b'{"hash": "h2"}',
        b'{"hash": "h2", "response": 7}',
    ],
    ids=["not-utf-8", "array", "number", "no-response", "response-not-a-string"],
)
def test_load_transcript_names_the_file_and_line_of_a_bad_entry(tmp_path, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"hash": "h", "response": "r"}\n' + line + b"\n")
    with pytest.raises(StorageFailure, match="^" + re.escape(f"{bad}:2: bad transcript entry: ")):
        load_transcript(bad)


def test_load_transcript_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('\n{"hash": "a", "response": "1"}\n  \n{"hash": "b", "response": "2"}\n')
    assert load_transcript(path) == {"a": "1", "b": "2"}


def test_replay_provider_answers_from_a_table_it_is_given(tmp_path):
    # a replay bench loads the transcript once and hands every case's
    # provider the table; the file is then not read again
    inner = _mock()
    known = "known"
    path = tmp_path / "t.jsonl"
    path.write_text("")
    config = ProviderConfig(mode=ProviderMode.REPLAY, transcript_path=path)
    replay = ReplayProvider(config, {inner.hash_of(known): "from the table"})
    assert replay.complete(known) == "from the table"
    assert replay.calls == 1
    with pytest.raises(ReplayMiss):
        replay.complete("never recorded")


def test_transcript_write_is_sorted_and_stable(tmp_path):
    inner = _mock()
    rec, memo = _recording(inner)
    for body in ("zz", "aa", "mm"):
        rec.complete(body)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write(memo, inner, p1)
    _write(memo, inner, p2)
    assert p1.read_bytes() == p2.read_bytes()
    hashes = [json.loads(l)["hash"] for l in p1.read_text().splitlines()]
    # in the order the memo first kept the answers
    assert hashes == [inner.hash_of(body) for body in ("zz", "aa", "mm")]


def test_offline_providers_never_open_sockets(monkeypatch, tmp_path):
    def boom(*a, **kw):
        raise AssertionError("network touched")

    monkeypatch.setattr(socket, "socket", boom)
    monkeypatch.setattr(socket, "create_connection", boom)
    provider = _mock()
    assert provider.complete("offline")
    inner = _mock()
    rec, memo = _recording(inner)
    rec.complete("offline")
    out = tmp_path / "t.jsonl"
    _write(memo, inner, out)
    replay = ReplayProvider(ProviderConfig(mode=ProviderMode.REPLAY, transcript_path=out))
    assert replay.complete("offline")


def test_create_provider_dispatch(tmp_path):
    assert isinstance(create_provider(ProviderConfig()), ScriptedMockProvider)
    t = tmp_path / "t.jsonl"
    t.write_text("")
    cfg = ProviderConfig(mode=ProviderMode.REPLAY, transcript_path=t)
    assert isinstance(create_provider(cfg), ReplayProvider)


def test_live_provider_requires_key(monkeypatch):
    monkeypatch.delenv("RUSTBRAIN_API_KEY", raising=False)
    with pytest.raises(ProviderFailure):
        create_provider(ProviderConfig(mode=ProviderMode.LIVE_HTTP))


# --- scripted mock behavior ---

PLAN_PROMPT = """Propose repair plans for the undefined behavior described below. Produce
up to 3 solutions, most promising first, numbered from 1. Use exactly this
grammar, one step per line, and nothing else:

SOLUTION <i>:
STEP <n>: <AGENT> <region-ref> :: <instruction>

Regions under repair:
FEATURE main.rs#0 :: agents=ModifySemantics,SafeReplace,AddAssertion :: ub=stack_borrow :: ops=raw_pointer_deref
```rust
unsafe { *p = 1; }
```
"""


def test_mock_plan_parses_and_respects_count():
    provider = _mock()
    text = provider.complete(PLAN_PROMPT)
    plans = parse_plan(text, {})
    assert 1 <= len(plans) <= 3
    refs = {step.target_region for plan in plans for step in plan}
    assert refs == {"main.rs#0"}


def test_mock_plan_in_the_one_solution_grammar_writes_steps_alone():
    prompt = PLAN_PROMPT.replace("up to 3 solutions, most promising first, numbered from 1.", "one solution.")
    text = _mock().complete(prompt.replace("SOLUTION <i>:\n", ""))
    assert not re.search(r"^SOLUTION", text, flags=re.MULTILINE)
    assert text.startswith("STEP 1: ModifySemantics main.rs#0 :: ")
    assert [len(plan) for plan in parse_plan(text, {})] == [1]


def test_a_mock_plan_prompt_whose_request_names_no_count_is_a_provider_failure():
    prompt = PLAN_PROMPT.replace("up to 3 solutions", "alternative solutions")
    with pytest.raises(ProviderFailure, match="requests no count"):
        _mock().complete(prompt)


def test_mock_plan_deterministic():
    p = PLAN_PROMPT
    assert _mock().complete(p) == _mock().complete(p)


def test_mock_custom_rules_win():
    provider = ScriptedMockProvider(
        ProviderConfig(), rules=[("magic token", "scripted reply")]
    )
    assert provider.complete("has magic token inside") == "scripted reply"
    assert provider.complete("no match") == "OK"


def test_mock_callable_rule_sees_prompt():
    provider = ScriptedMockProvider(
        ProviderConfig(), rules=[("echo:", lambda text: text.split("echo:")[1])]
    )
    assert provider.complete("echo:payload") == "payload"
