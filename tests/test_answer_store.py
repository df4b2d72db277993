"""Model answers kept in the experience log: the answers of the plan pages and
thoughts that made a verified repair answer the same prompts in a later run,
under the same model, temperature and provider mode; nothing else is ever
kept."""

from __future__ import annotations

import json
import shutil
import threading
from pathlib import Path

import pytest

from conftest import (
    CORPUS_DIR,
    STUB_DETECTOR_ARG,
    TOOLS_DIR,
    copy_fixture,
    run_stub_in_process,
    stub_detector_config,
)
from ubmend import cli, detector
from ubmend.detector import CaseMemo, TargetPackage, UbKind, run_detection
from ubmend.errors import StorageFailure
from ubmend.feedback import EvalTriplet, ExperienceRecord, FeedbackEngine
from ubmend.kb import feature_vector
from ubmend.provider import (
    MARKER_FIX,
    MARKER_PLAN,
    MemoizedProvider,
    Provider,
    ProviderConfig,
    ProviderMode,
    ScriptedMockProvider,
    load_transcript,
    prompt_hash,
)

needs_rustc = pytest.mark.skipif(shutil.which("rustc") is None, reason="rustc not installed")

REWRITE = ("ModifySemantics", "rewrite the region to remove the undefined behavior")
# the instruction of a seeded step whose answer the mock rules below script
SCRIPTED = "seeded step with a scripted answer"
NO_CODE = "no fenced block in this answer"
BROKEN = "broken\n\n```rust\n{ //~COMPILE-ERROR cannot find value `x` in this scope\n}\n```"
SLOW = "slow\n\n```rust\n{ //~SLEEP 5\n}\n```"


@pytest.fixture(autouse=True)
def _in_process_detector(monkeypatch):
    monkeypatch.setattr(detector, "run_group", run_stub_in_process)


@pytest.fixture
def asked(monkeypatch) -> list[str]:
    """The text of every prompt that reaches ``Provider.complete``."""
    seen: list[str] = []
    complete = Provider.complete

    def spied(self, prompt):
        seen.append(prompt)
        return complete(self, prompt)

    monkeypatch.setattr(Provider, "complete", spied)
    return seen


def _kinds(prompts: list[str]) -> list[str]:
    marks = {MARKER_FIX: "fix", MARKER_PLAN: "plan"}
    return [next(v for k, v in marks.items() if k in p) for p in prompts]


def _answers(store: Path) -> dict[str, str]:
    """The answer lines of an experience log, key to answer."""
    if not store.exists():
        return {}
    results = [json.loads(line).get("tool_result", {}) for line in store.read_text().splitlines()]
    return {result["key"]: result["answer"] for result in results if "answer" in result}


def _seed(store: Path, case: Path, *steps: tuple[str, str]) -> None:
    """Start ``store`` with a past repair of ``case`` that seeds ``steps``."""
    reports = run_detection(TargetPackage.from_path(case), config=stub_detector_config(), memo=CaseMemo())
    vector = feature_vector(case.read_text(encoding="utf-8"), reports, file=case.name)
    triplet = EvalTriplet(True, True, 3.0, 500)
    record = ExperienceRecord(vector, UbKind.UNKNOWN, "s01", triplet, steps)
    store.write_text(json.dumps(record.to_dict(), sort_keys=True) + "\n", encoding="utf-8")


def _scripted(monkeypatch, answer: str) -> None:
    """The mock answers the ``SCRIPTED`` step's fix prompt with ``answer``."""
    def create_provider(config):
        return ScriptedMockProvider(config, rules=[(SCRIPTED, answer)])

    monkeypatch.setattr(cli, "create_provider", create_provider)


def _fix(capsys, case: Path, store: Path, *extra: str) -> tuple[int, dict]:
    rc = cli.main([
        "fix", str(case), "--experience", str(store), "--detector-cmd", STUB_DETECTOR_ARG,
        "--fixed-clock", "--report", "json", *extra,
    ])
    return rc, json.loads(capsys.readouterr().out)


@pytest.fixture
def case(tmp_path) -> Path:
    return copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path / "case") / "main.rs"


# --- what is kept, and what a later run asks --------------------------------


@pytest.mark.parametrize(
    ("first_answer", "note"),
    [
        (NO_CODE, "skipped: response contains no fenced code block"),
        (BROKEN, "patch reverted: compile failure"),
    ],
)
def test_only_the_kept_step_of_a_passing_solution_keeps_its_answer(
    tmp_path, capsys, monkeypatch, asked, case, first_answer, note
):
    _scripted(monkeypatch, first_answer)
    store = tmp_path / "experience.jsonl"
    _seed(store, case, ("ModifySemantics", SCRIPTED), REWRITE)
    rc, report = _fix(capsys, case, store)
    assert (rc, report["verdict"]) == (0, "pass")
    dropped, kept = report["trace"]["thoughts"]
    assert dropped["note"] == note and kept["patch"] is not None
    assert _kinds(asked) == ["fix", "fix"] and SCRIPTED in asked[0]
    prompt = asked[1]
    answer = ScriptedMockProvider(ProviderConfig())._complete(prompt)
    assert _answers(store) == {f"mock:{prompt_hash(prompt, 'gpt-4', 0.5)}": answer}
    # a repeat asks the dropped step again, and the kept one not at all
    asked.clear()
    rc, again = _fix(capsys, case, store)
    assert rc == 0 and again["trace"] == report["trace"]
    assert _kinds(asked) == ["fix"] and SCRIPTED in asked[0]
    assert again["store_hits"]["answers"] == 1
    assert again["triplet"]["overhead_tokens"] < report["triplet"]["overhead_tokens"]


def test_a_timed_out_thought_keeps_no_answer(tmp_path, capsys, monkeypatch, asked, case):
    _scripted(monkeypatch, SLOW)
    store = tmp_path / "experience.jsonl"
    _seed(store, case, ("ModifySemantics", SCRIPTED), REWRITE)
    rc, report = _fix(capsys, case, store)
    # the timeout ends the session; the copy is back at the baseline bytes
    assert (rc, report["verdict"], report["final_errors"]) == (1, "failed", 1)
    assert _kinds(asked) == ["fix"]
    assert _answers(store) == {}


def test_a_failed_run_keeps_no_answer(tmp_path, capsys, asked):
    # the detector flags a line outside every rewritable region too
    case = tmp_path / "main.rs"
    case.write_text(
        "fn main() {\n    let mut value = 3i32;\n    let alias = &mut value as *mut i32;\n"
        "    unsafe {\n        //~UB Undefined Behavior: retag <90>\n        let _ = *alias;\n    }\n"
        "    //~UB Undefined Behavior: retag <91>\n}\n",
        encoding="utf-8",
    )
    store = tmp_path / "experience.jsonl"
    rc, report = _fix(capsys, case, store, "--solutions", "1")
    assert rc == 1 and report["triplet"]["accuracy"] is False
    assert any(t["patch"] is not None for t in report["trace"]["thoughts"])
    # the plan's code answered the fix; neither the page nor that answer is kept
    assert _kinds(asked) == ["plan"]
    assert _answers(store) == {}


def test_a_failed_run_keeps_none_of_its_pages(tmp_path, capsys, monkeypatch, asked, case):
    # every fix abstains, so the session draws page after page and fails
    monkeypatch.setattr(
        cli, "create_provider", lambda config: ScriptedMockProvider(config, rules=[(MARKER_FIX, NO_CODE)])
    )
    store = tmp_path / "experience.jsonl"
    rc, report = _fix(capsys, case, store, "--no-kb", "--solutions", "6")
    assert (rc, report["verdict"]) == (1, "failed")
    # pages of one, three and two solutions
    assert _kinds(asked).count("plan") == 3
    assert _answers(store) == {}


# a plan page of one solution, whose code fails to compile, then a page whose
# solution the mock's fix prompt answer repairs
FAILING_PAGE = (
    "SOLUTION 1:\nSTEP 1: ModifySemantics main.rs#0 :: rewrite with a compile error\n"
    "```rust\n{ //~COMPILE-ERROR cannot find value `x` in this scope\n}\n```"
)
REPAIRING_PAGE = "SOLUTION 2:\nSTEP 1: {} main.rs#0 :: {}".format(*REWRITE)


def test_a_repair_on_the_second_page_keeps_both_pages_and_repeats_asking_nothing(
    tmp_path, capsys, monkeypatch, asked, case
):
    # the second page lists s01 among the tried solutions
    rules = [("TRIED s01", REPAIRING_PAGE), (MARKER_PLAN, FAILING_PAGE)]
    monkeypatch.setattr(cli, "create_provider", lambda config: ScriptedMockProvider(config, rules=rules))
    store = tmp_path / "experience.jsonl"
    rc, report = _fix(capsys, case, store, "--no-kb")
    assert (rc, report["verdict"]) == (0, "pass")
    # s01's fix is answered by its page's code, s02's by the model
    assert _kinds(asked) == ["plan", "plan", "fix"]
    keys = [f"mock:{prompt_hash(prompt, 'gpt-4', 0.5)}" for prompt in asked]
    assert list(_answers(store)) == keys
    assert _answers(store)[keys[0]] == FAILING_PAGE and _answers(store)[keys[1]] == REPAIRING_PAGE
    asked.clear()
    rc, again = _fix(capsys, case, store, "--no-kb")
    assert (rc, again["trace"], asked) == (0, report["trace"], [])
    assert (again["store_hits"]["answers"], again["triplet"]["overhead_tokens"]) == (3, 0)


def test_a_degenerate_plan_and_its_retry_are_both_kept(tmp_path, capsys, monkeypatch, asked, case):
    plan = "SOLUTION 1:\nSTEP 1: {} main.rs#0 :: {}".format(*REWRITE)
    rules = [("Reminder: answer only in the grammar above.", plan), (MARKER_PLAN, "no plan here")]
    monkeypatch.setattr(cli, "create_provider", lambda config: ScriptedMockProvider(config, rules=rules))
    store = tmp_path / "experience.jsonl"
    rc, report = _fix(capsys, case, store, "--no-kb")
    assert rc == 0 and _kinds(asked) == ["plan", "plan", "fix"]
    assert list(_answers(store).values())[:2] == ["no plan here", plan]
    asked.clear()
    rc, again = _fix(capsys, case, store, "--no-kb")
    assert (rc, again["trace"], asked, again["store_hits"]["answers"]) == (0, report["trace"], [], 3)


@pytest.mark.parametrize(
    "change", [["--model", "gpt-4o"], ["--temperature", "0.2"], ["--provider", "replay"]]
)
def test_kept_answers_answer_nothing_under_another_model_temperature_or_mode(
    tmp_path, capsys, asked, case, change
):
    store, transcript = tmp_path / "experience.jsonl", tmp_path / "t.jsonl"
    assert _fix(capsys, case, store, "--no-kb", "--transcript", str(transcript))[0] == 0
    # the plan page, and the fix its code answered
    assert len(_answers(store)) == 2
    asked.clear()
    rc, same = _fix(capsys, case, store, "--no-kb")
    assert (rc, same["store_hits"]["answers"], _kinds(asked)) == (0, 2, [])
    asked.clear()
    rc, changed = _fix(capsys, case, store, "--no-kb", "--transcript", str(transcript), *change)
    assert (rc, changed["store_hits"]["answers"]) == (0, 0)
    # the kept page is not read: the plan is asked, and its code answers the fix
    assert _kinds(asked) == ["plan"]
    assert changed["trace"] == same["trace"]


def test_a_mock_answer_in_the_store_never_answers_a_live_provider():
    prompt = f"{MARKER_FIX}\n```rust\nunsafe {{ f() }}\n```"
    mock = ScriptedMockProvider(ProviderConfig())
    # the scripted mock under a live config: same transcript hash, no network
    live = ScriptedMockProvider(ProviderConfig(mode=ProviderMode.LIVE_HTTP))
    key = mock.hash_of(prompt)
    assert live.hash_of(prompt) == key
    stored = {f"mock:{key}": {"answer": "kept"}}
    assert MemoizedProvider(mock, CaseMemo(stored), lambda: 0.0).complete(prompt) == "kept"
    memo = CaseMemo(stored)
    assert MemoizedProvider(live, memo, lambda: 0.0).complete(prompt) != "kept"
    assert (memo.store_hits["answers"], live.calls, mock.calls) == (0, 1, 0)


@needs_rustc
def test_a_second_fix_on_the_generated_store_asks_only_what_no_verified_repair_answers(
    tmp_path, capsys, perfbench_gen, asked
):
    gen = perfbench_gen
    templates = {t.id: t for t in gen.load_templates(CORPUS_DIR)}
    kb, exp = tmp_path / "kb.jsonl", tmp_path / "experience.jsonl"
    store = gen.build_store(list(templates.values()), 1, TOOLS_DIR / "fake_miri.py", kb, exp)
    assert "c02" in store["seeded_templates"]
    kinds = {}
    for tid in ("c02", "c12"):
        template = templates[tid]
        argv = [
            "fix", str(template.path), "--kb", str(kb), "--experience", str(exp),
            "--reference", str(template.reference), "--detector-cmd", STUB_DETECTOR_ARG,
            "--fixed-clock", "--report", "json",
        ]
        for run in (1, 2):
            asked.clear()
            assert cli.main(argv) == 0
            capsys.readouterr()
            kinds[tid, run] = _kinds(asked)
    # the seed passes on its first thought: the repeat asks nothing
    assert (kinds["c02", 1], kinds["c02", 2]) == (["fix"], [])
    # c12's seed could be outranked, so it is planned, and the plan's code
    # answers its fix; the repeat reads the page and the fix answer
    assert kinds["c12", 1] == ["plan"]
    assert kinds["c12", 2] == []


# --- transcripts ----------------------------------------------------------------


def test_a_fix_transcript_recorded_on_a_warm_store_replays_on_its_own(tmp_path, capsys, asked):
    # with knowledge the repeat is seeded, and its seed passes before any
    # page is asked; without, it reads the plan page too
    for settings, read in (((), {"fix"}), (("--no-kb",), {"plan", "fix"})):
        run = tmp_path / "-".join(["run", *settings])
        case = copy_fixture(CORPUS_DIR / "stack_borrow", run / "case") / "main.rs"
        store, transcript = run / "experience.jsonl", run / "t.jsonl"
        assert _fix(capsys, case, store, *settings)[0] == 0
        # the plan page, and the fix its code answered
        assert len(_answers(store)) == 2
        fresh = run / "fresh.jsonl"
        shutil.copyfile(store, fresh)
        asked.clear()
        rc, recorded = _fix(capsys, case, store, *settings, "--transcript", str(transcript))
        assert (rc, recorded["store_hits"]["answers"], asked) == (0, len(read), [])
        entries = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines()]
        assert {_kinds([entry["prompt"]["messages"][0]["content"]])[0] for entry in entries} == read
        assert {entry["hash"] for entry in entries} <= {key.removeprefix("mock:") for key in _answers(store)}
        replay = ("--provider", "replay", "--transcript", str(transcript))
        rc, replayed = _fix(capsys, case, fresh, *settings, *replay)
        assert (rc, replayed["store_hits"]["answers"]) == (0, 0)
        # a replay run reads no answer a mock gave, so it pays for the prompt
        for report in (recorded, replayed):
            report["triplet"].pop("overhead_tokens")
            report["store_hits"].pop("answers")
        assert replayed == recorded, settings


def _manifest(tmp_path: Path, kinds: list[str]) -> Path:
    lines = []
    for i, kind in enumerate(kinds, 1):
        copy_fixture(CORPUS_DIR / kind, tmp_path / "bench")
        lines.append(json.dumps({"id": f"b{i:02d}", "path": f"{kind}/main.rs", "ub_kind": kind}))
    manifest = tmp_path / "bench" / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _bench(capsys, manifest: Path, store: Path, *extra: str) -> tuple[int, dict]:
    rc = cli.main([
        "bench", str(manifest), "--experience", str(store), "--jobs", "1",
        "--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock", "--report", "json", *extra,
    ])
    return rc, json.loads(capsys.readouterr().out)


def test_a_bench_transcript_recorded_on_a_warm_store_replays_on_its_own(tmp_path, capsys):
    manifest = _manifest(tmp_path, ["stack_borrow", "alloc"])
    store, transcript = tmp_path / "experience.jsonl", tmp_path / "t.jsonl"
    assert _bench(capsys, manifest, store)[0] == 0
    fresh = tmp_path / "fresh.jsonl"
    shutil.copyfile(store, fresh)
    rc, recorded = _bench(capsys, manifest, store, "--transcript", str(transcript))
    assert rc == 0
    assert {key.removeprefix("mock:") for key in _answers(store)} <= set(load_transcript(transcript))
    replay = ["--provider", "replay", "--transcript", str(transcript)]
    rc, replayed = _bench(capsys, manifest, fresh, *replay)
    assert rc == 0
    assert replayed["totals"]["tokens"] > recorded["totals"]["tokens"]
    for report in (recorded, replayed):
        report["totals"].pop("tokens")
        for row in report["cases"]:
            row.pop("tokens")
    assert replayed == recorded


# --- bench ----------------------------------------------------------------------


def test_a_bench_on_the_log_an_earlier_bench_wrote_asks_none_of_its_verified_fix_prompts(
    tmp_path, capsys, monkeypatch
):
    manifest = CORPUS_DIR / "manifest.jsonl"
    entries = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
    ids = {Path(entry["path"]).parent.name: entry["id"] for entry in entries}
    run = threading.local()
    # every prompt a case's model answered, or a plan's code answered for it
    calls: dict[str, list[str]] = {}
    real_repair_one, real_complete = cli.repair_one, Provider.complete
    real_stand_in = MemoizedProvider.stand_in

    def labelled_repair_one(target, provider, engine, settings, reference=None):
        run.case = ids[target.root_path.name]
        return real_repair_one(target, provider, engine, settings, reference)

    def spied_complete(self, prompt):
        calls.setdefault(run.case, []).append(prompt)
        return real_complete(self, prompt)

    def spied_stand_in(self, prompt, answer):
        calls.setdefault(run.case, []).append(prompt)
        return real_stand_in(self, prompt, answer)

    def fix_prompts(cid: str) -> set[str]:
        return {p for p in calls.get(cid, []) if MARKER_FIX in p}

    monkeypatch.setattr(cli, "repair_one", labelled_repair_one)
    monkeypatch.setattr(Provider, "complete", spied_complete)
    monkeypatch.setattr(MemoizedProvider, "stand_in", spied_stand_in)
    store = tmp_path / "experience.jsonl"
    asked = []
    for _ in range(3):
        calls.clear()
        rc, report = _bench(capsys, manifest, store)
        assert rc == 0
        assert all(row["verdict"] in ("pass", "semantic_pass") for row in report["cases"])
        asked.append({cid: fix_prompts(cid) for cid in ids.values()})
    first, second, third = asked
    assert all(first.values())
    # no bench asks a fix prompt an earlier one was answered for in a repair.
    # A seed asks with the instruction text its signature keeps, lowercased,
    # so its prompt can differ from the planned step's: it is asked once, in
    # the second bench, and its answer serves the third
    for cid in ids.values():
        assert not second[cid] & first[cid], cid
        assert not third[cid], cid


# --- the log's answer lines -----------------------------------------------------

ANSWER_SHAPE = "tool_result answer is not exactly a string key and a string answer"
NO_KEY = "tool_result has no string key"


@pytest.mark.parametrize(
    ("tool_result", "message"),
    [
        ({"key": "k", "answer": 1}, ANSWER_SHAPE),
        ({"key": "k", "answer": None}, ANSWER_SHAPE),
        ({"key": "k", "answer": ["x"]}, ANSWER_SHAPE),
        ({"key": "k", "answer": "x", "exit_status": 0}, ANSWER_SHAPE),
        ({"key": "k", "answer": "x", "exit_status": 0, "output": ""}, ANSWER_SHAPE),
        ({"key": "k", "answer": "x", "verdict": True}, ANSWER_SHAPE),
        ({"answer": "x"}, NO_KEY),
        ({"key": "", "answer": "x"}, NO_KEY),
        ({"key": 7, "answer": "x"}, NO_KEY),
    ],
)
def test_a_malformed_answer_line_ends_fix_and_bench_with_exit_two(
    tmp_path, capsys, case, tool_result, message
):
    store = tmp_path / "experience.jsonl"
    good = {"tool_result": {"key": "mock:" + "a" * 64, "answer": "ok"}}
    store.write_text(json.dumps(good) + "\n" + json.dumps({"tool_result": tool_result}) + "\n")
    expected = f"{store}:2: bad experience record: {message}"
    with pytest.raises(StorageFailure) as exc:
        FeedbackEngine(store)
    assert str(exc.value) == expected
    argv = ["--experience", str(store), "--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock"]
    manifest = _manifest(tmp_path, ["alloc"])
    for command in (["fix", str(case)], ["bench", str(manifest)]):
        assert cli.main([*command, *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {expected}\n")


def test_a_stored_line_answers_only_lookups_of_its_own_kind():
    kinds = ("detections", "reference_verdicts", "answers")
    lines = {
        "detections": {"exit_status": 0, "output": ""},
        "reference_verdicts": {"verdict": True},
        "answers": {"answer": "x"},
    }
    for key, line in lines.items():
        for prompt in (None, "p"):
            memo = CaseMemo(lines)
            entry = memo.recall(key, prompt)
            hit = (key == "answers") == (prompt is not None)
            assert (entry and entry.fields) == (line if hit else None)
            assert memo.store_hits == {k: int(hit and k == key) for k in kinds}
    # an answer lookup never takes a detection or verdict line for its text
    provider = ScriptedMockProvider(ProviderConfig(), rules=[("probe", "fresh")])
    probe = "probe"
    for kind in ("detections", "reference_verdicts"):
        memo = CaseMemo({f"mock:{provider.hash_of(probe)}": lines[kind]})
        assert MemoizedProvider(provider, memo, lambda: 0.0).complete(probe) == "fresh"
        assert memo.store_hits == dict.fromkeys(kinds, 0)
