"""Tool results kept in the experience log: a detection or reference verdict
one ``fix`` or ``bench`` completed is not made again by a later run on the
same store, unless the tool or its environment changed."""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import shutil
import sys
from pathlib import Path

import pytest

from conftest import (
    CORPUS_DIR,
    TOOLS_DIR,
    copy_fixture,
    counting_detector_command,
    counting_rustc,
    spawn_log,
)
from ubmend import cli
from ubmend.detector import CaseMemo, DetectorConfig, TargetPackage, UbKind, run_detection, tool_identity
from ubmend.errors import StorageFailure
from ubmend.feedback import FeedbackEngine, ReferenceBundle, ReferenceExecutionFailure

needs_rustc = pytest.mark.skipif(shutil.which("rustc") is None, reason="rustc not installed")


def _tool_lines(log: Path) -> list[dict]:
    """The detection and verdict lines of ``log``: its tool results."""
    if not log.exists():
        return []
    lines = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    results = [line["tool_result"] for line in lines if "tool_result" in line]
    return [result for result in results if "answer" not in result]


@pytest.fixture
def fix_run(tmp_path, monkeypatch, capsys):
    """``fix`` on the stack_borrow fixture with one store, a counting
    detector and a counting ``rustc``; returns (rc, report, final source)."""
    shim, compiles = counting_rustc(tmp_path / "shims")
    monkeypatch.setenv("PATH", f"{shim.parent}{os.pathsep}{os.environ['PATH']}")
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path / "case")
    ref = copy_fixture(CORPUS_DIR / "refs" / "stack_borrow", tmp_path / "refs")
    spawns = tmp_path / "spawns.jsonl"
    store = tmp_path / "experience.jsonl"
    finals: list[dict] = []
    repair_one = cli.repair_one

    def capturing_repair_one(*args, **kwargs):
        outcome, triplet, originals = repair_one(*args, **kwargs)
        finals.append(dict(outcome.final_source))
        return outcome, triplet, originals

    monkeypatch.setattr(cli, "repair_one", capturing_repair_one)

    def run(command: tuple[str, ...] = counting_detector_command(spawns)):
        argv = [
            "fix", str(case / "main.rs"), "--kb", str(tmp_path / "kb.jsonl"),
            "--experience", str(store), "--reference", str(ref),
            "--detector-cmd", shlex.join(command), "--fixed-clock", "--report", "json",
        ]
        rc = cli.main(argv)
        return rc, json.loads(capsys.readouterr().out), finals[-1]

    run.spawns = lambda: len(spawn_log(spawns))
    run.compiles = compiles
    run.store = store
    run.spawn_log = spawns
    return run


@needs_rustc
def test_second_fix_on_one_store_spawns_nothing(fix_run):
    rc1, first, source1 = fix_run()
    assert (fix_run.spawns(), fix_run.compiles()) == (2, 1)
    assert first["store_hits"] == {"detections": 0, "reference_verdicts": 0, "answers": 0}
    lines = _tool_lines(fix_run.store)
    assert sum("output" in line for line in lines) == 2
    assert [line["verdict"] for line in lines if "verdict" in line] == [True]
    rc2, second, source2 = fix_run()
    assert (fix_run.spawns(), fix_run.compiles()) == (2, 1)
    assert second["store_hits"] == {"detections": 2, "reference_verdicts": 1, "answers": 1}
    assert rc1 == rc2 == 0
    assert first["verdict"] == second["verdict"] == "semantic_pass"
    assert first["changed_files"] == second["changed_files"]
    assert source1 == source2
    # stored results take no time: two logical ticks per detection are saved
    assert second["triplet"]["overhead_seconds"] < first["triplet"]["overhead_seconds"]
    assert _tool_lines(fix_run.store) == lines  # nothing new to keep


@needs_rustc
def test_changed_miriflags_or_touched_detector_spawns_again(fix_run, tmp_path, monkeypatch):
    tools = tmp_path / "tools"
    tools.mkdir()
    for name in ("counting_miri.py", "fake_miri.py"):
        shutil.copy2(TOOLS_DIR / name, tools / name)
    command = counting_detector_command(fix_run.spawn_log)
    command = (command[0], str(tools / "counting_miri.py"), *command[2:])
    fix_run(command)
    assert fix_run.spawns() == 2
    fix_run(command)
    assert fix_run.spawns() == 2
    monkeypatch.setenv("MIRIFLAGS", "-Zmiri-strict-provenance")
    fix_run(command)
    assert fix_run.spawns() == 4
    script = tools / "counting_miri.py"
    mtime = script.stat().st_mtime_ns
    os.utime(script, ns=(mtime + 10**9, mtime + 10**9))
    rc, report, _ = fix_run(command)
    assert fix_run.spawns() == 6
    assert report["store_hits"]["detections"] == 0


@pytest.mark.parametrize(
    ("source", "timeout", "rc"),
    [
        ("fn main() {\n    //~SLEEP 5\n}\n", "0.5", 1),
        ("fn main() { //~COMPILE-ERROR cannot find value `x`\n}\n", "30", 2),
    ],
)
def test_timeouts_and_compile_errors_leave_no_tool_result(tmp_path, capsys, source, timeout, rc):
    target = tmp_path / "main.rs"
    target.write_text(source, encoding="utf-8")
    store = tmp_path / "experience.jsonl"
    spawns = tmp_path / "spawns.jsonl"
    argv = [
        "fix", str(target), "--experience", str(store), "--timeout", timeout,
        "--detector-cmd", shlex.join(counting_detector_command(spawns)), "--fixed-clock",
    ]
    for _ in range(2):
        assert cli.main(argv) == rc
    capsys.readouterr()
    assert _tool_lines(store) == []
    if rc == 2:
        assert len(spawn_log(spawns)) == 2  # ran again: nothing was kept


@needs_rustc
def test_reference_failures_are_not_kept(tmp_path):
    (tmp_path / "ref").mkdir()
    (tmp_path / "ref" / "expected_stdout.txt").write_text("total=31\n")
    bundle = ReferenceBundle.from_dir(tmp_path / "ref")
    memo = CaseMemo()
    with pytest.raises(ReferenceExecutionFailure):
        bundle.check({"main.rs": "fn main() { undefined_symbol(); }\n"}, "main.rs", memo=memo)
    assert memo.new_results == {}


NEITHER = "tool_result is neither a detection (exit_status, output) nor a verdict"


@pytest.mark.parametrize(
    ("tool_result", "message"),
    [
        ({"exit_status": 0, "output": ""}, "tool_result has no string key"),
        ({"key": "k", "verdict": 1}, NEITHER),
        ({"key": "k", "exit_status": 0}, NEITHER),
        ({"key": "k", "exit_status": "0", "output": ""}, NEITHER),
        ({"key": "k", "verdict": True, "output": ""}, NEITHER),
        ("k", "tool_result is not an object"),
    ],
)
def test_malformed_tool_result_line_exits_two(tmp_path, capsys, tool_result, message):
    store = tmp_path / "experience.jsonl"
    good = {"tool_result": {"key": "a" * 64, "verdict": True}}
    store.write_text(json.dumps(good) + "\n" + json.dumps({"tool_result": tool_result}) + "\n")
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path / "case")
    with pytest.raises(StorageFailure) as exc:
        FeedbackEngine(store)
    assert str(exc.value) == f"{store}:2: bad experience record: {message}"
    argv = ["fix", str(case / "main.rs"), "--experience", str(store), "--fixed-clock"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {store}:2: bad experience record: {message}\n"


def test_a_stored_detection_is_read_like_a_fresh_one(tmp_path):
    (tmp_path / "main.rs").write_text(
        "fn main() {\n    let x = 1; //~UB memory access failed: alloc1 has been freed\n}\n"
    )
    target = TargetPackage.from_path(tmp_path / "main.rs")
    spawns = tmp_path / "spawns.jsonl"
    config = DetectorConfig(command=counting_detector_command(spawns), timeout=30.0)
    fresh_memo = CaseMemo()
    fresh = run_detection(target, config=config, memo=fresh_memo)
    (key, line), = fresh_memo.new_results.items()
    assert line["exit_status"] == 1 and "alloc1 has been freed" in line["output"]
    memo = CaseMemo({key: line})
    memo.begin_run()
    stored = run_detection(target, config=config, clock=lambda: pytest.fail("no clock"), memo=memo)
    assert len(spawn_log(spawns)) == 1
    # a stored detection costs the run nothing
    assert memo.charged_seconds == 0.0
    assert stored == fresh
    assert stored[0].kind is UbKind.DANGLING_POINTER
    assert memo.store_hits == {"detections": 1, "reference_verdicts": 0, "answers": 0}
    assert memo.new_results == {}
    # the case's other run reuses it for nothing, and the store is asked once
    memo.begin_run()
    assert run_detection(target, config=config, memo=memo) == stored
    assert memo.charged_seconds == 0.0
    assert memo.store_hits["detections"] == 1


def test_bench_keeps_tool_results_once_in_case_id_order(tmp_path, capsys):
    base = tmp_path / "bench"
    lines = []
    # two cases with the same bytes: one result line serves both
    for cid, kind in (("b02", "alloc"), ("b01", "stack_borrow"), ("b03", "alloc")):
        copy_fixture(CORPUS_DIR / kind, base / cid)
        lines.append(json.dumps({"id": cid, "path": f"{cid}/{kind}/main.rs", "ub_kind": kind}))
    manifest = base / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    store = tmp_path / "experience.jsonl"
    spawns = tmp_path / "spawns.jsonl"
    argv = [
        "bench", str(manifest), "--experience", str(store), "--jobs", "2",
        "--detector-cmd", shlex.join(counting_detector_command(spawns)),
        "--fixed-clock", "--report", "json",
    ]
    assert cli.main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert len(spawn_log(spawns)) == 6
    kept = _tool_lines(store)
    assert len(kept) == len({line["key"] for line in kept}) == 4
    # b01's detections are appended before alloc's
    assert "borrow stack" in kept[0]["output"] and "out-of-bounds" in kept[2]["output"]
    assert cli.main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert len(spawn_log(spawns)) == 6
    assert _tool_lines(store) == kept
    verdicts = lambda report: [(c["id"], c["verdict"], c["final_errors"]) for c in report["cases"]]
    assert verdicts(first) == verdicts(second)


def test_byte_identical_bench_cases_each_read_the_store_as_bench_found_it(tmp_path, capsys):
    # one worker: the second case starts after the first is done, while the
    # first one's lines are appended, and still spawns as often as it does
    base = tmp_path / "bench"
    lines = []
    for cid in ("b01", "b02"):
        copy_fixture(CORPUS_DIR / "stack_borrow", base / cid)
        lines.append(json.dumps({"id": cid, "path": f"{cid}/stack_borrow/main.rs", "ub_kind": "stack_borrow"}))
    manifest = base / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    store = tmp_path / "experience.jsonl"
    spawns = tmp_path / "spawns.jsonl"
    argv = [
        "bench", str(manifest), "--experience", str(store), "--jobs", "1",
        "--detector-cmd", shlex.join(counting_detector_command(spawns)),
        "--fixed-clock", "--report", "json",
    ]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["verdict"] for c in report["cases"]] == ["pass", "pass"]
    original = {"main.rs": hashlib.sha256((CORPUS_DIR / "stack_borrow" / "main.rs").read_bytes()).hexdigest()}
    made = spawn_log(spawns)
    # per case: the baseline and the repaired state
    assert len(made) == 4
    assert sum(s["files"] == original for s in made) == 2
    assert len(_tool_lines(store)) == 2


def test_tool_identity_keeps_the_key_format_stores_already_hold(monkeypatch):
    # the formula the keys in existing stores were made with: the files, the
    # tool's own environment (never set, so always empty) and three variables
    monkeypatch.setenv("MIRIFLAGS", "-Zmiri-strict-provenance")
    monkeypatch.delenv("RUSTFLAGS", raising=False)
    command = (sys.executable, str(TOOLS_DIR / "fake_miri.py"), "/no/such/tool", "rel", "{file}")
    files = [
        [sys.executable, os.path.realpath(sys.executable)],
        [command[1], os.path.realpath(command[1])],
    ]
    for entry in files:
        st = os.stat(entry[1])
        entry += [st.st_size, st.st_mtime_ns]
    files.append(["/no/such/tool", None])
    variables = [os.environ.get(name) for name in ("MIRIFLAGS", "RUSTFLAGS", "RUSTUP_TOOLCHAIN")]
    payload = [files, [], variables]
    assert tool_identity(command) == hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _root_command(*head: str) -> tuple[str, ...]:
    """A detector command that names the working copy through ``{root}``."""
    return (*head, "{root}/main.rs")


def test_a_root_command_reuses_detections_across_fix_runs(tmp_path, capsys):
    case = copy_fixture(CORPUS_DIR / "alloc", tmp_path / "case")
    store = tmp_path / "experience.jsonl"
    command = _root_command(sys.executable, str(TOOLS_DIR / "fake_miri.py"))
    argv = [
        "fix", str(case / "main.rs"), "--experience", str(store),
        "--detector-cmd", shlex.join(command), "--fixed-clock", "--report", "json",
    ]
    assert cli.main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    lines = _tool_lines(store)
    assert first["store_hits"]["detections"] == 0 and len(lines) == 2
    # kept root-relative: no line names the copy the first run worked in
    assert all("{root}/main.rs:" in line["output"] for line in lines if line["exit_status"])
    assert cli.main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["store_hits"]["detections"] == 2
    assert _tool_lines(store) == lines
    assert (first["verdict"], first["trace"]) == (second["verdict"], second["trace"])


def test_a_reused_root_detection_reads_like_a_fresh_one_on_this_copy(tmp_path):
    source = "fn main() {\n    let x = 1; //~UB memory access failed: alloc1 has been freed\n}\n"
    copies = []
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "main.rs").write_text(source)
        copies.append(TargetPackage.from_path(tmp_path / name / "main.rs"))
    spawns = tmp_path / "spawns.jsonl"
    config = DetectorConfig(
        command=_root_command(*counting_detector_command(spawns)[:-1]), timeout=30.0
    )
    memo = CaseMemo()
    made = run_detection(copies[0], config=config, memo=memo)
    reused = run_detection(copies[1], config=config, memo=memo)
    stored = run_detection(copies[2], config=config, memo=CaseMemo(memo.new_results))
    assert len(spawn_log(spawns)) == 1
    for target, result in zip(copies, (made, reused, stored)):
        fresh = run_detection(target, config=config, memo=CaseMemo())
        assert result == fresh
        assert result[0].file == f"{target.root_path}/main.rs"


def test_a_bench_case_reuses_root_detections_in_its_no_knowledge_run(tmp_path, capsys):
    case = copy_fixture(CORPUS_DIR / "alloc", tmp_path / "c01")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"id": "c01", "path": str(case / "main.rs"), "ub_kind": "alloc"}) + "\n")
    spawns = tmp_path / "spawns.jsonl"
    command = _root_command(*counting_detector_command(spawns)[:-1])
    argv = ["bench", str(manifest), "--detector-cmd", shlex.join(command), "--fixed-clock", "--report", "json"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cases"][0]["verdict"] == "pass"
    # the knowledge run's baseline and repaired state; the no-knowledge run reuses both
    assert len(spawn_log(spawns)) == 2


def test_detector_output_that_is_not_utf8_is_read_with_replacement(tmp_path, capsys):
    # Miri passes the program's stdout through, and a program may write any
    # bytes: they read as U+FFFD, the run as the stub alone reads it, and
    # the stored output replays to the same reports
    wrapper = tmp_path / "noisy_miri.py"
    wrapper.write_text(
        "import os, sys\n"
        "sys.stdout.buffer.write(b'\\xff\\xfe\\n')\n"
        "sys.stdout.flush()\n"
        f"stub = {str(TOOLS_DIR / 'fake_miri.py')!r}\n"
        "os.execv(sys.executable, [sys.executable, stub, *sys.argv[1:]])\n"
    )
    store = tmp_path / "experience.jsonl"

    def fix(command: tuple[str, ...], case: str, *store_args: str) -> dict:
        path = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path / case) / "main.rs"
        argv = ["fix", str(path), "--no-kb", *store_args, "--detector-cmd", shlex.join(command),
                "--fixed-clock", "--report", "json"]
        assert cli.main(argv) == 0
        return json.loads(capsys.readouterr().out)

    plain = fix((sys.executable, str(TOOLS_DIR / "fake_miri.py"), "{file}"), "plain")
    noisy_command = (sys.executable, str(wrapper), "{file}")
    noisy = fix(noisy_command, "noisy", "--experience", str(store))
    assert noisy["verdict"] == plain["verdict"] == "pass"
    assert (noisy["trace"], noisy["changed_files"]) == (plain["trace"], plain["changed_files"])
    outputs = [line["output"] for line in _tool_lines(store) if "output" in line]
    assert len(outputs) == 2 and all(output.startswith("\ufffd\ufffd\n") for output in outputs)
    replayed = fix(noisy_command, "replayed", "--experience", str(store))
    assert replayed["store_hits"]["detections"] == 2
    assert (replayed["verdict"], replayed["trace"]) == (noisy["verdict"], noisy["trace"])


def test_program_output_that_names_a_missing_tool_does_not_hide_a_ub_report(tmp_path, capsys):
    # Miri passes the program's stdout through: a program that prints what
    # reads as a missing tool still has its UB block read, and is repaired
    wrapper = tmp_path / "hinting_miri.py"
    wrapper.write_text(
        "import os, sys\n"
        "print('hint: the frobnicator is not installed', flush=True)\n"
        f"stub = {str(TOOLS_DIR / 'fake_miri.py')!r}\n"
        "os.execv(sys.executable, [sys.executable, stub, *sys.argv[1:]])\n"
    )
    reports = []
    for name, tool in (("plain", TOOLS_DIR / "fake_miri.py"), ("hinting", wrapper)):
        path = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path / name) / "main.rs"
        command = shlex.join((sys.executable, str(tool), "{file}"))
        argv = ["fix", str(path), "--no-kb", "--detector-cmd", command, "--fixed-clock", "--report", "json"]
        assert cli.main(argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    plain, hinting = reports
    assert hinting["verdict"] == plain["verdict"] == "pass"
    assert (hinting["trace"], hinting["changed_files"]) == (plain["trace"], plain["changed_files"])
