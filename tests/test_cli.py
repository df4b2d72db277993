"""Command-line surface: exit codes, report formats, interval math, manifests."""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

from conftest import (
    CORPUS_DIR,
    FIXTURES_DIR,
    STUB_DETECTOR_ARG,
    TOOLS_DIR,
    copy_fixture,
    counting_detector_command,
    counting_rustc,
    run_stub_in_process,
    spawn_log,
)
from ubmend import cli, detector, feedback
from ubmend.cli import compute_ci, load_manifest, main, repair_one
from ubmend.detector import DEFAULT_TOKEN_BUDGET, CaseMemo, DetectorConfig, TargetPackage
from ubmend.errors import ProviderFailure
from ubmend.fast import AgentKind, RepairSolution, RepairStep
from ubmend.feedback import FeedbackEngine
from ubmend.provider import (
    MARKER_FIX,
    MARKER_PLAN,
    Provider,
    ProviderConfig,
    ProviderMode,
    ScriptedMockProvider,
    load_transcript,
)
from ubmend.slow import SessionConfig

needs_rustc = pytest.mark.skipif(shutil.which("rustc") is None, reason="rustc not installed")

CLEAN_SOURCE = 'fn main() {\n    println!("ok");\n}\n'

UB_INSIDE_AND_OUT = (
    "fn main() {\n"
    "    let mut value = 3i32;\n"
    "    let alias = &mut value as *mut i32;\n"
    "    unsafe {\n"
    "        //~UB Undefined Behavior: trying to retag from <90> for Unique permission\n"
    "        let _ = *alias;\n"
    "    }\n"
    "    // the detector flags this line too, but it sits outside any\n"
    "    // rewritable region, so no agent can remove it\n"
    "    //~UB Undefined Behavior: trying to retag from <91> for Unique permission\n"
    "}\n"
)


def _base_args(*extra: str) -> list[str]:
    return ["--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock", *extra]


def _fix(path: Path, *extra: str) -> list[str]:
    return ["fix", str(path), *_base_args(*extra)]


def _bench(manifest: Path, *extra: str) -> list[str]:
    return ["bench", str(manifest), *_base_args(*extra)]


def _bench_dir(tmp_path: Path, kinds: list[str], with_refs: bool = False) -> Path:
    base = tmp_path / "bench"
    base.mkdir(exist_ok=True)
    lines = []
    for i, kind in enumerate(kinds, 1):
        copy_fixture(CORPUS_DIR / kind, base)
        entry = {"id": f"b{i:02d}", "path": f"{kind}/main.rs", "ub_kind": kind}
        if with_refs and (CORPUS_DIR / "refs" / kind).is_dir():
            copy_fixture(CORPUS_DIR / "refs" / kind, base / "refs")
            entry["reference"] = f"refs/{kind}"
        lines.append(json.dumps(entry))
    manifest = base / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def test_compute_ci_matches_frozen_oracle_values():
    # frozen output of an independent numerical root finder
    frozen = {
        (0, 10): (0.0, 0.2775327998628915),
        (10, 10): (0.7224672001371085, 1.0),
        (9, 10): (0.5958499732047615, 0.9821237869049271),
        (8, 10): (0.4901624715366418, 0.9433178485456247),
        (1, 13): (0.013710421242556598, 0.3331395092109959),
    }
    for (s, n), (lo, hi) in frozen.items():
        got_lo, got_hi = compute_ci(s, n, 0.95)
        assert got_lo == pytest.approx(lo, abs=1e-9)
        assert got_hi == pytest.approx(hi, abs=1e-9)


def test_compute_ci_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_ci(0, 0)
    with pytest.raises(ValueError):
        compute_ci(-1, 10)
    with pytest.raises(ValueError):
        compute_ci(11, 10)


def test_compute_ci_bounds_are_ordered_and_clamped():
    for s, n in [(0, 1), (1, 1), (3, 7), (25, 40)]:
        lo, hi = compute_ci(s, n)
        assert 0.0 <= lo <= hi <= 1.0


def test_fix_ub_free_file_prints_pass(tmp_path, capsys):
    path = tmp_path / "main.rs"
    path.write_text(CLEAN_SOURCE, encoding="utf-8")
    assert main(_fix(path, "--no-kb")) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "pass"
    assert "errors: 0 -> 0" in out


def test_fix_repairs_corpus_case_and_exits_zero(tmp_path, capsys):
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    assert main(_fix(case, "--no-kb")) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "pass"
    assert "errors: 1 -> 0" in out
    assert "acceptability: unknown" in out


def test_fix_json_report_shape(tmp_path, capsys):
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    assert main(_fix(case, "--no-kb", "--report", "json")) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "schema_version",
        "target",
        "verdict",
        "baseline_errors",
        "final_errors",
        "triplet",
        "trace",
        "rollbacks",
        "changed_files",
        "store_hits",
    }
    assert payload["schema_version"] == 1
    assert payload["store_hits"] == {"detections": 0, "reference_verdicts": 0, "answers": 0}
    assert payload["verdict"] == "pass"
    assert payload["baseline_errors"] == 1
    assert payload["final_errors"] == 0
    assert payload["triplet"]["accuracy"] is True
    assert payload["triplet"]["acceptability"] is None
    assert payload["changed_files"]


@pytest.mark.parametrize(
    "kind", sorted(p.name for p in CORPUS_DIR.iterdir() if (p / "main.rs").is_file())
)
def test_fix_json_hands_over_each_changed_files_unified_diff(tmp_path, capsys, kind):
    case = copy_fixture(CORPUS_DIR / kind, tmp_path)
    original = (case / "main.rs").read_text(encoding="utf-8").splitlines()
    main(_fix(case, "--no-kb", "--report", "json"))
    (changed,) = json.loads(capsys.readouterr().out)["changed_files"]
    lines = changed["patch"].splitlines()
    assert lines[:2] == ["--- a/main.rs", "+++ b/main.rs"] and changed["patch"].endswith("\n")
    body = lines[2:]
    assert body[0].startswith("@@ ")
    removed = [line[1:] for line in body if line.startswith("-")]
    added = [line for line in body if line.startswith("+")]
    assert (len(added), len(removed)) == (changed["added"], changed["removed"])
    assert all(line in original for line in removed)
    assert all(line[:1] in "@ +-" for line in body)


@needs_rustc
def test_fix_with_reference_upgrades_to_semantic_pass(tmp_path, capsys):
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    ref = copy_fixture(CORPUS_DIR / "refs" / "stack_borrow", tmp_path / "refs")
    code = main(_fix(case, "--no-kb", "--report", "json", "--reference", str(ref)))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "semantic_pass"
    assert payload["triplet"]["acceptability"] is True


@needs_rustc
def test_a_repaired_program_reading_stdin_to_eof_gets_eof_at_once(tmp_path):
    # ubmend's stdin is a pipe whose write end stays open: a child that took
    # it over would wait there until the reference run's timeout
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    source = (case / "main.rs").read_text(encoding="utf-8")
    reads_stdin = (
        "fn main() {\n"
        "    let mut input = String::new();\n"
        "    std::io::Read::read_to_string(&mut std::io::stdin(), &mut input).unwrap();\n"
    )
    (case / "main.rs").write_text(source.replace("fn main() {\n", reads_stdin, 1), encoding="utf-8")
    ref = copy_fixture(CORPUS_DIR / "refs" / "stack_borrow", tmp_path / "refs")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "ubmend.cli", *_fix(case / "main.rs", "--no-kb", "--report", "json", "--reference", str(ref))]
    out, err = tmp_path / "out.json", tmp_path / "err.txt"
    with out.open("wb") as stdout, err.open("wb") as stderr:
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=stdout, stderr=stderr, env=env, cwd=tmp_path)
        try:
            code = proc.wait(timeout=feedback.REFERENCE_RUN_TIMEOUT / 3)
        finally:
            # EOF lets a child still waiting end, and ubmend clean up after it
            proc.stdin.close()
            try:
                proc.wait(timeout=2 * feedback.REFERENCE_RUN_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    assert code == 0, err.read_text(errors="replace")
    assert json.loads(out.read_text(encoding="utf-8"))["verdict"] == "semantic_pass"


def test_fix_of_a_target_with_an_unreadable_tracked_file_is_a_usage_error(tmp_path, capsys):
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    (case / "extra.rs").symlink_to(case / "missing.rs")
    assert main(_fix(case / "main.rs", "--no-kb")) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "extra.rs" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_bench_rejects_a_case_with_an_unreadable_tracked_file(tmp_path, capsys):
    manifest = _bench_dir(tmp_path, ["stack_borrow"])
    extra = manifest.parent / "stack_borrow" / "extra.rs"
    extra.symlink_to(extra.parent / "missing.rs")
    assert main(_bench(manifest, "--no-kb", "--report", "json")) == 0
    captured = capsys.readouterr()
    (row,) = json.loads(captured.out)["cases"]
    assert row["verdict"] == "failed"
    assert row["note"].startswith("TargetRejected:") and "extra.rs" in row["note"]
    assert "Traceback" not in captured.err


def test_fix_unfixable_case_exits_one(tmp_path, capsys):
    path = tmp_path / "main.rs"
    path.write_text(UB_INSIDE_AND_OUT, encoding="utf-8")
    assert main(_fix(path, "--no-kb", "--solutions", "2")) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "failed"
    # the untouchable report survives; the final state is the best seen
    assert "-> 1" in out


def test_fix_of_a_report_outside_every_unsafe_region_asks_no_model(tmp_path, capsys, monkeypatch):
    # no unsafe region to patch: planning one would spend tokens on steps
    # that can only come back "region unresolvable"
    path = tmp_path / "main.rs"
    path.write_text(
        "fn main() {\n"
        "    let v: Vec<i32> = Vec::new();\n"
        "    let _x = v[0]; //~ABORT index out of bounds: the len is 0 but the index is 0\n"
        "}\n",
        encoding="utf-8",
    )
    asked: list[str] = []

    def refuse(self, prompt):
        asked.append(prompt)
        raise AssertionError("no model call expected")

    monkeypatch.setattr(Provider, "complete", refuse)
    assert main(_fix(path, "--no-kb", "--report", "json")) == 1
    payload = json.loads(capsys.readouterr().out)
    assert asked == []
    assert payload["verdict"] == "failed"
    assert payload["trace"]["thoughts"] == []
    assert payload["triplet"]["overhead_tokens"] == 0


def test_fix_bad_temperature_is_usage_error(tmp_path, capsys):
    path = tmp_path / "main.rs"
    path.write_text(CLEAN_SOURCE, encoding="utf-8")
    assert main(_fix(path, "--temperature", "3.0")) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fix_replay_without_transcript_is_usage_error(tmp_path, capsys):
    path = tmp_path / "main.rs"
    path.write_text(CLEAN_SOURCE, encoding="utf-8")
    assert main(_fix(path, "--provider", "replay")) == 2
    assert "transcript" in capsys.readouterr().err


def test_fix_missing_target_is_usage_error(tmp_path, capsys):
    assert main(_fix(tmp_path / "absent.rs")) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fix_missing_detector_tool_is_usage_error(tmp_path, capsys):
    path = tmp_path / "main.rs"
    path.write_text(UB_INSIDE_AND_OUT, encoding="utf-8")
    args = ["fix", str(path), "--detector-cmd", "no-such-detector-binary {file}", "--fixed-clock"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_relative_detector_path_is_taken_from_the_invoking_directory(tmp_path, capsys, monkeypatch):
    manifest = _bench_dir(tmp_path, ["stack_borrow"])
    monkeypatch.chdir(TOOLS_DIR.parent)
    relative = ["--detector-cmd", "tools/fake_miri.py {file}", "--fixed-clock"]
    assert main(["bench", str(manifest), "--report", "json", *relative]) == 0
    assert [c["verdict"] for c in json.loads(capsys.readouterr().out)["cases"]] == ["pass"]
    path = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path / "fix") / "main.rs"
    assert main(["fix", str(path), *relative]) == 0


def test_a_detector_that_fails_shows_its_output(tmp_path, capsys, monkeypatch):
    # only the program word is resolved, so the interpreter looks for its
    # script inside the working copy; the error blames the command, shows
    # it, and says why, not just the exit
    monkeypatch.chdir(TOOLS_DIR.parent)
    path = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path) / "main.rs"
    given = f"{shlex.quote(sys.executable)} tools/fake_miri.py {{file}}"
    assert main(["fix", str(path), "--fixed-clock", "--detector-cmd", given]) == 2
    err = capsys.readouterr().err
    command = given.format(file="main.rs")
    assert err.startswith(
        f"error: detection command exited 2 with no UB report and no compiler error: {command}\n"
    )
    assert "{root}/tools/fake_miri.py" in err and "No such file" in err


def _detector(args) -> DetectorConfig:
    """The detector settings a run with ``args`` uses."""
    return cli._session_config(args, cli.LogicalClock(), CaseMemo(), kb_enabled=False).detector


def test_the_default_detector_command_is_the_detector_configs():
    args = cli.build_parser().parse_args(["fix", "main.rs"])
    assert _detector(args) == DetectorConfig()


@pytest.mark.parametrize("argv", [["fix", "main.rs"], ["bench", "manifest.jsonl"]])
def test_the_default_provider_settings_are_the_provider_configs(argv):
    # --provider, --model and --temperature default to ProviderConfig's fields
    args = cli.build_parser().parse_args(argv)
    assert cli._provider_config(args) == ProviderConfig()


@pytest.mark.parametrize(
    ("given", "tool"),
    [
        ("tools/fake_miri.py {file}", str(TOOLS_DIR / "fake_miri.py")),
        ("python3 tools/fake_miri.py {file}", "python3"),
        ("{root}/miri {file}", "{root}/miri"),
        ("/usr/bin/miri {file}", "/usr/bin/miri"),
    ],
)
def test_detector_config_resolves_only_relative_tool_paths(monkeypatch, given, tool):
    monkeypatch.chdir(TOOLS_DIR.parent)
    args = cli.build_parser().parse_args(["fix", "main.rs", "--detector-cmd", given])
    command = _detector(args).command
    assert command[0] == tool
    assert command[1:] == tuple(shlex.split(given))[1:]


@pytest.mark.parametrize("command", ["fix", "bench"])
def test_an_unclosed_quote_in_the_detector_command_is_a_usage_error(tmp_path, capsys, command):
    manifest = _bench_dir(tmp_path, ["stack_borrow"])
    given = manifest if command == "bench" else manifest.parent / "stack_borrow" / "main.rs"
    with pytest.raises(SystemExit) as exc:
        main([command, str(given), "--fixed-clock", "--detector-cmd", "python3 'oops"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--detector-cmd" in captured.err and "No closing quotation" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("given", ["", "   "])
@pytest.mark.parametrize("command", ["fix", "bench"])
def test_an_empty_detector_command_is_a_usage_error(tmp_path, capsys, command, given):
    # it must not fall back to the default command
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "target"), "--detector-cmd", given])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--detector-cmd" in captured.err and "empty command" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("given", ["echo {files}", "echo {}", "echo {"])
@pytest.mark.parametrize("command", ["fix", "bench"])
def test_a_placeholder_the_detector_cannot_render_is_a_usage_error(tmp_path, capsys, monkeypatch, command, given):
    # an unknown name, a bare index and an unbalanced brace
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    manifest = _bench_dir(tmp_path, ["stack_borrow"])
    target = manifest if command == "bench" else manifest.parent / "stack_borrow" / "main.rs"
    with pytest.raises(SystemExit) as exc:
        main([command, str(target), "--fixed-clock", "--detector-cmd", given])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--detector-cmd" in captured.err and "bad placeholder" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert [p.name for p in scratch.iterdir() if p.name.startswith("ubmend-")] == []


@pytest.mark.parametrize("value", ["0", "-1", "-0.5", "nan", "inf", "-inf", "soon"])
@pytest.mark.parametrize("command", ["fix", "bench"])
def test_a_timeout_that_is_not_a_finite_positive_number_is_a_usage_error(tmp_path, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "target"), f"--timeout={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --timeout" in captured.err and captured.out == ""


def test_a_positive_timeout_is_taken_as_seconds():
    args = cli.build_parser().parse_args(["fix", "main.rs", "--timeout", "2.5"])
    assert _detector(args).timeout == 2.5


@pytest.mark.parametrize("command", ["fix", "bench"])
def test_a_bad_reference_bundle_file_is_reported_not_raised(tmp_path, capsys, command):
    manifest = _bench_dir(tmp_path, ["stack_borrow"], with_refs=True)
    ref = manifest.parent / "refs" / "stack_borrow"
    (ref / "expected_exit.txt").write_text("zero\n", encoding="utf-8")
    if command == "fix":
        case = manifest.parent / "stack_borrow" / "main.rs"
        assert main(_fix(case, "--reference", str(ref))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ref / "expected_exit.txt") in err
        assert "Traceback" not in err
    else:
        assert main(_bench(manifest, "--report", "json")) == 0
        captured = capsys.readouterr()
        row = json.loads(captured.out)["cases"][0]
        assert row["verdict"] == "failed"
        assert row["note"].startswith("StorageFailure: ") and "expected_exit.txt" in row["note"]
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["fix", "bench"])
def test_a_reference_bundle_with_tests_cmd_is_refused(tmp_path, capsys, command):
    manifest = _bench_dir(tmp_path, ["stack_borrow"], with_refs=True)
    ref = manifest.parent / "refs" / "stack_borrow"
    (ref / "tests.cmd").write_text("{prog} > /dev/null\n", encoding="utf-8")
    if command == "fix":
        case = manifest.parent / "stack_borrow" / "main.rs"
        assert main(_fix(case, "--reference", str(ref))) == 2
        assert capsys.readouterr().err.startswith(f"error: {ref / 'tests.cmd'}: ")
    else:
        assert main(_bench(manifest, "--report", "json")) == 0
        row = json.loads(capsys.readouterr().out)["cases"][0]
        assert row["verdict"] == "failed"
        assert row["note"].startswith(f"StorageFailure: {ref / 'tests.cmd'}: ")


def test_bench_without_detector_reports_then_exits_two(tmp_path, capsys):
    manifest = _bench_dir(tmp_path, ["stack_borrow", "unaligned_pointer"])
    args = ["bench", str(manifest), "--report", "json", "--fixed-clock"]
    assert main([*args, "--detector-cmd", "no-such-detector-binary {file}"]) == 2
    captured = capsys.readouterr()
    assert [c["verdict"] for c in json.loads(captured.out)["cases"]] == ["failed", "failed"]
    assert captured.err.splitlines()[-1] == (
        "error: 2 of 2 cases had no detector: detection tool not found: no-such-detector-binary"
    )


def test_fix_record_then_replay_reproduces_report(tmp_path, capsys):
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    transcript = tmp_path / "t.jsonl"
    assert (
        main(_fix(case, "--no-kb", "--report", "json", "--transcript", str(transcript))) == 0
    )
    recorded = capsys.readouterr().out
    assert transcript.is_file()
    code = main(
        _fix(
            case,
            "--no-kb",
            "--report",
            "json",
            "--provider",
            "replay",
            "--transcript",
            str(transcript),
        )
    )
    assert code == 0
    assert capsys.readouterr().out == recorded


@pytest.mark.parametrize(
    "line", [b"\xff\xfe not UTF-8\n", b'["x"]\n'], ids=["not-utf-8", "not-an-object"]
)
def test_fix_replay_of_a_bad_transcript_is_usage_error(tmp_path, capsys, line):
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    transcript = tmp_path / "t.jsonl"
    transcript.write_bytes(b'{"hash": "h", "response": "r"}\n' + line)
    assert main(_fix(case, "--provider", "replay", "--transcript", str(transcript))) == 2
    assert capsys.readouterr().err.startswith(f"error: {transcript}:2: bad transcript entry: ")


def test_nonpositive_count_flags_are_rejected(tmp_path):
    path = tmp_path / "main.rs"
    path.write_text(CLEAN_SOURCE, encoding="utf-8")
    for flag in ("--solutions", "--max-iterations"):
        with pytest.raises(SystemExit) as exc:
            main(_fix(path, flag, "0"))
        assert exc.value.code == 2


def test_bench_small_manifest_json_report(tmp_path, capsys):
    manifest = _bench_dir(tmp_path, ["stack_borrow", "unaligned_pointer"])
    before = (manifest.parent / "stack_borrow" / "main.rs").read_bytes()
    assert main(_bench(manifest, "--report", "json")) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert [c["id"] for c in payload["cases"]] == ["b01", "b02"]
    assert payload["totals"]["cases"] == 2
    assert payload["pass_rate"] == 1.0
    assert payload["ci_95"]["pass_rate"][0] == pytest.approx(0.3423802275066531, abs=1e-9)
    # repairs run on working copies; the corpus files stay untouched
    assert (manifest.parent / "stack_borrow" / "main.rs").read_bytes() == before


def test_bench_table_report_summarizes_rates(tmp_path, capsys):
    manifest = _bench_dir(tmp_path, ["stack_borrow"])
    assert main(_bench(manifest, "--report", "table", "--no-kb")) == 0
    out = capsys.readouterr().out
    assert "pass_rate: 1/1" in out
    assert "exec_rate: 0/1" in out
    assert "b01" in out


def test_bench_jobs_flag_does_not_change_output(tmp_path, capsys):
    manifest = _bench_dir(tmp_path, ["stack_borrow", "unaligned_pointer", "alloc"])
    runs = []
    for jobs in ("1", "2"):
        files = [tmp_path / f"{name}-{jobs}.jsonl" for name in ("kb", "experience", "transcript")]
        stores = ["--kb", str(files[0]), "--experience", str(files[1]), "--transcript", str(files[2])]
        assert main(_bench(manifest, "--report", "json", "--jobs", jobs, *stores)) == 0
        runs.append([capsys.readouterr().out, *(path.read_bytes() for path in files)])
    serial, parallel = runs
    assert all(serial)
    assert parallel == serial


def _twin_manifest(path: Path, kinds: list[str], copies: tuple[str, ...] = ("a", "b")) -> Path:
    """A manifest listing each corpus fixture of ``kinds`` once per copy
    suffix, every copy by the fixture's own absolute paths."""
    lines = []
    for kind in kinds:
        for copy in copies:
            entry = {"id": f"{kind}-{copy}", "path": str(CORPUS_DIR / kind / "main.rs"), "ub_kind": kind}
            if (CORPUS_DIR / "refs" / kind).is_dir():
                entry["reference"] = str(CORPUS_DIR / "refs" / kind)
            lines.append(json.dumps(entry))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_a_bench_asks_each_distinct_prompt_once_and_charges_every_case_for_it(tmp_path, capsys, monkeypatch):
    # no plan answer carries code, so fix prompts are asked too; panic has
    # no reference
    kinds = ["stack_borrow", "validity", "panic"]
    manifest = _twin_manifest(tmp_path / "twins.jsonl", kinds)
    asked: list[tuple[str, bool]] = []
    complete = Provider.complete

    def counted(self, prompt):
        asked.append((self.hash_of(prompt), MARKER_FIX in prompt))
        return complete(self, prompt)

    monkeypatch.setattr(Provider, "complete", counted)
    monkeypatch.setattr(ScriptedMockProvider, "_step_code", lambda self, *step: None)

    def bench(manifest: Path, name: str, *extra: str) -> list:
        files = [tmp_path / f"{store}-{name}.jsonl" for store in ("kb", "experience", "transcript")]
        stores = ["--kb", str(files[0]), "--experience", str(files[1]), "--transcript", str(files[2])]
        assert main(_bench(manifest, "--report", "json", *stores, *extra)) == 0
        return [capsys.readouterr().out, *(path.read_bytes() for path in files)]

    runs = []
    for jobs in ("1", "2"):
        asked.clear()
        runs.append(bench(manifest, f"jobs{jobs}", "--jobs", jobs))
        # a twin's prompts are its partner's: each reaches the model once
        assert any(fix for _, fix in asked) and len(asked) == len(set(asked))
    serial, parallel = runs
    assert parallel == serial
    rows = {row.pop("id"): row for row in json.loads(serial[0])["cases"]}
    for kind in kinds:
        assert rows[f"{kind}-a"] == rows[f"{kind}-b"]
        solo = _twin_manifest(tmp_path / f"{kind}.jsonl", [kind], copies=("a",))
        (alone,) = json.loads(bench(solo, kind)[0])["cases"]
        assert alone.pop("id") == f"{kind}-a" and alone == rows[f"{kind}-a"]
        assert alone["tokens"] > 0


def test_an_over_budget_target_is_rejected_by_fix_and_fails_its_bench_row(tmp_path, capsys, caplog):
    case = tmp_path / "big" / "main.rs"
    case.parent.mkdir()
    case.write_text(CLEAN_SOURCE + "// " + "x" * (4 * DEFAULT_TOKEN_BUDGET) + "\n", encoding="utf-8")
    assert main(_fix(case)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: estimated ") and f"exceeds budget {DEFAULT_TOKEN_BUDGET}" in err
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"id": "b01", "path": "big/main.rs", "ub_kind": "alloc"}) + "\n")
    assert main(_bench(manifest, "--report", "json")) == 0
    (row,) = json.loads(capsys.readouterr().out)["cases"]
    assert row["verdict"] == "failed"
    assert row["note"].startswith("TargetRejected: estimated ")
    assert "case b01 failed: estimated " in caplog.text


@pytest.mark.parametrize("name", ["main.rs", "util.rs", "Cargo.toml"])
def test_a_tracked_file_that_is_not_utf8_is_rejected_by_fix_and_fails_its_bench_row(
    tmp_path, capsys, caplog, name
):
    # the entry file, a sibling source or the manifest the working copy carries
    case = tmp_path / "bad" / "main.rs"
    case.parent.mkdir()
    case.write_text(CLEAN_SOURCE, encoding="utf-8")
    (case.parent / name).write_bytes(b"fn f() {}\n// \xff\n")
    expected = f"{case.parent / name}: not UTF-8 text"
    assert main(_fix(case)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {expected}\n")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"id": "b01", "path": "bad/main.rs", "ub_kind": "alloc"}) + "\n")
    assert main(_bench(manifest, "--report", "json")) == 0
    (row,) = json.loads(capsys.readouterr().out)["cases"]
    assert (row["verdict"], row["note"]) == ("failed", f"TargetRejected: {expected}")
    assert f"case b01 failed: {expected}" in caplog.text and "raised" not in caplog.text


def test_bench_turns_a_provider_failure_into_a_failed_row(tmp_path, capsys, caplog, monkeypatch):
    def unavailable(config):
        raise ProviderFailure("backend unavailable")

    monkeypatch.setattr(cli, "create_provider", unavailable)
    manifest = _bench_dir(tmp_path, ["stack_borrow"])
    assert main(_bench(manifest, "--report", "json")) == 0
    (row,) = json.loads(capsys.readouterr().out)["cases"]
    assert (row["verdict"], row["note"]) == ("failed", "ProviderFailure: backend unavailable")
    assert [r.getMessage() for r in caplog.records] == ["case b01 failed: backend unavailable"]


class _Body:
    """A chat-completions response with status 200 and body ``text``."""

    status_code = 200

    def __init__(self, text: str) -> None:
        self.text = text

    def json(self):
        return json.loads(self.text)


@pytest.mark.parametrize(
    "body",
    ["<html>quota exceeded</html>", '{"error": "quota"}', '{"choices": [{"message": {"content": null}}]}'],
    ids=["not-json", "no-choices", "null-content"],
)
def test_a_live_answer_without_content_fails_once_with_a_usage_error(tmp_path, capsys, caplog, monkeypatch, body):
    import requests

    posts = []

    def post(url, **kwargs):
        posts.append(url)
        return _Body(body)

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setenv("RUSTBRAIN_API_KEY", "test-key")
    monkeypatch.setenv("RUSTBRAIN_API_BASE", "http://localhost:9")
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    assert main(_fix(case, "--provider", "live", "--no-kb")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: HTTP 200 body has no string choices[0].message.content: ")
    assert body[:20] in err and "Traceback" not in err
    assert len(posts) == 1  # not retried
    manifest = _bench_dir(tmp_path, ["stack_borrow"])
    assert main(_bench(manifest, "--report", "json", "--provider", "live", "--no-kb")) == 0
    (row,) = json.loads(capsys.readouterr().out)["cases"]
    assert row["verdict"] == "failed"
    assert row["note"].startswith("HttpFailure: HTTP 200 body has no string choices[0].message.content: ")
    assert "Traceback" not in caplog.text


def test_the_live_backend_posts_the_normalised_prompt_as_one_user_message(tmp_path, capsys, monkeypatch):
    # acceptance 08, the live smoke test, is skipped offline: this pins the
    # request body, headers and URL instead. The first page's prompt is one
    # the golden bench transcript records, normalised as every transcript is.
    import requests

    posts = []

    def post(url, **kwargs):
        posts.append((url, kwargs))
        return _Body('{"choices": []}')

    monkeypatch.setattr(requests, "post", post)
    monkeypatch.setenv("RUSTBRAIN_API_KEY", "test-key")
    monkeypatch.setenv("RUSTBRAIN_API_BASE", "http://localhost:9/v1/")
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    assert main(_fix(case, "--provider", "live", "--no-kb", "--temperature", "0.25")) == 2
    capsys.readouterr()
    ((url, kwargs),) = posts
    assert url == "http://localhost:9/v1/chat/completions"
    assert kwargs["headers"] == {"Authorization": "Bearer test-key"}
    body = kwargs["json"]
    assert sorted(body) == ["messages", "model", "temperature"]
    assert (body["model"], body["temperature"]) == ("gpt-4", 0.25)
    golden = FIXTURES_DIR / "golden" / "bench_json.transcript.jsonl"
    recorded = [json.loads(line)["prompt"]["messages"] for line in golden.read_text(encoding="utf-8").splitlines()]
    assert body["messages"] in recorded
    (message,) = body["messages"]
    assert message["role"] == "user" and MARKER_PLAN in message["content"]
    assert message["content"] == message["content"].rstrip() and "\r" not in message["content"]


def test_bench_duplicate_case_id_is_usage_error(tmp_path, capsys):
    case = tmp_path / "main.rs"
    case.write_text(CLEAN_SOURCE, encoding="utf-8")
    manifest = tmp_path / "m.jsonl"
    line = json.dumps({"id": "dup", "path": "main.rs", "ub_kind": "unknown"})
    manifest.write_text(line + "\n" + line + "\n", encoding="utf-8")
    assert main(_bench(manifest)) == 2
    assert "duplicate case id" in capsys.readouterr().err


def test_bench_missing_case_path_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        json.dumps({"id": "x", "path": "absent.rs", "ub_kind": "unknown"}) + "\n",
        encoding="utf-8",
    )
    assert main(_bench(manifest)) == 2
    assert "does not exist" in capsys.readouterr().err


def test_bench_empty_manifest_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("\n\n", encoding="utf-8")
    assert main(_bench(manifest)) == 2
    assert "empty manifest" in capsys.readouterr().err


def test_bench_malformed_manifest_line_is_usage_error(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("{not json\n", encoding="utf-8")
    assert main(_bench(manifest)) == 2
    assert "bad manifest line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, why",
    [
        (b'{"id": "c02", "path": "main.rs", "reference": 5}', b"unsupported operand"),
        (b'{"id": "c02", "path": "main\xff.rs"}', b"can't decode byte 0xff"),
    ],
    ids=["reference-not-a-path", "not-utf8"],
)
def test_bench_manifest_line_that_cannot_name_its_files_is_usage_error(tmp_path, capsys, line, why):
    (tmp_path / "main.rs").write_text(CLEAN_SOURCE, encoding="utf-8")
    manifest = tmp_path / "m.jsonl"
    manifest.write_bytes(b'{"id": "c01", "path": "main.rs"}\n' + line + b"\n")
    assert main(_bench(manifest)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}:2: bad manifest line: ")
    assert why.decode() in err and "Traceback" not in err


def test_bench_missing_manifest_file_is_usage_error(tmp_path, capsys):
    assert main(_bench(tmp_path / "absent.jsonl")) == 2
    assert "no such manifest" in capsys.readouterr().err


def _corrupt_store(tmp_path: Path) -> Path:
    store = tmp_path / "bad.jsonl"
    store.write_text("{not json\n", encoding="utf-8")
    return store


def test_fix_corrupt_kb_is_usage_error(tmp_path, capsys):
    path = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path) / "main.rs"
    store = _corrupt_store(tmp_path)
    assert main(_fix(path, "--kb", str(store))) == 2
    assert capsys.readouterr().err.startswith(f"error: {store}:1: bad knowledge entry")


def test_fix_unlexable_source_is_usage_error(make_target, capsys):
    path = make_target(
        "fn main() {\n"
        "    let p = &1i32 as *const i32;\n"
        "    unsafe {\n"
        "        //~UB Undefined Behavior: trying to retag from <90> for Unique permission\n"
        "        let _ = *p;\n"
        "}\n"
    )
    assert main(_fix(path)) == 2
    err = capsys.readouterr().err
    assert err == "error: main.rs:1: unbalanced braces from offset 10\n"


@pytest.mark.parametrize(
    ("flag", "what"), [("--kb", "knowledge entry"), ("--experience", "experience record")]
)
def test_bench_corrupt_store_is_usage_error(tmp_path, capsys, flag, what):
    manifest = _bench_dir(tmp_path, ["stack_borrow"])
    store = _corrupt_store(tmp_path)
    assert main(_bench(manifest, flag, str(store))) == 2
    assert capsys.readouterr().err.startswith(f"error: {store}:1: bad {what}")


def _narrow_store(tmp_path: Path, flag: str) -> Path:
    """A store of one well-formed line whose vector is 8 dims wide."""
    vector = {"dims": 8, "nz": [[1, 1.0]]}
    triplet = {"accuracy": True, "acceptability": None, "overhead_seconds": 1.0, "overhead_tokens": 1}
    steps = [{"agent": "SafeReplace", "target_region": "main.rs#0", "instruction": "fix"}]
    if flag == "--kb":
        line = {"vector": vector, "ub_kind": "unaligned_pointer", "solution": {"steps": steps}, "triplet": triplet}
    else:
        line = {
            "feature_vector": vector,
            "ub_kind": "unaligned_pointer",
            "solution_id": "s01",
            "triplet": triplet,
            "solution_signature": [["SafeReplace", "main.rs#0"]],
        }
    store = tmp_path / "narrow.jsonl"
    store.write_text(json.dumps(line) + "\n", encoding="utf-8")
    return store


@pytest.mark.parametrize("command", ["fix", "bench"])
@pytest.mark.parametrize("flag", ["--experience", "--kb"])
def test_a_stored_vector_of_the_wrong_width_is_usage_error(tmp_path, capsys, command, flag):
    store = _narrow_store(tmp_path, flag)
    if command == "fix":
        args = _fix(copy_fixture(CORPUS_DIR / "unaligned_pointer", tmp_path) / "main.rs", flag, str(store))
    else:
        args = _bench(_bench_dir(tmp_path, ["unaligned_pointer"]), flag, str(store))
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    what = "experience record" if flag == "--experience" else "knowledge entry"
    assert captured.err == f"error: {store}:1: bad {what}: vector of 8 dims, not 256\n"


@pytest.mark.parametrize("command", ["fix", "bench"])
@pytest.mark.parametrize("flag", ["--experience", "--kb", "--transcript"])
def test_a_store_or_transcript_that_cannot_be_written_is_usage_error(tmp_path, capsys, command, flag):
    # a path under a regular file: its directory cannot be made
    (tmp_path / "afile").write_text("", encoding="utf-8")
    unwritable = tmp_path / "afile" / "out.jsonl"
    if command == "fix":
        args = _fix(copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path) / "main.rs", flag, str(unwritable))
    else:
        args = _bench(_bench_dir(tmp_path, ["stack_borrow"]), flag, str(unwritable))
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {unwritable}: cannot ")
    assert captured.err.count("\n") == 1


def test_fix_json_report_of_a_baseline_detection_timeout_is_json(make_target, capsys, monkeypatch):
    monkeypatch.setattr(detector, "run_group", run_stub_in_process)
    path = make_target("fn main() {\n    //~SLEEP 3\n}\n")
    assert main(_fix(path, "--timeout", "1", "--report", "json")) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload == {
        "error": payload["error"],
        "schema_version": 1,
        "target": str(path),
        "verdict": "failed",
    }
    assert captured.err == f"error: {payload['error']}\n"


def test_load_manifest_resolves_paths_relative_to_manifest(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "case.rs").write_text(CLEAN_SOURCE, encoding="utf-8")
    manifest = sub / "m.jsonl"
    manifest.write_text(
        json.dumps({"id": "c", "path": "case.rs", "ub_kind": "validity"}) + "\n",
        encoding="utf-8",
    )
    cases = load_manifest(manifest)
    assert cases[0].path == sub / "case.rs"
    assert cases[0].ub_kind == "validity"
    assert cases[0].reference is None


TWO_REGIONS = (
    "fn main() {\n"
    "    let mut value = 3i32;\n"
    "    let alias = &mut value as *mut i32;\n"
    "    unsafe {\n"
    "        //~UB Undefined Behavior: trying to retag from <90> for Unique permission\n"
    "        let _ = *alias;\n"
    "    }\n"
    "    unsafe {\n"
    "        //~UB Undefined Behavior: trying to retag from <91> for Unique permission\n"
    "        let _ = *alias;\n"
    "    }\n"
    "}\n"
)


def test_fix_reports_session_baseline_and_all_thoughts(tmp_path, capsys, monkeypatch):
    # solution 1 repairs one of the two regions, solution 2 the other
    def one_region_each(features, k, provider, tried):
        return [] if tried else [
            RepairSolution(
                id=f"s0{i + 1}",
                steps=[RepairStep(AgentKind.MODIFY_SEMANTICS, f"main.rs#{i}", "rewrite the region")],
            )
            for i in range(2)
        ]

    monkeypatch.setattr(cli, "generate_solutions", one_region_each)
    path = tmp_path / "main.rs"
    path.write_text(TWO_REGIONS, encoding="utf-8")
    assert main(_fix(path, "--no-kb")) == 0
    out = capsys.readouterr().out
    assert "errors: 2 -> 0" in out
    assert "thoughts: 2, rollbacks: 0" in out
    assert main(_fix(path, "--no-kb", "--report", "json")) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["baseline_errors"] == 2
    assert payload["trace"]["counts"] == [1, 0]


def test_fix_and_bench_leave_no_temp_trees(tmp_path, monkeypatch, capsys):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path / "fix")
    assert main(_fix(case, "--no-kb")) == 0
    manifest = _bench_dir(tmp_path, ["stack_borrow", "unaligned_pointer"], with_refs=True)
    assert main(_bench(manifest)) == 0
    capsys.readouterr()
    assert [p.name for p in scratch.iterdir() if p.name.startswith("ubmend-")] == []


def test_bench_turns_a_crashing_case_into_a_failed_row(tmp_path, capsys, monkeypatch):
    manifest = _bench_dir(tmp_path, ["stack_borrow", "unaligned_pointer"])
    assert main(_bench(manifest, "--report", "json")) == 0
    healthy = {c["id"]: c for c in json.loads(capsys.readouterr().out)["cases"]}
    real_case = cli._bench_case

    def crash_first(case, *rest):
        if case.id == "b01":
            raise OSError("disk on fire")
        return real_case(case, *rest)

    monkeypatch.setattr(cli, "_bench_case", crash_first)
    assert main(_bench(manifest, "--report", "json")) == 0
    rows = {c["id"]: c for c in json.loads(capsys.readouterr().out)["cases"]}
    assert rows["b01"]["verdict"] == "failed"
    assert rows["b01"]["note"] == "OSError: disk on fire"
    assert rows["b02"] == healthy["b02"]


# exact answers for the slice, with and without a compiler for the reference check
SLICE = ["stack_borrow", "panic", "data_race"]
SLICE_ANSWERS = (
    [("semantic_pass", True), ("pass", None), ("pass", False)]
    if shutil.which("rustc")
    else [("pass", None)] * 3
)


def test_bench_detects_each_working_copy_state_once_per_case(tmp_path, capsys, monkeypatch):
    rustc = shutil.which("rustc")
    if rustc:
        shim, compiles = counting_rustc(tmp_path / "shims")
        monkeypatch.setenv("PATH", f"{shim.parent}:{os.environ['PATH']}")
    manifest = _bench_dir(tmp_path, SLICE, with_refs=True)
    log = tmp_path / "spawns.jsonl"
    args = [
        "bench",
        str(manifest),
        "--detector-cmd",
        shlex.join(counting_detector_command(log)),
        "--fixed-clock",
        "--report",
        "json",
    ]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    got = [(c["verdict"], c["acceptability"]) for c in payload["cases"]]
    assert got == SLICE_ANSWERS
    spawns = spawn_log(log)
    # per case: the baseline and the repaired state; the no-knowledge run's
    # detections all reuse them
    assert len(spawns) == 2 * len(SLICE)
    for kind in SLICE:
        original = hashlib.sha256((CORPUS_DIR / kind / "main.rs").read_bytes()).hexdigest()
        assert sum(s["files"] == {"main.rs": original} for s in spawns) == 1
    if rustc:
        # one reference compile per case with a bundle (panic has none)
        assert compiles() == 2


def test_fix_verdict_rests_on_a_clean_detection_of_the_final_bytes(tmp_path):
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    log = tmp_path / "spawns.jsonl"
    settings = SessionConfig(
        memo=CaseMemo(),
        detector=DetectorConfig(command=counting_detector_command(log), timeout=30.0),
        solutions_k=10,
        budget=5,
        kb_enabled=False,
        clock=cli.LogicalClock(),
    )
    provider = ScriptedMockProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK))
    target = TargetPackage.from_path(case / "main.rs")
    outcome, triplet, originals = repair_one(target, provider, FeedbackEngine(), settings)
    assert outcome.verdict.value == "pass" and triplet.accuracy
    final = hashlib.sha256(outcome.final_source["main.rs"].encode("utf-8")).hexdigest()
    assert final != hashlib.sha256(originals["main.rs"].encode("utf-8")).hexdigest()
    spawns = spawn_log(log)
    assert {"args": ["main.rs"], "files": {"main.rs": final}, "status": 0} in spawns
    assert all(s["args"] == ["main.rs"] for s in spawns)


def test_bench_asks_the_model_each_prompt_once_per_case(tmp_path, capsys, monkeypatch):
    # every Provider.complete call, by the repair run it belongs to
    manifest = _bench_dir(tmp_path, SLICE, with_refs=True)
    run = threading.local()
    calls: dict[tuple[str, bool], list[str]] = {}
    real_repair_one, real_complete = cli.repair_one, Provider.complete

    def labelled_repair_one(target, provider, engine, settings, reference=None):
        run.key = (target.root_path.name, settings.kb_enabled)
        calls.setdefault(run.key, [])
        return real_repair_one(target, provider, engine, settings, reference)

    def spied_complete(self, prompt):
        calls[run.key].append(prompt)
        return real_complete(self, prompt)

    monkeypatch.setattr(cli, "repair_one", labelled_repair_one)
    monkeypatch.setattr(Provider, "complete", spied_complete)
    assert main(_bench(manifest, "--report", "json")) == 0
    capsys.readouterr()
    for kind in SLICE:
        # the knowledge run: the plan, whose code answers the fix
        (plan,) = calls[(kind, True)]
        assert MARKER_PLAN in plan
        # the no-knowledge run asks nothing: its plan and fix prompts are
        # the knowledge run's, answered from the case memo
        assert calls[(kind, False)] == []


def test_a_corpus_bench_asks_the_model_only_its_plan_prompts(capsys, monkeypatch):
    # each case's first solution leads with an agent that can act, and its
    # plan code repairs the case: one plan prompt per case, and no fix prompt
    asked: list[str] = []
    complete = Provider.complete

    def counted(self, prompt):
        asked.append(prompt)
        return complete(self, prompt)

    monkeypatch.setattr(Provider, "complete", counted)
    assert main(_bench(CORPUS_DIR / "manifest.jsonl", "--report", "json")) == 0
    rows = json.loads(capsys.readouterr().out)["cases"]
    assert len(rows) == len(asked) == 12
    assert all(MARKER_PLAN in text for text in asked)
    assert all(row["thoughts"] == 1 for row in rows)


def _varying_mock(fix_answer):
    """``create_provider`` for a scripted mock whose fix answers differ from
    call to call: ``fix_answer(snippet, n, default)`` answers the n-th fix
    prompt, given the region and the mock's own answer."""
    answers = itertools.count(1)

    class Varying(ScriptedMockProvider):
        def _fix(self, text: str) -> str:
            return fix_answer(self._snippet(text).rstrip("\n"), next(answers), super()._fix(text))

    return Varying


def test_bench_replay_matches_a_live_run_whose_answers_vary(tmp_path, capsys, monkeypatch):
    # each fix answer carries its call number as a comment in the code, so a
    # fix prompt asked twice would patch two different byte strings
    def numbered(snippet, n, default):
        head, tail = default.split("```rust\n", 1)
        return f"{head}```rust\n// answer {n}\n{tail}"

    manifest = _bench_dir(tmp_path, ["stack_borrow", "unaligned_pointer"])
    transcript = tmp_path / "t.jsonl"
    with monkeypatch.context() as mp:
        mp.setattr(cli, "create_provider", _varying_mock(numbered))
        assert main(_bench(manifest, "--report", "json", "--transcript", str(transcript))) == 0
    live = capsys.readouterr().out
    assert "// answer 1" in transcript.read_text(encoding="utf-8")
    replay = ["--provider", "replay", "--transcript", str(transcript)]
    assert main(_bench(manifest, "--report", "json", *replay)) == 0
    assert capsys.readouterr().out == live


def test_bench_replay_matches_a_live_run_whose_cases_ask_one_prompt(tmp_path, capsys, monkeypatch):
    # each answer is longer than the one before, so two cases given two
    # answers to one prompt would count different tokens than the replay of
    # the one answer the transcript keeps
    def growing(snippet, n, default):
        head, tail = default.split("```rust\n", 1)
        return f"{head}```rust\n// answer {'!' * 8 * n}\n{tail}"

    manifest = _twin_manifest(tmp_path / "twins.jsonl", ["stack_borrow", "validity"])
    transcript = tmp_path / "t.jsonl"
    with monkeypatch.context() as mp:
        mp.setattr(cli, "create_provider", _varying_mock(growing))
        assert main(_bench(manifest, "--report", "json", "--jobs", "2", "--transcript", str(transcript))) == 0
    live = capsys.readouterr().out
    replay = ["--provider", "replay", "--transcript", str(transcript)]
    assert main(_bench(manifest, "--report", "json", *replay)) == 0
    assert capsys.readouterr().out == live


def test_a_replay_bench_loads_its_transcript_once(tmp_path, capsys, monkeypatch):
    manifest = CORPUS_DIR / "manifest.jsonl"
    transcript = tmp_path / "t.jsonl"
    run = ["--jobs", "2", "--report", "json", "--transcript", str(transcript)]
    assert main(_bench(manifest, *run)) == 0
    recorded = capsys.readouterr().out
    loads = []

    def counted(path):
        loads.append(path)
        return load_transcript(path)

    monkeypatch.setattr(cli, "load_transcript", counted)
    monkeypatch.setattr("ubmend.provider.load_transcript", counted)
    assert main(_bench(manifest, *run, "--provider", "replay")) == 0
    assert loads == [transcript]
    # each case's provider still counts its own calls and tokens
    assert capsys.readouterr().out == recorded


def test_fix_records_a_prompt_it_asks_twice_once(tmp_path, capsys, monkeypatch):
    # two solutions with the same step; every rewrite adds a differently
    # tagged UB line, so the first solution ends back at the baseline and
    # the second asks the first one's prompt again
    def worse(snippet, n, default):
        head, _, last = snippet.rpartition("\n")
        return f"worse\n\n```rust\n{head}\n        //~UB Undefined Behavior: retag <{900 + n}>\n{last}\n```"

    def same_step_twice(features, k, provider, tried):
        step = RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#0", "rewrite the region")
        return [] if tried else [RepairSolution(id=f"s0{i}", steps=[step]) for i in (1, 2)]

    monkeypatch.setattr(cli, "generate_solutions", same_step_twice)
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    transcript = tmp_path / "t.jsonl"
    record = ["--no-kb", "--report", "json", "--transcript", str(transcript)]
    with monkeypatch.context() as mp:
        mp.setattr(cli, "create_provider", _varying_mock(worse))
        assert main(_fix(case, *record)) == 1
    live = json.loads(capsys.readouterr().out)
    assert live["verdict"] == "failed" and live["final_errors"] == 1
    assert live["trace"]["counts"] == [1, 2]  # the second solution's own trace
    assert transcript.read_text(encoding="utf-8").count("retag <90") == 1
    assert main(_fix(case, *record, "--provider", "replay")) == 1
    assert json.loads(capsys.readouterr().out) == live


def test_bench_stderr_comes_in_case_id_order_whatever_finishes_first(tmp_path):
    # c01 sleeps until its detection times out, so c02 finishes first
    (tmp_path / "slow").mkdir()
    (tmp_path / "slow" / "main.rs").write_text("fn main() {\n    //~SLEEP 5\n}\n")
    fast = copy_fixture(CORPUS_DIR / "function_calls", tmp_path)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(
        json.dumps({"id": "c01", "path": "slow/main.rs", "ub_kind": "alloc"}) + "\n"
        + json.dumps({"id": "c02", "path": f"{fast.name}/main.rs", "ub_kind": "function_calls"}) + "\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "ubmend.cli", *_bench(manifest, "--jobs", "2", "--timeout", "2")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0
    lines = run.stderr.splitlines()
    assert len(lines) == 3 and "case c01 failed: detection exceeded 2.0s" in lines[0]
    assert all("unclassifiable" in line for line in lines[1:])


def test_a_reason_step_on_a_file_that_does_not_lex_adds_nothing(tmp_path, monkeypatch, capsys, caplog):
    # the step's ref names a tracked file with an unclosed unsafe block: the
    # step finds no knowledge, and the fix step after it repairs the entry file
    caplog.set_level(logging.INFO, logger="ubmend.slow")
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    (case / "broken.rs").write_text("fn f() { unsafe { let x = 1;\n}\n", encoding="utf-8")
    plan = (
        "STEP 1: Reason broken.rs#0 :: consult prior fixes\n"
        "STEP 2: ModifySemantics main.rs#0 :: rewrite the region to remove the undefined behavior\n"
    )
    monkeypatch.setattr(cli, "create_provider", lambda config: ScriptedMockProvider(config, rules=[(MARKER_PLAN, plan)]))
    assert main(_fix(case / "main.rs", "--kb", str(tmp_path / "kb.jsonl"), "--report", "json")) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert "Reason broken.rs#0 adds nothing (broken.rs:1: unbalanced braces" in caplog.text
