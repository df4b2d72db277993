"""Command-line surface: exit codes, report formats, interval math, manifests."""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import shutil
import tempfile
from pathlib import Path

import pytest

from conftest import (
    CORPUS_DIR,
    STUB_DETECTOR_ARG,
    copy_fixture,
    counting_detector_command,
    counting_rustc,
    spawn_log,
)
from ubmend import cli
from ubmend.cli import PipelineSettings, compute_ci, load_manifest, main, repair_one
from ubmend.detector import DetectorConfig, TargetPackage
from ubmend.fast import AgentKind, RepairSolution, RepairStep
from ubmend.feedback import FeedbackEngine
from ubmend.kb import AstMode
from ubmend.provider import ProviderConfig, ProviderMode, ScriptedMockProvider

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
    }
    assert payload["schema_version"] == 1
    assert payload["verdict"] == "pass"
    assert payload["baseline_errors"] == 1
    assert payload["final_errors"] == 0
    assert payload["triplet"]["accuracy"] is True
    assert payload["triplet"]["acceptability"] is None
    assert payload["changed_files"]


@needs_rustc
def test_fix_with_reference_upgrades_to_semantic_pass(tmp_path, capsys):
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    ref = copy_fixture(CORPUS_DIR / "refs" / "stack_borrow", tmp_path / "refs")
    code = main(_fix(case, "--no-kb", "--report", "json", "--reference", str(ref)))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "semantic_pass"
    assert payload["triplet"]["acceptability"] is True


def test_fix_unfixable_case_exits_one(tmp_path, capsys):
    path = tmp_path / "main.rs"
    path.write_text(UB_INSIDE_AND_OUT, encoding="utf-8")
    assert main(_fix(path, "--no-kb", "--solutions", "2")) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "failed"
    # the untouchable report survives; the final state is the best seen
    assert "-> 1" in out


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
    manifest = _bench_dir(tmp_path, ["stack_borrow", "unaligned_pointer"])
    assert main(_bench(manifest, "--report", "json", "--jobs", "1")) == 0
    serial = capsys.readouterr().out
    assert main(_bench(manifest, "--report", "json", "--jobs", "2")) == 0
    assert capsys.readouterr().out == serial


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


def test_bench_missing_manifest_file_is_usage_error(tmp_path, capsys):
    assert main(_bench(tmp_path / "absent.jsonl")) == 2
    assert "no such manifest" in capsys.readouterr().err


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
    def one_region_each(features, k, provider, kb_enabled):
        return [
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
    # per case: the baseline and the repaired state; the final re-verify and
    # the no-knowledge run's detections all reuse them
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
    settings = PipelineSettings(
        detector=DetectorConfig(command=counting_detector_command(log), timeout=30.0),
        solutions_k=10,
        budget=5,
        ast_mode=AstMode.LOCAL_PARSER,
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
