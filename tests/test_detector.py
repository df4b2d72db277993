"""Detection tool invocation and diagnostic parsing, driven by the stub tool."""

from __future__ import annotations

import shlex
import sys
import time
from pathlib import Path

import pytest

from conftest import STUB_DETECTOR, counting_detector_command, process_gone, spawn_log, stub_detector_config
from ubmend.detector import (
    CaseMemo,
    DetectorConfig,
    MemoEntry,
    TargetPackage,
    UbKind,
    classify_kind,
    load_pattern_table,
    parse_diagnostics,
    run_detection,
)
from ubmend.errors import (
    DetectionTimeout,
    NonUbCompileError,
    TargetRejected,
    ToolMissing,
)

# message fragments lifted from real tool output, one per classified kind
KIND_MESSAGES = {
    UbKind.STACK_BORROW: "attempting a read access using <2472> at alloc1374[0x0], but that tag does not exist in the borrow stack for this location",
    UbKind.UNALIGNED_POINTER: "accessing memory based on pointer with alignment 1, but alignment 4 is required",
    UbKind.VALIDITY: "constructing invalid value: encountered 3, but expected a boolean",
    UbKind.ALLOC: "out-of-bounds memory access: expected a pointer to 4 bytes of memory, but alloc1750 has size 2",
    UbKind.FUNCTION_POINTER: "treating <alloc1290> as a function pointer, but memory does not point to a function",
    UbKind.PROVENANCE: "attempting to use a pointer with wildcard provenance created from an integer-to-pointer cast",
    UbKind.PANIC: "unwinding past the topmost frame of the stack",
    UbKind.FUNCTION_CALLS: 'calling a function with calling convention "C" using calling convention "Rust"',
    UbKind.DANGLING_POINTER: "memory access failed: alloc1768 has been freed, so this pointer is dangling",
    UbKind.BOTH_BORROW: "read access through <3049> at alloc1893[0x0] is forbidden (Tree Borrows)",
    UbKind.CONCURRENCY: "deadlock: the evaluated program deadlocked",
    UbKind.DATA_RACE: "Data race detected between (1) non-atomic write on thread `unnamed-1` and (2) non-atomic read on thread `unnamed-2` at alloc1893+0x0",
}


@pytest.mark.parametrize("kind", list(KIND_MESSAGES))
def test_classify_kind_per_message(kind):
    assert classify_kind(KIND_MESSAGES[kind]) == kind


def test_classify_kind_unknown_fallback():
    assert classify_kind("something the table has never seen") == UbKind.UNKNOWN


def test_pattern_table_covers_all_named_kinds():
    table = load_pattern_table()
    assert {kind for kind, _ in table} == set(KIND_MESSAGES)


def test_target_package_from_file_and_dir(tmp_path):
    f = tmp_path / "main.rs"
    f.write_text("fn main() {}\n")
    single = TargetPackage.from_path(f)
    assert single.root_path == tmp_path
    assert single.entry_files == ["main.rs"]
    single.validate()

    tree = TargetPackage.from_path(tmp_path)
    tree.validate()
    assert "main.rs" in tree.entry_files


def test_target_package_rejects_bad_paths(tmp_path):
    with pytest.raises(TargetRejected):
        TargetPackage.from_path(tmp_path / "nope.rs").validate()
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(TargetRejected):
        TargetPackage.from_path(empty).validate()


def _detect(tmp_path, source, memo=None, **cfg_kw):
    f = tmp_path / "main.rs"
    f.write_text(source)
    target = TargetPackage.from_path(f)
    return run_detection(target, config=stub_detector_config(**cfg_kw), memo=memo or CaseMemo())


def test_run_detection_clean(tmp_path):
    memo = CaseMemo()
    assert _detect(tmp_path, 'fn main() { println!("ok"); }\n', memo) == []
    ((_, line),) = memo.new_results.items()
    assert line["exit_status"] == 0


def test_run_detection_counts_and_locates(tmp_path):
    source = (
        "fn main() {\n"
        "    let x = 1; //~UB "
        + KIND_MESSAGES[UbKind.STACK_BORROW]
        + "\n    let y = 2; //~UB "
        + KIND_MESSAGES[UbKind.ALLOC]
        + "\n}\n"
    )
    reports = _detect(tmp_path, source)
    assert [r.kind for r in reports] == [UbKind.STACK_BORROW, UbKind.ALLOC]
    assert [r.line for r in reports] == [2, 3]
    assert all(r.file == "main.rs" for r in reports)


def test_the_first_ub_stub_reports_only_the_first_block_in_file_order(tmp_path):
    source = (
        "fn main() {\n"
        "    let x = 1; //~UB " + KIND_MESSAGES[UbKind.STACK_BORROW] + "\n"
        "    //~ABORT the program aborted execution\n"
        "    let y = 2; //~UB " + KIND_MESSAGES[UbKind.ALLOC] + "\n}\n"
    )
    f = tmp_path / "main.rs"
    f.write_text(source)
    config = DetectorConfig(command=(*STUB_DETECTOR[:-1], "--first-ub", "{file}"))
    (report,) = run_detection(TargetPackage.from_path(f), config=config, memo=CaseMemo())
    assert (report.kind, report.line) == (UbKind.STACK_BORROW, 2)
    assert len(_detect(tmp_path, source)) == 3


def test_run_detection_abnormal_termination(tmp_path):
    source = "fn main() {\n    //~ABORT the program aborted execution\n}\n"
    (report,) = _detect(tmp_path, source)
    assert report.message.startswith("the program aborted")


def test_run_detection_tool_missing(tmp_path):
    f = tmp_path / "main.rs"
    f.write_text("fn main() {}\n")
    cfg = DetectorConfig(command=("/no/such/tool", "{file}"), timeout=5)
    with pytest.raises(ToolMissing):
        run_detection(TargetPackage.from_path(f), config=cfg, memo=CaseMemo())


def test_run_detection_timeout(tmp_path):
    started = time.monotonic()
    with pytest.raises(DetectionTimeout):
        _detect(tmp_path, "//~SLEEP 10\nfn main() {}\n", timeout=0.5)
    assert time.monotonic() - started < 5


def test_run_detection_compile_error(tmp_path):
    with pytest.raises(NonUbCompileError):
        _detect(tmp_path, "fn main() { //~COMPILE-ERROR cannot find value `x`\n}\n")


def test_a_failure_without_a_compiler_error_blames_the_detection_command(tmp_path):
    with pytest.raises(NonUbCompileError, match=r"^target fails compilation \(tool exit 1\)\nerror"):
        _detect(tmp_path, "fn main() { //~COMPILE-ERROR cannot find value `x`\n}\n")
    (tmp_path / "main.rs").write_text("fn main() {}\n")
    target = TargetPackage.from_path(tmp_path / "main.rs")
    script = "import sys; print('cannot open', sys.argv[1]); sys.exit(3)"
    config = DetectorConfig(command=(sys.executable, "-c", script, "{root}/{file}"))
    with pytest.raises(NonUbCompileError) as exc:
        run_detection(target, config=config, memo=CaseMemo())
    command = shlex.join([sys.executable, "-c", script]) + " {root}/main.rs"
    assert str(exc.value) == (
        f"detection command exited 3 with no UB report and no compiler error: {command}\n"
        "cannot open {root}/main.rs"
    )


@pytest.mark.xfail(
    raises=NonUbCompileError,
    strict=True,
    reason="ROADMAP item 26: a clean run's non-zero exit is the program's, which Miri passes through",
)
def test_a_clean_run_that_exits_with_the_programs_status_reports_no_ub(tmp_path):
    # as `cargo miri run` on a clean program that prints total=31 and exits 3
    (tmp_path / "main.rs").write_text("fn main() {}\n")
    config = DetectorConfig(command=("sh", "-c", "echo total=31; exit 3"))
    assert run_detection(TargetPackage.from_path(tmp_path / "main.rs"), config=config, memo=CaseMemo()) == []


def test_compile_error_directive_suppresses_ub(tmp_path):
    source = (
        "fn main() {\n"
        "    //~COMPILE-ERROR mismatched types\n"
        "    let x = 1; //~UB " + KIND_MESSAGES[UbKind.VALIDITY] + "\n}\n"
    )
    with pytest.raises(NonUbCompileError):
        _detect(tmp_path, source)


def test_guard_directive_suppresses_adjacent_ub(tmp_path):
    source = (
        "fn main() {\n"
        "    debug_assert!(true); //~GUARD\n"
        "    let x = 1; //~UB " + KIND_MESSAGES[UbKind.VALIDITY] + "\n}\n"
    )
    assert _detect(tmp_path, source) == []


def test_parse_diagnostics_ignores_non_ub_noise():
    noise = "warning: unused variable\nnote: something\n"
    assert parse_diagnostics(noise) == []


def test_parse_diagnostics_block_boundaries(tmp_path):
    # two blocks back to back parse into two reports
    source = (
        "fn main() {\n"
        "    let a = 0; //~UB " + KIND_MESSAGES[UbKind.PANIC] + "\n"
        "    let b = 1; //~UB " + KIND_MESSAGES[UbKind.DATA_RACE] + "\n}\n"
    )
    memo = CaseMemo()
    _detect(tmp_path, source, memo)
    ((_, line),) = memo.new_results.items()
    assert "BACKTRACE" in line["output"]
    reports = parse_diagnostics(line["output"])
    assert len(reports) == 2
    assert reports[0].to_dict()["kind"] == "panic"
    assert reports[1].kind == UbKind.DATA_RACE


# --- the per-case detection memo


def _counting(tmp_path, timeout: float = 30.0) -> tuple[DetectorConfig, Path]:
    log = tmp_path / "spawns.jsonl"
    return DetectorConfig(command=counting_detector_command(log), timeout=timeout), log


def _memo_target(tmp_path, source: str) -> TargetPackage:
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "main.rs").write_text(source)
    return TargetPackage.from_path(pkg / "main.rs")


UB_SOURCE = "fn main() {\n    let x = 1; //~UB " + KIND_MESSAGES[UbKind.ALLOC] + "\n}\n"


def test_memo_detects_the_same_bytes_once(tmp_path):
    config, log = _counting(tmp_path)
    target = _memo_target(tmp_path, UB_SOURCE)
    memo = CaseMemo()
    first = run_detection(target, config=config, memo=memo)
    # build output under target/ is not part of the working-copy state
    build = target.root_path / "target" / "debug"
    build.mkdir(parents=True)
    (build / "generated.rs").write_text("// build artefact\n")
    second = run_detection(target, config=config, memo=memo)
    assert len(spawn_log(log)) == 1
    assert second == first
    assert len(second) == 1


def test_memo_keeps_no_output_that_holds_the_root_token(tmp_path):
    config, log = _counting(tmp_path)
    # the stub echoes the source line, so the output holds ``{root}``
    target = _memo_target(tmp_path, UB_SOURCE.replace("//~UB ", "//~UB {root} "))
    memo = CaseMemo()
    first = run_detection(target, config=config, memo=memo)
    second = run_detection(target, config=config, memo=memo)
    assert len(spawn_log(log)) == 2
    assert "{root}" in first[0].message and second == first
    assert memo.new_results == {}


def test_memo_detects_again_after_any_tracked_change(tmp_path):
    config, log = _counting(tmp_path)
    util = tmp_path / "pkg" / "util.rs"  # non-entry source, there when the target is opened
    util.parent.mkdir()
    util.write_text("pub fn helper() {}\n")
    target = _memo_target(tmp_path, UB_SOURCE)
    target.validate()
    memo = CaseMemo()
    run_detection(target, config=config, memo=memo)
    entry = target.root_path / "main.rs"
    entry.write_text(UB_SOURCE.replace("x = 1", "x = 2"))  # one byte
    run_detection(target, config=config, memo=memo)
    util.write_text("pub fn helper() { let _ = 1; }\n")
    run_detection(target, config=config, memo=memo)
    assert len(spawn_log(log)) == 3
    entry.write_text(UB_SOURCE)
    util.write_text("pub fn helper() {}\n")
    run_detection(target, config=config, memo=memo)
    assert len(spawn_log(log)) == 3  # back to the first state
    # written after the target was opened: not a source, so no key changes
    (target.root_path / "late.rs").write_text("pub fn late() {}\n")
    run_detection(target, config=config, memo=memo)
    assert len(spawn_log(log)) == 3


def test_memo_reruns_timeouts_and_compile_errors(tmp_path):
    config, log = _counting(tmp_path, timeout=0.5)
    memo = CaseMemo()
    sleepy = _memo_target(tmp_path, "//~SLEEP 3\nfn main() {}\n")
    for _ in range(2):
        with pytest.raises(DetectionTimeout):
            run_detection(sleepy, config=config, memo=memo)
    broken = _memo_target(tmp_path, "fn main() { //~COMPILE-ERROR cannot find value `x`\n}\n")
    config.timeout = 30.0
    for _ in range(2):
        with pytest.raises(NonUbCompileError):
            run_detection(broken, config=config, memo=memo)
    # the timed-out spawns were killed before they could log
    assert [entry["status"] for entry in spawn_log(log)] == [1, 1]


def test_memo_charges_a_run_once_for_detections_it_reuses():
    memo = CaseMemo()
    paid = MemoEntry({"exit_status": 0, "output": ""}, 2.5, None)
    memo.keep("k", paid)
    assert memo.new_results == {"k": paid.fields}
    assert memo.recall("k") == paid
    assert memo.charged_seconds == 0.0  # the run that made it pays nothing more
    memo.begin_run()
    assert memo.recall("k") == paid
    assert memo.recall("k") == paid
    assert memo.charged_seconds == 2.5
    assert memo.recall("absent") is None


def test_timeout_kills_the_whole_process_tree(tmp_path):
    f = tmp_path / "main.rs"
    f.write_text("fn main() {}\n")
    forking = DetectorConfig(
        command=("sh", "-c", "sleep 30 & echo $! > grandchild.pid; wait"), timeout=1.0
    )
    with pytest.raises(DetectionTimeout):
        run_detection(TargetPackage.from_path(f), config=forking, memo=CaseMemo())
    assert process_gone(int((tmp_path / "grandchild.pid").read_text()))
