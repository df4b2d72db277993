"""Working copies carry the sources a target was opened with and nothing
else: a file the detection tool writes into the copy later, build output
or the ``Cargo.lock`` cargo adds, is never keyed, snapshotted, restored,
diffed or removed by a rollback."""

from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

import pytest

from conftest import CORPUS_DIR, STUB_DETECTOR, TOOLS_DIR, spawn_log
from ubmend import cli
from ubmend.detector import CaseMemo, DetectorConfig, TargetPackage, run_detection
from ubmend.rollback import SnapshotStore
from ubmend.workspace import WorkingCopy

BUILDING_DETECTOR = (sys.executable, str(TOOLS_DIR / "building_miri.py"), "{file}")
ARTEFACT = Path("target/miri/debug/p.rmeta")
ARTEFACT_BYTES = b"\x00\xc3\x28\xff"


def _package(tmp_path: Path, kind: str = "stack_borrow") -> Path:
    """A Cargo package, with no lock file, whose one source is the ``kind`` fixture."""
    pkg = tmp_path / "pkg"
    (pkg / "src").mkdir(parents=True)
    (pkg / "Cargo.toml").write_text('[package]\nname = "p"\nversion = "0.1.0"\nedition = "2021"\n')
    (pkg / "src" / "main.rs").write_text((CORPUS_DIR / kind / "main.rs").read_text())
    return pkg


def _logged(log: Path) -> str:
    """The building stub as a ``--detector-cmd``, logging each spawn to ``log``."""
    return shlex.join((*BUILDING_DETECTOR[:2], f"--log={log}", "{file}"))


def test_fix_on_a_package_changes_only_its_sources(tmp_path, capsys):
    argv = [
        "fix", str(_package(tmp_path)), "--detector-cmd", shlex.join(BUILDING_DETECTOR),
        "--fixed-clock", "--report", "json",
    ]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert [changed["file"] for changed in report["changed_files"]] == ["src/main.rs"]


def test_a_rollback_puts_back_the_sources_and_keeps_build_output(tmp_path):
    ws = WorkingCopy(TargetPackage.from_path(_package(tmp_path)))
    try:
        store = SnapshotStore()
        baseline = run_detection(ws.target, config=DetectorConfig(command=BUILDING_DETECTOR), memo=CaseMemo())
        snapshot = store.record(0, ws.files(), baseline)
        assert sorted(snapshot.files) == ["Cargo.toml", "src/main.rs"]
        ws.write("src/main.rs", "fn main() {}\n")
        # written after the copy was made: like build output, not a source
        ws.write("src/extra.rs", "pub fn extra() {}\n")
        assert "src/extra.rs" not in ws.files()
        store.record(1, ws.files(), ())
        store.restore(0, ws)
        assert ws.files() == snapshot.files
        assert (ws.root / "src" / "extra.rs").read_text() == "pub fn extra() {}\n"
        assert (ws.root / ARTEFACT).read_bytes() == ARTEFACT_BYTES
    finally:
        ws.cleanup()


def test_bench_over_packages_detects_each_source_state_once(tmp_path, capsys):
    # per case, the baseline and the repaired sources; the rerun without
    # knowledge starts from a fresh copy with no lock and reuses both
    lines = []
    for cid, kind in (("p01", "stack_borrow"), ("p02", "alloc")):
        _package(tmp_path / cid, kind)
        lines.append(json.dumps({"id": cid, "path": f"{cid}/pkg", "ub_kind": kind}))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    spawns = tmp_path / "spawns.jsonl"
    argv = ["bench", str(manifest), "--detector-cmd", _logged(spawns), "--fixed-clock", "--report", "json"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert [case["verdict"] for case in report["cases"]] == ["pass", "pass"]
    assert len(spawn_log(spawns)) == 4


def test_a_repeated_fix_on_a_package_spawns_nothing(tmp_path):
    spawns = tmp_path / "spawns.jsonl"
    argv = [
        "fix", str(_package(tmp_path)), "--detector-cmd", _logged(spawns),
        "--experience", str(tmp_path / "experience.jsonl"), "--fixed-clock",
    ]
    assert cli.main(argv) == 0
    assert len(spawn_log(spawns)) == 2
    assert cli.main(argv) == 0
    assert len(spawn_log(spawns)) == 2


def _applies(patch: str, original: str) -> bool:
    """Whether every hunk of ``patch`` finds its old lines, line ends
    included, where its header says they are in ``original``."""
    lines = original.split("\n")
    hunks: list[tuple[int, list[str]]] = []
    for line in patch.split("\n")[2:]:
        if line.startswith("@@"):
            hunks.append((int(line.split()[1][1:].split(",")[0]), []))
        elif line[:1] in (" ", "-"):
            hunks[-1][1].append(line[1:])
    return all(lines[start - 1 : start - 1 + len(old)] == old for start, old in hunks if old)


@pytest.mark.parametrize(
    "newline",
    [
        "\n",
        pytest.param(
            "\r\n",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 5: the copy reads and writes text with newline "
                "translation, so the patch of a CRLF source has no \\r and does not apply",
            ),
        ),
    ],
    ids=["lf", "crlf"],
)
def test_the_reported_patch_applies_to_the_original_file(tmp_path, capsys, newline):
    source = tmp_path / "main.rs"
    original = (CORPUS_DIR / "stack_borrow" / "main.rs").read_text().replace("\n", newline)
    source.write_bytes(original.encode())
    argv = ["fix", str(source), "--detector-cmd", shlex.join(STUB_DETECTOR), "--fixed-clock", "--report", "json"]
    assert cli.main(argv) == 0
    [changed] = json.loads(capsys.readouterr().out)["changed_files"]
    assert _applies(changed["patch"], original)
