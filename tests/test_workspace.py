"""Working copies carry a target's tracked sources and nothing else: build
output the detection tool leaves in the copy is neither read, diffed nor
removed by a rollback."""

from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

from conftest import CORPUS_DIR, TOOLS_DIR
from ubmend import cli
from ubmend.detector import CaseMemo, DetectorConfig, TargetPackage, run_detection
from ubmend.rollback import SnapshotStore
from ubmend.workspace import WorkingCopy

BUILDING_DETECTOR = (sys.executable, str(TOOLS_DIR / "building_miri.py"), "{file}")
ARTEFACT = Path("target/miri/debug/p.rmeta")
ARTEFACT_BYTES = b"\x00\xc3\x28\xff"


def _package(tmp_path: Path) -> Path:
    """A Cargo package whose one source is the stack_borrow fixture."""
    pkg = tmp_path / "pkg"
    (pkg / "src").mkdir(parents=True)
    (pkg / "Cargo.toml").write_text('[package]\nname = "p"\nversion = "0.1.0"\nedition = "2021"\n')
    (pkg / "src" / "main.rs").write_text((CORPUS_DIR / "stack_borrow" / "main.rs").read_text())
    return pkg


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
        ws.write("src/extra.rs", "pub fn extra() {}\n")
        store.record(1, ws.files(), ())
        store.restore(0, ws)
        assert ws.files() == snapshot.files
        assert not (ws.root / "src" / "extra.rs").exists()
        assert (ws.root / ARTEFACT).read_bytes() == ARTEFACT_BYTES
    finally:
        ws.cleanup()
