"""Shared fixtures: stub detector wiring and provider factories."""

from __future__ import annotations

import json
import os
import shlex
import shutil
import sys
import time
from pathlib import Path
from typing import Callable

import pytest

from ubmend.detector import DetectorConfig
from ubmend.provider import ProviderConfig, ProviderMode, ScriptedMockProvider

TESTS_DIR = Path(__file__).parent
TOOLS_DIR = TESTS_DIR / "tools"
FIXTURES_DIR = TESTS_DIR / "fixtures"
CORPUS_DIR = FIXTURES_DIR / "corpus"
SEQUENCES_DIR = FIXTURES_DIR / "sequences"

STUB_DETECTOR = (sys.executable, str(TOOLS_DIR / "fake_miri.py"), "{file}")
STUB_DETECTOR_ARG = shlex.join(STUB_DETECTOR)


def stub_detector_config(timeout: float = 30.0) -> DetectorConfig:
    return DetectorConfig(command=STUB_DETECTOR, timeout=timeout)


def counting_detector_command(log: Path) -> tuple[str, ...]:
    """The stub detector behind ``counting_miri.py``, one log line per spawn."""
    return (sys.executable, str(TOOLS_DIR / "counting_miri.py"), f"--log={log}", "{file}")


def spawn_log(log: Path) -> list[dict]:
    """Entries ``counting_miri.py`` wrote: args, file digests, exit status."""
    if not log.exists():
        return []
    return [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]


@pytest.fixture
def detector_config() -> DetectorConfig:
    return stub_detector_config()


@pytest.fixture
def mock_provider() -> ScriptedMockProvider:
    return ScriptedMockProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK))


@pytest.fixture
def make_target(tmp_path: Path):
    """Write a single-file target into the test tmpdir."""

    def _make(source: str, name: str = "main.rs") -> Path:
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        return path

    return _make


def copy_fixture(src: Path, dest_dir: Path) -> Path:
    """Copy a fixture file or tree under dest_dir, returning the copy."""
    dest_dir.mkdir(parents=True, exist_ok=True)
    target = dest_dir / src.name
    if src.is_file():
        shutil.copy2(src, target)
    else:
        shutil.copytree(src, target)
    return target


def process_gone(pid: int, within: float = 5.0) -> bool:
    """Wait until ``pid`` no longer runs (gone, or a zombie awaiting its reaper)."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except (ProcessLookupError, OSError):
            return True
        if state == "Z":
            return True
        time.sleep(0.05)
    return False


def counting_rustc(directory: Path) -> tuple[Path, Callable[[], int]]:
    """A ``rustc`` wrapper in ``directory`` that counts its invocations.

    Returns the wrapper's path and a function reading the count so far.
    """
    directory.mkdir(parents=True, exist_ok=True)
    log = directory / "compiles.log"
    shim = directory / "rustc"
    shim.write_text(f'#!/bin/sh\necho x >> "{log}"\nexec "{shutil.which("rustc")}" "$@"\n')
    shim.chmod(0o755)
    return shim, lambda: len(log.read_text().splitlines()) if log.exists() else 0
