"""Shared fixtures: stub detector wiring and provider factories."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from itertools import product
from pathlib import Path
from typing import Callable

import pytest

from ubmend import slow
from ubmend.detector import DetectorConfig
from ubmend.fast import AgentKind, RepairSolution, RepairStep
from ubmend.kb import VECTOR_DIMS
from ubmend.provider import MemoizedProvider, ProviderConfig, ProviderMode, PromptRecord, ScriptedMockProvider
from ubmend.workspace import WorkingCopy

TESTS_DIR = Path(__file__).parent
TOOLS_DIR = TESTS_DIR / "tools"
FIXTURES_DIR = TESTS_DIR / "fixtures"
CORPUS_DIR = FIXTURES_DIR / "corpus"
SEQUENCES_DIR = FIXTURES_DIR / "sequences"
PERFBENCH_DIR = TESTS_DIR.parent / "perfbench"

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


_spec = importlib.util.spec_from_file_location("fake_miri", TOOLS_DIR / "fake_miri.py")
FAKE_MIRI = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(FAKE_MIRI)


def run_stub_in_process(argv, timeout, cwd, **_):
    """``process.run_group`` for the stub detector without a process spawn;
    a ``//~SLEEP`` directive times out at once instead of sleeping."""
    rel = argv[-1]
    if FAKE_MIRI.SLEEP in (Path(cwd) / rel).read_text(encoding="utf-8"):
        raise subprocess.TimeoutExpired(argv, timeout)
    err = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(err):
            code = FAKE_MIRI.main(["fake_miri.py", rel])
    finally:
        os.chdir(previous)
    return subprocess.CompletedProcess(argv, code, "", err.getvalue())


def run_session_on_copy(target, solutions, *, provider, config, kb=None):
    """``run_session`` on ``target`` with the state ``cli.repair_one`` hands
    it, made here: a working copy of its own, removed afterwards;
    ``provider`` memoised through ``config.memo``, on a clock by which a
    model call takes no time; and a baseline detected through
    ``config.memo``, by the same ``slow._detect`` that detects each step."""
    workspace = WorkingCopy(target)
    try:
        memoised = MemoizedProvider(provider, config.memo, lambda: 0.0)
        baseline = slow._detect(workspace.target, config)
        return slow.run_session(workspace, solutions, provider=memoised, config=config, baseline=baseline, kb=kb)
    finally:
        workspace.cleanup()


class SpyProvider(ScriptedMockProvider):
    """The scripted mock, keeping the text of every prompt it answers."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.prompts: list[str] = []

    def _complete(self, prompt: PromptRecord) -> str:
        self.prompts.append(prompt.text())
        return super()._complete(prompt)


def padded(values) -> list[float]:
    """``values`` padded with zero buckets to the stored vector width; zero
    buckets change no cosine, ranking or search order."""
    return [*values, *[0.0] * (VECTOR_DIMS - len(values))]


def signature_candidates(signatures: dict[str, str]) -> list[RepairSolution]:
    """One candidate per one- and two-step signature the generated store uses."""
    plans = [[a] for a in sorted(signatures)] + [list(p) for p in product(sorted(signatures), repeat=2)]
    return [
        RepairSolution(
            id=f"c{i:02d}",
            steps=[RepairStep(AgentKind(a), "main.rs#0", signatures[a]) for a in plan],
        )
        for i, plan in enumerate(plans)
    ]


@pytest.fixture(autouse=True)
def private_tmpdir(tmp_path_factory, monkeypatch):
    """A temp directory of the test's own, for it and the processes it starts.

    ubmend keeps each working copy in a ``ubmend-*`` tree there; one left
    behind when the test ends fails it.
    """
    tmp = tmp_path_factory.mktemp("tmpdir")
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    yield tmp
    leaked = sorted(p.name for p in tmp.iterdir() if p.name.startswith("ubmend-"))
    if leaked:
        pytest.fail(f"temp trees left behind: {leaked}")


def load_perfbench_gen():
    """``perfbench/gen.py`` loaded as a module, as the benchmark harness loads it."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH_DIR / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look it up
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture
def perfbench_gen(monkeypatch):
    """``load_perfbench_gen()``, with ``sys.modules`` as it was restored after the test."""
    monkeypatch.setitem(sys.modules, "perfbench_gen", None)
    return load_perfbench_gen()


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
