"""Golden fixed-clock outputs of benches over the corpus and two large targets.

Each test reruns a bench over a fixture manifest with the stub detector
(given by absolute path) and the fixed clock, in a fresh process, and
compares what it wrote with the files under ``tests/fixtures/golden/`` byte
for byte. A change meant to keep every output (a refactor, a deletion) is
checked to keep them. A change that alters outputs on purpose regenerates
the files and explains the diff in its description. To regenerate, from
the repository root:

    PYTHONPATH=src python tests/test_golden_outputs.py

The reference checks compile with ``rustc``; without it on ``PATH`` the
tests are skipped.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import ubmend
from conftest import CORPUS_DIR, FIXTURES_DIR, STUB_DETECTOR_ARG

GOLDEN_DIR = FIXTURES_DIR / "golden"
# Seed-1 t00 (4 unsafe regions) and t01 (6) of perfbench's large-target
# workload, copied so that a change to its generator changes no test. At
# budget 5, t01's first solution replays a failed batch and runs out of
# budget; a follow-up plan page, with its tried-solution lines, plans the
# one region still reported.
LARGE_MANIFEST = FIXTURES_DIR / "large" / "manifest.jsonl"
LARGE_RUN = ["--no-kb", "--jobs", "2", "--report", "json", "--max-iterations"]
# file name stem -> manifest and bench arguments after it; a run works in a
# directory of its own, where it records its transcript
RUNS = {
    "bench_json": (CORPUS_DIR / "manifest.jsonl",
                   ["--report", "json", "--jobs", "2", "--transcript", "bench_json.transcript.jsonl"]),
    "bench_no_kb_table": (CORPUS_DIR / "manifest.jsonl", ["--no-kb", "--report", "table", "--jobs", "2"]),
    "large_budget_20": (LARGE_MANIFEST, [*LARGE_RUN, "20"]),
    "large_budget_5": (LARGE_MANIFEST, [*LARGE_RUN, "5"]),
}


def run_bench(stem: str, work: Path) -> dict[str, bytes]:
    """The stdout and stderr of run ``stem`` and the files it wrote in
    ``work``, by golden file name; the run must exit 0."""
    env = dict(os.environ)
    src = str(Path(ubmend.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    manifest, args = RUNS[stem]
    argv = [sys.executable, "-m", "ubmend.cli", "bench", str(manifest),
            "--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock", *args]
    done = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    outputs = {f"{stem}.out": done.stdout, f"{stem}.err": done.stderr}
    return outputs | {path.name: path.read_bytes() for path in work.iterdir()}


@pytest.mark.skipif(shutil.which("rustc") is None, reason="rustc not on PATH")
@pytest.mark.parametrize("stem", sorted(RUNS))
def test_bench_outputs_match_the_golden_files(stem, tmp_path):
    outputs = run_bench(stem, tmp_path)
    for name, data in outputs.items():
        assert data == (GOLDEN_DIR / name).read_bytes(), f"{name} differs from its golden file"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stem in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in run_bench(stem, Path(tmp)).items():
                (GOLDEN_DIR / name).write_bytes(data)
                print(f"wrote {GOLDEN_DIR / name}")
