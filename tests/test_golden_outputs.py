"""Golden fixed-clock outputs of benches over the corpus and the large
targets, and of ``fix`` on each corpus fixture.

Each test reruns a bench over a fixture manifest or a generated one, or a
``fix`` of one corpus fixture, with the stub detector (given by absolute
path) and the fixed clock, in a fresh process, and compares what it wrote
with the files under ``tests/fixtures/golden/`` byte for byte. A change
meant to keep every output (a refactor, a deletion) is checked to keep
them. A change that alters outputs on purpose regenerates the files and
explains the diff in its description. To regenerate, from the repository
root:

    PYTHONPATH=src python tests/test_golden_outputs.py

The reference checks compile with ``rustc``; without it on ``PATH`` the
tests are skipped.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import ubmend
from conftest import CORPUS_DIR, FIXTURES_DIR, STUB_DETECTOR_ARG, load_perfbench_gen

GOLDEN_DIR = FIXTURES_DIR / "golden"
# Seed-1 t00 (4 unsafe regions) and t01 (6) of perfbench's large-target
# workload, copied so that a change to its generator changes no test. At
# budget 5, t01's first solution replays a failed batch and runs out of
# budget; a follow-up plan page, with its tried-solution lines, plans the
# one region still reported. Its transcript is the one golden that holds a
# follow-up page's text, not only its tokens.
LARGE_MANIFEST = FIXTURES_DIR / "large" / "manifest.jsonl"
LARGE_RUN = ["--no-kb", "--jobs", "2", "--report", "json", "--max-iterations"]
CORPUS_MANIFEST = CORPUS_DIR / "manifest.jsonl"
# file name stem -> the directory the run works in (None: a directory of its
# own, where a bench records its transcript) and its command line
RUNS = {
    "bench_json": (None, ["bench", str(CORPUS_MANIFEST),
                          "--report", "json", "--jobs", "2", "--transcript", "bench_json.transcript.jsonl"]),
    "bench_no_kb_table": (None, ["bench", str(CORPUS_MANIFEST), "--no-kb", "--report", "table", "--jobs", "2"]),
    "large_budget_20": (None, ["bench", str(LARGE_MANIFEST), *LARGE_RUN, "20"]),
    "large_budget_5": (None, ["bench", str(LARGE_MANIFEST), *LARGE_RUN, "5",
                              "--transcript", "large_budget_5.transcript.jsonl"]),
}


def _fix_run(case: dict) -> tuple[Path, list[str]]:
    """``fix`` of one corpus fixture, with its reference bundle when it has
    one, run from the corpus directory so that the report names the target
    by its path relative to it."""
    reference = ["--reference", case["reference"]] if "reference" in case else []
    return CORPUS_DIR, ["fix", case["path"], "--no-kb", "--report", "json", *reference]


RUNS |= {
    f"fix_{case['id']}": _fix_run(case)
    for case in map(json.loads, CORPUS_MANIFEST.read_text(encoding="utf-8").splitlines())
}

# All 7 large targets of seeds 1-3, as perfbench's large-target workload
# (budget 20) and CI's default-budget gate (budget 5) run them: built at
# test time by ``perfbench/gen.py`` under the run's directory, so these
# goldens follow the generator; run stem -> (seed, budget)
GENERATED = {f"large_seed{seed}_budget_{budget}": (seed, budget) for seed in (1, 2, 3) for budget in (20, 5)}
RUNS |= {
    stem: (None, ["bench", "targets/manifest.jsonl", *LARGE_RUN, str(budget)])
    for stem, (_, budget) in GENERATED.items()
}


def run_bench(stem: str, work: Path) -> dict[str, bytes]:
    """The stdout and stderr of run ``stem`` and the files it wrote in
    ``work``, by golden file name; the run must exit 0. A generated
    manifest's targets are written under ``work/targets``, which holds no
    output."""
    if stem in GENERATED:
        gen, root = load_perfbench_gen(), work / "targets"
        gen.write_manifest(root / "manifest.jsonl", gen.large_cases(GENERATED[stem][0], root))
    env = dict(os.environ)
    src = str(Path(ubmend.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cwd, args = RUNS[stem]
    argv = [sys.executable, "-m", "ubmend.cli", *args, "--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock"]
    done = subprocess.run(argv, cwd=cwd or work, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    outputs = {f"{stem}.out": done.stdout, f"{stem}.err": done.stderr}
    return outputs | {path.name: path.read_bytes() for path in work.iterdir() if path.is_file()}


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
