"""``perfbench/tracer.py``, the benchmark's span recorder, on a real ``fix``
and ``bench``: a hook that a signature change breaks fails here in
seconds, not only in CI's traced gate. Each run is a fresh process that
loads the recorder as ``conftest.load_perfbench`` loads a module."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from conftest import CORPUS_DIR, PERFBENCH_DIR, STUB_DETECTOR_ARG

TRACED_MAIN = """
import importlib.util, sys
from ubmend import cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.Tracer()
tracer.install()
try:
    sys.exit(cli.main(sys.argv[3:]))
finally:
    tracer.dump(sys.argv[2])
"""


def _traced(tmp_path: Path, *args: str) -> tuple[dict, Counter]:
    """The JSON report of one traced run and its spans counted by name."""
    spans = tmp_path / "spans.json"
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_MAIN, str(PERFBENCH_DIR / "tracer.py"), str(spans), *args,
         "--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock", "--report", "json"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), Counter(span[1] for span in json.loads(spans.read_text(encoding="utf-8")))


def test_the_span_recorder_traces_a_fix_and_a_bench(tmp_path):
    # stack_borrow is repaired by ModifySemantics, unaligned_pointer by
    # AddAssertion and function_pointer by SafeReplace
    report, fixed = _traced(tmp_path, "fix", str(CORPUS_DIR / "stack_borrow" / "main.rs"))
    assert report["verdict"] == "pass"
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"id": case, "path": str(CORPUS_DIR / kind / "main.rs"), "ub_kind": kind}) + "\n"
        for case, kind in (("c01", "unaligned_pointer"), ("c02", "function_pointer"))
    ))
    report, benched = _traced(tmp_path, "bench", str(manifest), "--jobs", "2")
    assert [(case["id"], case["verdict"]) for case in report["cases"]] == [("c01", "pass"), ("c02", "pass")]
    spans = fixed + benched
    layers = ["slow.run_session", "slow.execute_step", "provider.Provider.complete", "detector.run_detection"]
    layers += ["agents.safe_replace", "agents.add_assertion", "agents.modify_semantics"]
    assert [name for name in layers if not spans[name]] == []
